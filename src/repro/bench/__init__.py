"""The gated benchmarks: one module per bench-history suite.

``repro.core`` and ``repro.indexes`` hold mechanisms; what is *measured*
with them lives here — ``lookup`` (``repro bench``), ``sweep``,
``migration``, ``shard``, ``serve``.  Each module's ``run`` takes plain
values (no ``argparse``) and ends in one :class:`Outcome`, which
``repro.cli._run_benchmark`` alone stamps with provenance, prints,
writes, records in the bench history and turns into an exit code.
Nothing below this package imports it (``tests/test_layering.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass
class Outcome:
    """What one benchmark run hands to the driver."""

    suite: str          # bench-history suite name
    doc: dict           # the bench document, before provenance
    #: Gated virtual-clock metrics (deterministic on any machine), or
    #: None when the run is not recorded: an empty sweep, a lookup
    #: bench that missed ``--min-speedup``.
    metrics: Optional[Dict[str, float]]
    info: dict          # wall-clock observations: recorded, never gated
    context: dict       # the parameters identifying ``metrics``' trajectory
    failures: List[str]          # one stderr line each; any makes exit 1
    render: Callable[[], str]    # the human-readable report
    #: What ``--json`` prints where that is not ``doc``: ``sweep`` and
    #: ``migrate`` write the document as a by-product (``--bench``) and
    #: show their report only once the history gate has passed.
    report: Optional[dict] = None
