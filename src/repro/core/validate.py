"""Structural invariant checking for every index in the registry.

Throughput numbers cannot tell a correct index from a silently corrupt
one — a gapped array whose gap copies drift, a LIPP node whose model no
longer predicts its own slots, or a PGM segment that violates its
ε-bound all keep *answering* queries while quietly invalidating every
conclusion drawn from them.  This module is the correctness net's
innermost layer: each :class:`~repro.indexes.base.OrderedIndex`
implements ``debug_validate()``, a full structural walk that returns a
list of :class:`Violation` records instead of asserting.

Design rules, enforced across all eleven implementations:

* **Zero cost when not invoked.**  Validation is a plain method; no
  per-operation bookkeeping exists anywhere on the hot path.
* **Never touch the cost meter.**  Validators walk node structures
  directly rather than calling ``lookup``/``range_scan``, so invoking
  them mid-run (e.g. from :class:`ValidationObserver` after every SMO)
  cannot perturb virtual-clock measurements.
* **Report, don't assert.**  A corrupted index yields *every*
  violation found, each tagged with a stable machine-readable rule
  name (``"btree.keys-sorted"``, ``"lipp.precise-position"``, ...), so
  the fuzzer and the differential oracle can shrink and classify
  failures.

Entry points::

    from repro.core.validate import debug_validate

    violations = debug_validate(index)   # [] means structurally sound
    for v in violations:
        print(v.rule, v.node_id, v.detail)

:class:`ValidationObserver` plugs the same check into the execution
engine's observer protocol: it re-validates the index after every
structural modification (``on_smo``) and once more at the end of the
run, attributing each violation to the operation sequence number that
first exposed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

__all__ = [
    "Violation",
    "ValidationObserver",
    "debug_validate",
    "first_inversion",
]


@dataclass(frozen=True)
class Violation:
    """One broken structural invariant.

    ``node_id`` is the offending node's allocation id where the index
    has per-node ids, else a best-effort locator (run index, segment
    index, 0 for whole-index properties).  ``rule`` is a stable
    dotted name (``family.invariant``) used by tests and the fuzzer to
    classify failures; ``detail`` is human-oriented.
    """

    node_id: int
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] node {self.node_id}: {self.detail}"


def first_inversion(keys: Sequence[Any], strict: bool = True) -> int:
    """Index ``i`` of the first out-of-order adjacent pair
    (``keys[i] > keys[i+1]``, or ``>=`` when ``strict``), else ``-1``."""
    for i in range(len(keys) - 1):
        if keys[i] >= keys[i + 1] if strict else keys[i] > keys[i + 1]:
            return i
    return -1


def debug_validate(index: Any) -> List[Violation]:
    """Run ``index.debug_validate()`` and sanity-check its shape.

    Thin module-level entry point so call sites can stay decoupled
    from the index class; the per-structure logic lives as a
    ``debug_validate`` method on each index, next to the code that
    maintains the invariant it checks.
    """
    violations = index.debug_validate()
    if not isinstance(violations, list):
        raise TypeError(
            f"{type(index).__name__}.debug_validate() must return a list, "
            f"got {type(violations).__name__}"
        )
    return violations


@dataclass(frozen=True)
class TimedViolation:
    """A :class:`Violation` attributed to the op that first exposed it.

    ``seq`` is the operation sequence number within the stream; ``-1``
    marks violations found by the final end-of-run sweep (or after
    bulk load, before any operation ran).
    """

    seq: int
    violation: Violation

    def __str__(self) -> str:
        where = f"op #{self.seq}" if self.seq >= 0 else "end of run"
        return f"{where}: {self.violation}"


class ValidationObserver:
    """Execution-engine observer that validates structure continuously.

    Implements the :class:`~repro.core.runner.ExecutionObserver`
    protocol (duck-typed to keep this module import-light).  Hooks:

    * after bulk load (``on_phase("measure")``) — a corrupt bulk build
      should be caught before any operation runs;
    * after every operation whose record flagged an SMO (``on_smo``) —
      structural modifications are where invariants break;
    * at ``on_phase("done")`` — catches slow drift between SMOs.

    Only *new* violations are recorded at each checkpoint: a violation
    is attributed to the first checkpoint that exposed it, so a single
    corruption does not flood the report at every later SMO.
    """

    def __init__(self, limit: int = 100) -> None:
        self.limit = limit
        self.violations: List[TimedViolation] = []
        self._seen: set = set()
        self._index: Any = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def _check(self, seq: int) -> None:
        if self._index is None or len(self.violations) >= self.limit:
            return
        for v in debug_validate(self._index):
            if v in self._seen:
                continue
            self._seen.add(v)
            self.violations.append(TimedViolation(seq=seq, violation=v))
            if len(self.violations) >= self.limit:
                return

    # -- ExecutionObserver protocol -----------------------------------------

    def on_phase(self, phase: str, index: Any, workload: Any) -> None:
        self._index = index
        if phase == "measure" or phase == "done":
            self._check(-1)

    def on_smo(self, event: Any) -> None:
        self._check(event.seq)


# ---------------------------------------------------------------------------
# Shared helpers for index-side validators
# ---------------------------------------------------------------------------

def sorted_violations(
    keys: Sequence[Any],
    node_id: int,
    rule: str,
    strict: bool = True,
    what: str = "keys",
) -> List[Violation]:
    """Zero or one violation for an out-of-order key sequence."""
    i = first_inversion(keys, strict=strict)
    if i < 0:
        return []
    op = ">=" if strict else ">"
    return [Violation(node_id, rule,
                      f"{what}[{i}]={keys[i]!r} {op} {what}[{i + 1}]={keys[i + 1]!r}")]


def residual_violations(
    model: Any,
    keys: Sequence[Any],
    base_rank: int,
    epsilon: float,
    node_id: int,
    rule: str,
) -> List[Violation]:
    """ε-bound check: ``model.predict(keys[i])`` must land within
    ``epsilon`` (+1 rounding slack) of rank ``base_rank + i``.

    This is the learned-index contract that makes bounded last-mile
    search correct: a segment whose residual exceeds its ε can silently
    miss keys that sit outside the search window.
    """
    out: List[Violation] = []
    slack = epsilon + 1.0
    for i, key in enumerate(keys):
        rank = base_rank + i
        pred = model.predict(key)
        if abs(pred - rank) > slack:
            out.append(Violation(
                node_id, rule,
                f"key {key}: predicted rank {pred:.1f} vs true {rank} "
                f"(|residual| > eps+1 = {slack:.0f})"))
            break  # one per segment keeps reports readable
    return out


def segment_partition_violations(
    segments: Sequence[Any],
    total: int,
    node_id: int,
    rule: str,
) -> List[Violation]:
    """PLA segments must contiguously partition ranks ``0..total-1``."""
    out: List[Violation] = []
    expected = 0
    for si, seg in enumerate(segments):
        if seg.first_index != expected:
            out.append(Violation(
                node_id, rule,
                f"segment {si} starts at rank {seg.first_index}, "
                f"expected {expected}"))
            return out
        expected += seg.length
    if segments and expected != total:
        out.append(Violation(
            node_id, rule,
            f"segments cover {expected} ranks but level holds {total}"))
    return out


Range = Tuple[Optional[int], Optional[int]]


def range_violation(
    keys: Sequence[Any],
    lo: Optional[int],
    hi: Optional[int],
    node_id: int,
    rule: str,
) -> List[Violation]:
    """Every key must satisfy ``lo <= key < hi`` (open-ended on None)."""
    for k in keys:
        if lo is not None and k < lo:
            return [Violation(node_id, rule, f"key {k} < lower bound {lo}")]
        if hi is not None and k >= hi:
            return [Violation(node_id, rule, f"key {k} >= upper bound {hi}")]
    return []
