"""The index capability registry — single source of truth for catalogs.

The paper's harness (GRE) drives *any* index through *any* workload; its
C++ artifact keeps one "competitor" registry for that.  This module is
our equivalent: every index is registered exactly once as an
:class:`IndexSpec` holding its class, its catalog tags and (when one
exists) its concurrent variant.  What the index can do — whether it is
learned, which operations it supports — is read off the class, the one
place it is written down.

Every legacy catalog is a *view* over this registry:

* ``repro.LEARNED_INDEXES`` / ``repro.TRADITIONAL_INDEXES`` — the
  Section-4.1 families (``tag="core"``),
* ``repro.cli._ALL_INDEXES`` — everything the CLI exposes
  (``tag="cli"``),
* ``benchmarks.common.ST_LEARNED`` / ``ST_TRADITIONAL`` — the heatmap
  contenders (``tag="heatmap"``; PGM is excluded there, see the note in
  ``benchmarks/common.py``),
* ``repro.concurrency.adapters.MT_LEARNED`` / ``MT_TRADITIONAL`` — the
  concurrent variants bound via :meth:`IndexRegistry.bind_concurrent`.

Registering a new index is one call::

    from repro.core.registry import REGISTRY, IndexSpec

    REGISTRY.register(IndexSpec(factory=MyIndex, tags=frozenset({"cli"})))

and it appears in every derived catalog whose tags it carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Type

from repro.indexes.alex import ALEX
from repro.indexes.art import ART
from repro.indexes.base import OrderedIndex
from repro.indexes.btree import BPlusTree
from repro.indexes.finedex import FINEdex
from repro.indexes.fiting_tree import FITingTree
from repro.indexes.hot import HOT
from repro.indexes.lipp import LIPP
from repro.indexes.masstree import Masstree
from repro.indexes.pgm import PGMIndex
from repro.indexes.rmi import RMI
from repro.indexes.wormhole import Wormhole
from repro.indexes.xindex import XIndex

#: Known view tags (anything else is allowed but not consumed here).
TAG_CORE = "core"        # the paper's Section-4.1 index families
TAG_CLI = "cli"          # exposed through the command-line catalog
TAG_HEATMAP = "heatmap"  # single-threaded heatmap contenders


@dataclass(frozen=True)
class IndexSpec:
    """One registered index: its class, its catalog tags and its
    concurrent variant.  Every capability is a property read off the
    class, so the class is the only place one is written down."""

    #: The index class; calling it builds an instance.
    factory: Type[OrderedIndex]
    tags: frozenset = field(default_factory=frozenset)
    #: Concurrent variant (Section 4.2), bound by the adapters module.
    concurrent_name: Optional[str] = None
    concurrent_factory: Optional[Callable[..., object]] = None
    #: Whether the paper evaluates the concurrent variant (PGM's naive
    #: adapter exists for completeness but is not part of Figure 4/5).
    concurrent_evaluated: bool = True

    @property
    def name(self) -> str:
        return self.factory.name

    @property
    def is_learned(self) -> bool:
        return self.factory.is_learned

    @property
    def supports_insert(self) -> bool:
        return self.factory.supports_insert

    @property
    def supports_delete(self) -> bool:
        return self.factory.supports_delete

    @property
    def supports_range(self) -> bool:
        return self.factory.supports_range

    @property
    def supports_batch(self) -> bool:
        """Whether the class implements an exact-meter ``_lookup_batch``
        fast path — numpy kernels on the model-based indexes, a
        level-wise C ``bisect`` walk with numpy probe replay on B+tree.
        The ``*_many`` APIs work on every index regardless (the default
        is a scalar loop); this marks where batching is faster."""
        return self.factory._lookup_batch is not OrderedIndex._lookup_batch

    @property
    def supports_migration(self) -> bool:
        """Whether the index can take part in live migration
        (:mod:`repro.core.migrate`): migrating *from* needs
        ``range_scan`` for the backfill snapshot cursor, migrating *to*
        needs inserts.  The same property marks the per-shard engines of
        a :class:`~repro.core.shard.ShardedIndex` and the indexes a
        server can rebuild: shard split/merge and background rebuilds
        are live migrations."""
        return self.supports_insert and self.supports_range


class IndexRegistry:
    """Ordered catalog of :class:`IndexSpec` entries keyed by name."""

    def __init__(self) -> None:
        self._specs: Dict[str, IndexSpec] = {}

    # -- registration ----------------------------------------------------------

    def register(self, spec: IndexSpec) -> IndexSpec:
        """Add ``spec``; duplicate names are a programming error."""
        if spec.name in self._specs:
            raise ValueError(f"index {spec.name!r} is already registered")
        self._specs[spec.name] = spec
        return spec

    def bind_concurrent(
        self,
        base_name: str,
        concurrent_name: str,
        factory: Callable[..., object],
        evaluated: bool = True,
    ) -> IndexSpec:
        """Attach a concurrent-variant factory to a registered index."""
        spec = self.get(base_name)
        if spec.concurrent_factory is not None and spec.concurrent_factory is not factory:
            raise ValueError(
                f"{base_name!r} already has concurrent variant "
                f"{spec.concurrent_name!r}"
            )
        bound = replace(
            spec,
            concurrent_name=concurrent_name,
            concurrent_factory=factory,
            concurrent_evaluated=evaluated,
        )
        self._specs[base_name] = bound
        return bound

    # -- access ----------------------------------------------------------------

    def get(self, name: str) -> IndexSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(
                f"unknown index {name!r}; registered: {sorted(self._specs)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[IndexSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def create(self, name: str, **kwargs) -> OrderedIndex:
        """Instantiate a registered index."""
        return self.get(name).factory(**kwargs)

    # -- filtered views ---------------------------------------------------------

    def specs(
        self,
        tag: Optional[str] = None,
        learned: Optional[bool] = None,
    ) -> List[IndexSpec]:
        """Specs in registration order, optionally filtered."""
        out = []
        for spec in self._specs.values():
            if tag is not None and tag not in spec.tags:
                continue
            if learned is not None and spec.is_learned != learned:
                continue
            out.append(spec)
        return out

    def names(
        self,
        tag: Optional[str] = None,
        learned: Optional[bool] = None,
    ) -> List[str]:
        return [s.name for s in self.specs(tag=tag, learned=learned)]

    def factories(
        self,
        tag: Optional[str] = None,
        learned: Optional[bool] = None,
    ) -> Dict[str, Callable[..., OrderedIndex]]:
        """``{name: factory}`` view — what the legacy catalogs hold."""
        return {s.name: s.factory for s in self.specs(tag=tag, learned=learned)}

    # -- concurrent views --------------------------------------------------------

    def concurrent_specs(
        self,
        learned: Optional[bool] = None,
        evaluated: bool = True,
    ) -> List[IndexSpec]:
        """Specs with a bound concurrent variant, in registration order."""
        # The adapters module performs the binding at import time; pull
        # it in lazily so the base package stays cheap to import.
        import repro.concurrency.adapters  # noqa: F401

        out = []
        for spec in self._specs.values():
            if spec.concurrent_factory is None:
                continue
            if evaluated and not spec.concurrent_evaluated:
                continue
            if learned is not None and spec.is_learned != learned:
                continue
            out.append(spec)
        return out

    def concurrent_factories(
        self,
        learned: Optional[bool] = None,
        evaluated: bool = True,
    ) -> Dict[str, Callable[..., object]]:
        """``{concurrent_name: adapter_factory}`` view (MT catalogs)."""
        return {
            s.concurrent_name: s.concurrent_factory
            for s in self.concurrent_specs(learned=learned, evaluated=evaluated)
        }


def _populate(reg: IndexRegistry) -> IndexRegistry:
    """Register the suite's indexes (registration order fixes view order)."""
    core_cli_hm = frozenset({TAG_CORE, TAG_CLI, TAG_HEATMAP})

    for factory, tags in (
        # Learned (Section 4.1 order: ALEX, LIPP, PGM, XIndex, FINEdex).
        (ALEX, core_cli_hm),
        (LIPP, core_cli_hm),
        (PGMIndex, frozenset({TAG_CORE, TAG_CLI})),  # heatmap excludes PGM
        (XIndex, core_cli_hm),
        (FINEdex, core_cli_hm),
        (FITingTree, frozenset({TAG_CLI})),
        # Read-only baseline; no update catalogs, inserts raise.
        (RMI, frozenset()),
        # Traditional.
        (BPlusTree, core_cli_hm),
        (ART, core_cli_hm),
        (HOT, core_cli_hm),
        (Masstree, frozenset()),  # concurrent-only in the paper
        (Wormhole, frozenset()),  # concurrent-only in the paper
    ):
        reg.register(IndexSpec(factory, tags))
    return reg


#: The process-wide registry every catalog derives from.
REGISTRY: IndexRegistry = _populate(IndexRegistry())
