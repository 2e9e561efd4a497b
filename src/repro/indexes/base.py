"""Common interface implemented by every index in the suite.

All indexes — learned and traditional — are ordered maps from unsigned
64-bit integer keys to opaque payloads, matching the paper's setup of
8-byte keys paired with 8-byte payloads.  Every index:

* is built through one door, :meth:`OrderedIndex.bulk_load`, which
  reads the keys, refuses a descent or (unless ``supports_duplicates``)
  an equal pair before any state change, calls the class's ``_load``,
  then sets the size and drops batch state; an index implements
  ``_load``, never ``bulk_load``,
* supports ``lookup``, ``insert`` and ``update``; most support
  ``delete`` and ``range_scan`` (the paper notes
  LIPP/Masstree/Wormhole/B+TreeOLC/HOT-ROWEX lack deletes upstream; we
  implement deletes where the paper's authors did, i.e. for LIPP/ALEX),
* meters its work on a :class:`~repro.core.cost.CostMeter`,
* records an :class:`OpRecord` for its most recent operation so the
  benchmark harness can compute Table-3 statistics and the concurrency
  adapters can derive lock/contention traces,
* reports an analytic :class:`MemoryBreakdown` mirroring the C++ struct
  layouts (Python object overhead would distort Figure 8 beyond use).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.cost import CostMeter
from repro.indexes import batching

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.validate import Violation

Key = int
Value = Any

#: Size in bytes of one key and one payload in the modelled C++ layout.
KEY_BYTES = 8
PAYLOAD_BYTES = 8
POINTER_BYTES = 8


@dataclass
class MemoryBreakdown:
    """Analytic end-to-end size of an index, in bytes.

    ``inner`` is the non-leaf (model / routing) layer, ``leaf`` the leaf
    layer including key-position/key-payload slots — the paper's point is
    that the leaf layer dominates once updates force explicit key storage.
    """

    inner: int = 0
    leaf: int = 0
    metadata: int = 0

    @property
    def total(self) -> int:
        return self.inner + self.leaf + self.metadata


@dataclass
class OpRecord:
    """What the most recent operation did, structurally.

    The fields mirror Table 3 of the paper plus what the concurrency
    adapters need: the identities of nodes on the traversal path (for
    lock-contention replay) and the work done at the leaf.
    """

    op: str = ""
    key: Key = 0
    found: bool = False
    #: Serial ids of nodes visited root→leaf (inclusive).
    path: List[int] = field(default_factory=list)
    #: Number of nodes traversed (== len(path) unless the index skips).
    nodes_traversed: int = 0
    #: Keys moved to make room (ALEX/B+-tree style collision resolution).
    keys_shifted: int = 0
    #: New nodes allocated by this operation (LIPP chaining, splits).
    nodes_created: int = 0
    #: Whether a structural modification operation ran.
    smo: bool = False
    #: Last-mile search distance (slots probed around the prediction).
    search_distance: int = 0


class OrderedIndex(ABC):
    """Abstract ordered secondary-memory-free index."""

    #: Human-readable name used in reports ("ALEX", "ART", ...).
    name: ClassVar[str] = "index"
    #: Whether the index is a learned (model-based) index.
    is_learned: ClassVar[bool] = False
    supports_insert: ClassVar[bool] = True
    supports_delete: ClassVar[bool] = True
    supports_range: ClassVar[bool] = True
    supports_duplicates: ClassVar[bool] = False
    #: Fewest items a load hands ``_load`` as an int64 key column;
    #: ``None``: the class builds from the item list alone.
    _array_build_min: ClassVar[Optional[int]] = None
    #: Wrappers composing other indexes (e.g. the migration
    #: multiplexer) — real implementations of the contract, but not
    #: standalone registrable competitors.
    is_adapter: ClassVar[bool] = False

    def __init__(self, meter: Optional[CostMeter] = None) -> None:
        self.meter = meter if meter is not None else CostMeter()
        self.last_op = OpRecord()
        self._size = 0
        self._node_serial = 0
        #: Vectorized-lookup state (tables, or a wrapper's delegation
        #: binding); dropped through :meth:`_invalidate_batch_cache`.
        self._batch_cache: Optional[Any] = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # A batch hook replays the ``lookup`` defined beside it.  A
        # subclass that overrides ``lookup`` alone (a test double, an
        # instrumented variant) must not inherit a hook that bypasses
        # its override: it gets the loop default back.
        if "lookup" in cls.__dict__ and "_lookup_batch" not in cls.__dict__:
            cls._lookup_batch = OrderedIndex._lookup_batch

    # -- node identity -------------------------------------------------------

    def _next_node_id(self) -> int:
        """Deterministic serial id for a newly allocated node."""
        self._node_serial += 1
        return self._node_serial

    # -- required operations ---------------------------------------------------

    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        """Build the index from ``items`` sorted ascending by key.

        The one door every build comes through, in four steps:

        1. read the keys: ``batching.key_column(items)`` when the class
           builds from arrays and there are at least
           ``_array_build_min`` items (``None`` if ``batching`` does not
           admit them), else the key list;
        2. refuse a descent and, unless ``supports_duplicates``, equal
           neighbours: a ``ValueError`` that starts with the index's
           name — refused means before any state change, so nothing is
           charged, no node id drawn and the size stays as it was;
        3. ``_load(items, ks)`` builds, ``ks`` the column or ``None``;
        4. the size becomes ``len(items)`` and batch state is dropped.
        """
        threshold = self._array_build_min
        ks = (batching.key_column(items)
              if threshold is not None and len(items) >= threshold else None)
        strict = not self.supports_duplicates
        if not batching.ascending(
                batching.key_list(items) if ks is None else ks, strict):
            wording = ("strictly ascending unique keys" if strict
                       else "items sorted by key")
            raise ValueError(f"{self.name}: bulk_load requires {wording}")
        self._load(items, ks)
        self._size = len(items)
        self._invalidate_batch_cache()

    @abstractmethod
    def _load(self, items: Sequence[Tuple[Key, Value]],
              ks: Optional[Any]) -> None:
        """Build from admitted ``items`` (``ks``: their int64 key column,
        or ``None``); :meth:`bulk_load` checked them and sets the size."""

    @abstractmethod
    def lookup(self, key: Key) -> Optional[Value]:
        """Return the payload for ``key`` or ``None`` if absent."""

    @abstractmethod
    def insert(self, key: Key, value: Value) -> bool:
        """Insert ``key``.  Returns False if the key already exists
        (for indexes without duplicate support) and leaves it unchanged."""

    def update(self, key: Key, value: Value) -> bool:
        """Overwrite the payload of a present ``key`` in place.  Returns
        False if absent.  Every index implements its own; there is no
        default."""
        raise NotImplementedError

    def delete(self, key: Key) -> bool:
        """Remove ``key``.  Returns False if absent."""
        raise NotImplementedError(f"{self.name} does not support deletes")

    def range_scan(self, start: Key, count: int) -> List[Tuple[Key, Value]]:
        """Return up to ``count`` pairs with key >= ``start`` ascending."""
        raise NotImplementedError(f"{self.name} does not support range scans")

    # -- batch protocol --------------------------------------------------------
    #
    # The public ``*_many`` entry points are correct by construction: the
    # default loops the scalar ops, so every index supports batches
    # immediately, with identical results, ``last_op`` and meter charges.
    # Model-based indexes override the internal ``_lookup_batch`` hook
    # with a numpy fast path that returns the same observables (see
    # ``repro.indexes.batching``); the hook returns ``None`` whenever it
    # cannot guarantee exact parity and the loop fallback runs instead.

    def _lookup_batch(self, keys: Sequence[Key]) -> Optional["Any"]:
        """Vectorized lookup hook: a ``batching.BatchLookup`` with
        per-op values, charge log, and record factory — or ``None`` to
        take the scalar loop."""
        return None

    def _invalidate_batch_cache(self) -> None:
        """The one choke point for dropping batch state.

        Every mutation that can stale a ``_batch_cache`` — an index's
        own structural change, or a wrapper swapping/filling an inner
        index (see :class:`~repro.indexes.multiplex.MultiplexIndex`) —
        must route through here, never assign ``_batch_cache`` raw."""
        self._batch_cache = None

    def lookup_many(self, keys: Sequence[Key]) -> List[Optional[Value]]:
        """Batched :meth:`lookup` over ``keys``, in order.

        Observationally identical to calling ``lookup`` in a loop: same
        values, same cost-meter charges (including counter creation
        order), and ``last_op`` is the final key's record.
        """
        batch = self._lookup_batch(keys)
        if batch is not None:
            batch.log.apply_totals(self.meter)
            if len(keys):
                self.last_op = batch.make_record(len(keys) - 1)
            return batch.values
        return [self.lookup(key) for key in keys]

    def insert_many(self, pairs: Sequence[Tuple[Key, Value]]) -> List[bool]:
        """Batched :meth:`insert`; duplicate keys within one batch get
        the scalar semantics (later inserts see the earlier ones)."""
        return [self.insert(key, value) for key, value in pairs]

    # -- introspection ---------------------------------------------------------

    @abstractmethod
    def memory_usage(self) -> MemoryBreakdown:
        """Analytic end-to-end size (modelled C++ layout)."""

    def debug_validate(self) -> List["Violation"]:
        """Full structural-invariant walk; ``[]`` means sound.

        Every index in the registry overrides this with checks specific
        to its structure (gap copies for ALEX, precise positions for
        LIPP, ε-bounds for the PLA family, ...), returning
        :class:`~repro.core.validate.Violation` records rather than
        asserting.  Implementations must walk node structures directly
        — never through ``lookup``/``range_scan`` — so validation can
        run mid-benchmark without charging the cost meter.  The default
        checks only the size floor shared by all implementations.
        """
        from repro.core.validate import Violation

        if self._size < 0:
            return [Violation(0, "index.size-negative",
                              f"_size is {self._size}")]
        return []

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: Key) -> bool:
        return self.lookup(key) is not None

    def items(self) -> Iterable[Tuple[Key, Value]]:
        """All pairs in key order (used by tests; may be slow)."""
        if not self.supports_range:
            raise NotImplementedError
        out = self.range_scan(0, len(self))
        return out

    # -- helpers ---------------------------------------------------------------

    def _charge_tally(self, tally: Dict[str, int]) -> None:
        """Charge what a scalar loop counted.

        The charging convention of the hot loops: count units per kind
        in locals (``tally[kind] = tally.get(kind, 0) + n`` where the
        order of first touch varies), then charge each kind once — in
        the order the loop first met it, which is the dict's order and
        the order per-step charges would have created the counters in.
        """
        charge = self.meter.charge
        for kind, units in tally.items():
            charge(kind, units)


class lend:
    """``with lend(index, meter):`` — ``index`` charges ``meter`` for
    the block, then gets its own meter back.

    The one way a wrapper charges an inner index's work to a meter other
    than the index's own: a migration's backfill and verify reads of the
    primary land on the secondary's meter, a shard view's children on
    the view's.  Lends nest — a lent index that lends on to its own
    children passes the borrowed meter down — so each charge lands on
    exactly one meter.
    """

    __slots__ = ("index", "meter", "saved")

    def __init__(self, index: OrderedIndex, meter: CostMeter) -> None:
        self.index = index
        self.meter = meter

    def __enter__(self) -> None:
        self.saved = self.index.meter
        self.index.meter = self.meter

    def __exit__(self, *exc: Any) -> None:
        self.index.meter = self.saved
