"""Recorded operation streams, the differential oracle, and the fuzzer.

An :class:`OpStream` is the unit of reproducibility for correctness
testing: a bulk-load key set plus an explicit operation list, small
enough to commit to the repository and deterministic enough to replay
bit-for-bit.  Three layers build on it:

* **Record/replay** — streams serialize to versioned JSON-lines via the
  results artifact layer (:mod:`repro.core.results`), so a failing
  fuzz run becomes a file under ``tests/corpus/`` that the test suite
  replays forever after.
* **Differential oracle** — :func:`run_oracle` executes a stream
  against an index *and* a trivially-correct reference model (a dict
  plus a sorted key list), comparing every lookup payload, write
  outcome and scan result via the engine's :class:`OpEvent.result`
  hook, while a :class:`~repro.core.validate.ValidationObserver`
  re-checks structural invariants after every SMO; then it replays the
  stream *unobserved* and requires the same measurements
  (:func:`run_profile`), so the engine's default loop is fuzzed too.
* **Fuzzing** — :func:`fuzz_index` generates seeded random streams
  shaped by an index's registered capabilities, and
  :func:`shrink_stream` reduces any failure to a minimal stream by
  greedy chunk deletion (ddmin-style) over the op list and the bulk
  keys.

The oracle treats the reference model as ground truth: when outcomes
diverge, the model keeps its own state so one wrong answer surfaces as
one mismatch instead of corrupting every comparison after it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.instance import IndexInstance
from repro.core.registry import REGISTRY, IndexSpec
from repro.core.results import load_jsonl, save_jsonl
from repro.core.runner import ExecutionEngine, RunResult
from repro.core.validate import TimedViolation, ValidationObserver
from repro.core.workloads import (
    DELETE,
    INSERT,
    LOOKUP,
    SCAN,
    UPDATE,
    Operation,
    Workload,
    payload,
)
from repro.indexes.batching import check_domain

#: Format tag stamped into every stream header record.
STREAM_FORMAT = "opstream-1"
#: ``generate_stream`` draws every key from ``[1, STREAM_KEY_SPACE)``.
STREAM_KEY_SPACE = 1 << 40


# ---------------------------------------------------------------------------
# The stream
# ---------------------------------------------------------------------------

@dataclass
class OpStream:
    """A replayable correctness scenario: bulk keys + operation list."""

    index_name: str
    seed: int
    bulk_keys: List[int]
    ops: List[Operation]
    name: str = ""

    def __post_init__(self) -> None:
        self.bulk_keys = sorted(set(self.bulk_keys))
        # A door of the key domain: built or loaded, refused before it runs.
        check_domain(f"OpStream {self.label!r}",
                     [*self.bulk_keys, *(op.key for op in self.ops)])

    @property
    def label(self) -> str:
        return self.name or f"{self.index_name}-seed{self.seed}"

    def to_workload(self) -> Workload:
        """The stream as an engine-runnable workload.

        Bulk payloads are :func:`~repro.core.workloads.payload`\\ (key),
        the same derivation the generator uses, so a stream file only
        needs to store keys for the bulk set.
        """
        return Workload(
            name=self.label,
            bulk_items=[(k, payload(k)) for k in self.bulk_keys],
            operations=list(self.ops),
        )

    # -- persistence ---------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the stream as versioned JSON-lines (header + one
        record per operation)."""
        header = {
            "kind": "opstream-header",
            "format": STREAM_FORMAT,
            "index": self.index_name,
            "seed": self.seed,
            "name": self.name,
            "bulk_keys": list(self.bulk_keys),
        }
        ops = [
            {"kind": "op", "op": op.op, "key": op.key,
             "value": op.value, "count": op.count}
            for op in self.ops
        ]
        save_jsonl([header, *ops], path)

    @classmethod
    def load(cls, path: str) -> "OpStream":
        """Load a stream saved by :meth:`save`.

        Raises ``ValueError`` on a missing/foreign file; newer
        ``schema_version`` records are rejected by the results layer.
        """
        records = load_jsonl(path)
        if not records or records[0].get("kind") != "opstream-header":
            raise ValueError(f"{path!r} is not an opstream file")
        header = records[0]
        if header.get("format") != STREAM_FORMAT:
            raise ValueError(
                f"{path!r}: unsupported stream format {header.get('format')!r}")
        ops = [
            Operation(r["op"], r["key"], r.get("value"), r.get("count", 0))
            for r in records[1:]
            if r.get("kind") == "op"
        ]
        return cls(
            index_name=header["index"],
            seed=header.get("seed", 0),
            bulk_keys=list(header.get("bulk_keys", [])),
            ops=ops,
            name=header.get("name", ""),
        )


# ---------------------------------------------------------------------------
# Differential oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mismatch:
    """One divergence between the index and the reference model."""

    seq: int
    op: str
    key: int
    expected: str
    got: str

    def __str__(self) -> str:
        return (f"op #{self.seq} {self.op}({self.key}): "
                f"expected {self.expected}, got {self.got}")


class DifferentialObserver:
    """Engine observer comparing every op against a reference model.

    The model is a dict plus a sorted key list — slow and obviously
    correct.  It consumes :class:`~repro.core.runner.OpEvent.result`,
    so payload-level lookup bugs and wrong scan rows are caught, not
    just hit/miss flags.  The model advances by *its own* semantics, so
    a single divergence yields a single mismatch.
    """

    def __init__(self, limit: int = 50) -> None:
        self.limit = limit
        self.mismatches: List[Mismatch] = []
        self._model: Dict[int, Any] = {}
        self._keys: List[int] = []

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def _flag(self, event: Any, expected: str, got: str) -> None:
        if len(self.mismatches) >= self.limit:
            return
        self.mismatches.append(Mismatch(
            seq=event.seq, op=event.op.op, key=event.op.key,
            expected=expected, got=got))

    # -- ExecutionObserver protocol -----------------------------------------

    def on_phase(self, phase: str, index: Any, workload: Any) -> None:
        if phase == "measure":
            self._model = dict(workload.bulk_items)
            self._keys = sorted(self._model)

    def on_op(self, event: Any, latency: Optional[float]) -> None:
        import bisect

        op = event.op
        kind = op.op
        model, keys = self._model, self._keys
        if kind == LOOKUP:
            expected = model.get(op.key)
            if event.result != expected:
                self._flag(event, repr(expected), repr(event.result))
        elif kind == INSERT:
            should = op.key not in model
            if bool(event.ok) != should:
                self._flag(event, f"insert ok={should}", f"ok={event.ok}")
            if should:
                model[op.key] = op.value
                bisect.insort(keys, op.key)
        elif kind == UPDATE:
            should = op.key in model
            if bool(event.ok) != should:
                self._flag(event, f"update ok={should}", f"ok={event.ok}")
            if should:
                model[op.key] = op.value
        elif kind == DELETE:
            should = op.key in model
            if bool(event.ok) != should:
                self._flag(event, f"delete ok={should}", f"ok={event.ok}")
            if should:
                del model[op.key]
                keys.pop(bisect.bisect_left(keys, op.key))
        elif kind == SCAN:
            lo = bisect.bisect_left(keys, op.key)
            want = [(k, model[k]) for k in keys[lo:lo + op.count]]
            got = [tuple(row) for row in (event.result or [])]
            if got != want:
                self._flag(
                    event,
                    f"{len(want)} rows from {want[0][0] if want else '-'}",
                    f"{len(got)} rows"
                    + ("" if got == want[:len(got)] else " (content differs)"),
                )


@dataclass
class OracleReport:
    """Everything one oracle run found."""

    stream: OpStream
    violations: List[TimedViolation] = field(default_factory=list)
    mismatches: List[Mismatch] = field(default_factory=list)
    crash: Optional[str] = None
    #: What the unobserved replay left behind differently from the
    #: observed one (keys of :func:`run_profile`); empty when equal.
    divergence: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.violations or self.mismatches or self.crash
                    or self.divergence)

    @property
    def failure_kind(self) -> Optional[str]:
        if self.crash:
            return "crash"
        if self.violations:
            return "violation"
        if self.mismatches:
            return "mismatch"
        if self.divergence:
            return "divergence"
        return None

    def describe(self, limit: int = 5) -> str:
        if self.ok:
            return (f"{self.stream.label}: ok "
                    f"({len(self.stream.ops)} ops, "
                    f"{len(self.stream.bulk_keys)} bulk keys)")
        lines = [f"{self.stream.label}: FAIL ({self.failure_kind}, "
                 f"{len(self.stream.ops)} ops, "
                 f"{len(self.stream.bulk_keys)} bulk keys)"]
        if self.crash:
            lines.append(f"  crash: {self.crash}")
        if self.divergence:
            lines.append("  unobserved run differs from the observed one in: "
                         + ", ".join(self.divergence))
        lines += [f"  {v}" for v in self.violations[:limit]]
        lines += [f"  {m}" for m in self.mismatches[:limit]]
        hidden = (len(self.violations) + len(self.mismatches)) - 2 * limit
        if hidden > 0:
            lines.append(f"  ... and more")
        return "\n".join(lines)


def run_oracle(
    factory: Callable[[], Any],
    stream: OpStream,
    limit: int = 50,
) -> OracleReport:
    """Replay ``stream`` on ``factory()`` under full instrumentation.

    Structural invariants are re-validated after bulk load, after every
    SMO, and at end of run, and once more on the unobserved replay's
    index (the one whose lookups took the batch path); every op outcome
    is differenced against the reference model.  An exception anywhere
    in the run is captured as a crash failure rather than propagated —
    a fuzzer input that raises is a finding, not a test-harness error.
    """
    validator = ValidationObserver(limit=limit)
    differ = DifferentialObserver(limit=limit)
    engine = ExecutionEngine(observers=[validator, differ])
    report = OracleReport(stream=stream)
    try:
        # Route through the instance layer like every other run: the
        # engine gates the bulk load on its state, and a crash leaves
        # the instance inspectable.
        watched = IndexInstance.wrap(factory())
        observed = engine.run(watched, stream.to_workload())
        # Observers select the engine's per-op loop.  The loop of a run
        # nobody watches (lookup runs by blocks, hooks fed in line) must
        # leave the same measurements behind.
        alone = IndexInstance.wrap(factory())
        unobserved = ExecutionEngine().run(alone, stream.to_workload())
        # Only that run's lookups took the batch path, so only its index
        # holds batch state (a cached layout): validate it at its end too.
        validator.on_phase("done", alone.index, None)
        seen, unseen = run_profile(observed, watched), run_profile(unobserved, alone)
        report.divergence = [k for k in seen if seen[k] != unseen[k]]
    except Exception as exc:  # noqa: BLE001 — crashes are findings
        report.crash = f"{type(exc).__name__}: {exc}"
    report.violations = list(validator.violations)
    report.mismatches = list(differ.mismatches)
    return report


def run_profile(result: RunResult, instance: IndexInstance) -> Dict[str, Any]:
    """Every deterministic measurement one engine run leaves behind —
    what two runs of one stream must agree on whichever loop the engine
    took: the result document (scanned entries among it), the full
    latency summaries and Table-3 sums, the meter's counters in
    insertion order (the clock sums them in it)."""
    document = result.to_dict()
    del document["wall_seconds"]
    return {
        "result": document,
        "latency": (result.lookup_latency, result.write_latency),
        "insert_stats": result.insert_stats,
        "meter": list(instance.index.meter._counts.items()),
    }


# ---------------------------------------------------------------------------
# Stream generation
# ---------------------------------------------------------------------------

#: Small-node configurations so a few hundred ops cross many SMO
#: boundaries (split/expand/retrain/compact), keyed by registry name.
#: Fuzzing a production-sized node layout would need millions of ops to
#: exercise the same code paths.
STRESS_FACTORIES: Dict[str, Callable[[], Any]] = {
    "ALEX": lambda: REGISTRY.create("ALEX", target_leaf_keys=64, max_data_keys=512),
    "PGM": lambda: REGISTRY.create("PGM", check_duplicates=True, buffer_size=32),
    "XIndex": lambda: REGISTRY.create("XIndex", delta_size=16, target_group_keys=64),
    "FINEdex": lambda: REGISTRY.create("FINEdex", bin_capacity=4),
    "FITing-Tree": lambda: REGISTRY.create("FITing-Tree", buffer_size=4),
    "B+tree": lambda: REGISTRY.create("B+tree", fanout=8),
}


def stress_factory(name: str) -> Callable[[], Any]:
    """The SMO-dense factory for ``name`` (registry default otherwise)."""
    if name in STRESS_FACTORIES:
        return STRESS_FACTORIES[name]
    return REGISTRY.get(name).factory


def fuzzable_specs() -> List[IndexSpec]:
    """Registry specs the fuzzer can drive (needs a working insert)."""
    return [spec for spec in REGISTRY if spec.supports_insert]


def generate_stream(
    spec: IndexSpec,
    seed: int,
    n_ops: int = 500,
    n_bulk: int = 256,
) -> OpStream:
    """A seeded random stream shaped by ``spec``'s capabilities.

    Deletes/scans are only emitted when the spec supports them; inserts
    draw fresh keys with occasional duplicate-insert attempts to
    exercise the reject path; lookups and deletes mix present and
    absent keys.  Identical ``(spec.name, seed, sizes)`` always produce
    the identical stream.
    """
    rng = random.Random(f"opstream-{spec.name}-{seed}-{n_ops}-{n_bulk}")
    present = set()
    while len(present) < n_bulk:
        present.add(rng.randrange(1, STREAM_KEY_SPACE))
    bulk = sorted(present)

    def fresh_key() -> int:
        while True:
            k = rng.randrange(1, STREAM_KEY_SPACE)
            if k not in present:
                return k

    def any_key() -> int:
        # Mostly keys that exist; sometimes a random (usually absent) one.
        if present and rng.random() < 0.8:
            return rng.choice(tuple(present))
        return rng.randrange(1, STREAM_KEY_SPACE)

    p_insert = 0.35
    p_delete = 0.15 if spec.supports_delete else 0.0
    p_update = 0.10
    p_scan = 0.10 if spec.supports_range else 0.0
    ops: List[Operation] = []
    for _ in range(n_ops):
        r = rng.random()
        if r < p_insert:
            if rng.random() < 0.1 and present:  # duplicate-insert attempt
                k = rng.choice(tuple(present))
                ops.append(Operation(INSERT, k, payload(k)))
            else:
                k = fresh_key()
                present.add(k)
                ops.append(Operation(INSERT, k, payload(k)))
        elif r < p_insert + p_delete:
            k = any_key()
            present.discard(k)
            ops.append(Operation(DELETE, k))
        elif r < p_insert + p_delete + p_update:
            k = any_key()
            ops.append(Operation(UPDATE, k, payload(k) ^ 0x5A5A5A5A))
        elif r < p_insert + p_delete + p_update + p_scan:
            ops.append(Operation(SCAN, any_key(), count=rng.randint(1, 48)))
        else:
            ops.append(Operation(LOOKUP, any_key()))
    return OpStream(index_name=spec.name, seed=seed, bulk_keys=bulk, ops=ops)


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------

def shrink_stream(
    factory: Callable[[], Any],
    stream: OpStream,
    max_runs: int = 400,
) -> OpStream:
    """Greedy ddmin-style reduction of a failing stream.

    Repeatedly deletes chunks (halving the chunk size) from the op
    list, then from the bulk key set, keeping any candidate that still
    fails the oracle.  Bounded by ``max_runs`` oracle replays so a
    pathological input cannot stall the fuzzer.  If ``stream`` does not
    actually fail, it is returned unchanged.
    """
    runs = 0

    def fails(candidate: OpStream) -> bool:
        nonlocal runs
        if runs >= max_runs:
            return False
        runs += 1
        return not run_oracle(factory, candidate).ok

    if not fails(stream):
        return stream

    def rebuild(bulk: List[int], ops: List[Operation]) -> OpStream:
        return OpStream(index_name=stream.index_name, seed=stream.seed,
                        bulk_keys=list(bulk), ops=list(ops),
                        name=stream.name)

    bulk, ops = list(stream.bulk_keys), list(stream.ops)

    def reduce(items: List, make: Callable[[List], OpStream]) -> List:
        chunk = max(len(items) // 2, 1)
        while chunk >= 1:
            i = 0
            while i < len(items) and runs < max_runs:
                candidate = items[:i] + items[i + chunk:]
                if candidate != items and fails(make(candidate)):
                    items = candidate
                else:
                    i += chunk
            if chunk == 1:
                break
            chunk //= 2
        return items

    ops = reduce(ops, lambda o: rebuild(bulk, o))
    bulk = reduce(bulk, lambda b: rebuild(b, ops))
    return rebuild(bulk, ops)


# ---------------------------------------------------------------------------
# The fuzzer
# ---------------------------------------------------------------------------

@dataclass
class FuzzFailure:
    """A reproduced failure: the shrunk stream plus its oracle report."""

    index_name: str
    stream: OpStream
    report: OracleReport
    original_ops: int

    def describe(self) -> str:
        return (f"{self.index_name}: shrunk {self.original_ops} ops -> "
                f"{len(self.stream.ops)} ops / "
                f"{len(self.stream.bulk_keys)} bulk keys\n"
                + self.report.describe())


def fuzz_index(
    spec: IndexSpec,
    budget: int = 2000,
    seed: int = 0,
    factory: Optional[Callable[[], Any]] = None,
    round_ops: int = 500,
) -> Optional[FuzzFailure]:
    """Fuzz one index for ``budget`` total operations.

    The budget splits into rounds of ``round_ops`` operations, each a
    fresh seeded stream with a varied bulk size (SMO behaviour differs
    sharply between a near-empty and a well-filled structure).  The
    first failing round is shrunk and returned; ``None`` means the
    budget ran clean.
    """
    factory = factory or stress_factory(spec.name)
    bulk_sizes = (256, 16, 512)
    spent = 0
    round_no = 0
    while spent < budget:
        n_ops = min(round_ops, budget - spent)
        stream = generate_stream(
            spec,
            seed=seed * 10_000 + round_no,
            n_ops=n_ops,
            n_bulk=bulk_sizes[round_no % len(bulk_sizes)],
        )
        report = run_oracle(factory, stream)
        if not report.ok:
            shrunk = shrink_stream(factory, stream)
            return FuzzFailure(
                index_name=spec.name,
                stream=shrunk,
                report=run_oracle(factory, shrunk),
                original_ops=len(stream.ops),
            )
        spent += n_ops
        round_no += 1
    return None


# ---------------------------------------------------------------------------
# Corpus replay
# ---------------------------------------------------------------------------

def replay_file(path: str) -> OracleReport:
    """Replay one saved stream under the full oracle.

    The factory is resolved from the stream's recorded index name via
    :func:`stress_factory`, so corpus files exercise the same small-node
    configurations the fuzzer found them with.
    """
    stream = OpStream.load(path)
    return run_oracle(stress_factory(stream.index_name), stream)
