"""The five benchmark workloads: inputs, fresh state, timed passes, checks.

Every workload is a closed loop with one client in one process and no
extra threads.  A workload object is driven by ``bench/run.py``::

    wl = make(name, seed, sizes)
    checked, failed, notes = wl.verify()      # round 0: untimed, oracle on
    for each timed round:
        setup_s = wl.prepare()                # keys, op streams, bulk loads
        result = wl.run(tracer_or_None)       # the timed pass

Each pass replays the same seeded stream on freshly built state, so
harness call i (a GRE cell, one server op, one batch call) is the same
work in every round; ``PassResult.latencies`` line up across rounds and
the runner keeps each call's best round.  Everything is timed from
outside, around calls into public functions.

Inputs: the key sets come from ``repro.datasets.registry`` with the
fixed ``DATASET_SEED`` (a dataset is a file, not a draw); ``--seed``
draws every op stream (see the README for the measurement behind that
split).
"""

from __future__ import annotations

import bisect
import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.events import EventBus
from repro.core.instance import AdmissionError, IndexInstance
from repro.core.opstream import DifferentialObserver
from repro.core.registry import REGISTRY
from repro.core.runner import ExecutionEngine
from repro.core.server import JOB_DONE, IndexServer
from repro.core.telemetry import Telemetry
from repro.core.validate import ValidationObserver
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
from repro.datasets import registry as datasets
from repro.datasets.zipfian import ScrambledZipfian

#: Panel P4: (metric-name part, registry name).
PANEL = (("alex", "ALEX"), ("lipp", "LIPP"), ("pgm", "PGM"), ("btree", "B+tree"))
GRE_DATASETS = ("covid", "osm")  # one easy, one hard
SERVE_DATASET = "covid"
#: Seed of every key set.  Two seeds of one dataset differ in hardness
#: (ALEX on osm: 20% in virtual ns per op), which would drown the
#: run-to-run spread the bounds in BENCHMARK.json are set against.
DATASET_SEED = 1

#: Sizes per scale.  ``full`` keeps the issue's structure (panel, datasets,
#: mixes, rebuild point, pump cadence, batch width) and its GRE key
#: counts; op counts are scaled so one round (set-up + timed pass) takes
#: about 3 s on the 2-core reference box and five or more rounds fit a
#: run, and the serving key counts with them, because a rebuild's cost
#: is linear in the tenant's keys, not in the stream.
SIZES: Dict[str, Dict[str, int]] = {
    "full": {
        "gre_read_keys": 100_000, "gre_read_ops": 8_000,
        "gre_write_keys": 100_000, "gre_write_ops": 8_000,
        "gre_observed_ops": 4_000,
        "serve_keys": 20_000, "serve_ops": 10_000,
        "batch_keys": 200_000, "batch_calls": 80,
        "probe_keys": 10_000, "probe_ops": 1_200, "probe_reps": 3,
    },
    "smoke": {
        "gre_read_keys": 2_000, "gre_read_ops": 400,
        "gre_write_keys": 2_000, "gre_write_ops": 400,
        "gre_observed_ops": 200,
        "serve_keys": 2_000, "serve_ops": 1_200,
        "batch_keys": 2_000, "batch_calls": 12,
        "probe_keys": 2_000, "probe_ops": 128, "probe_reps": 1,
    },
}

BATCH = 512          # keys per lookup_many / insert_many call
SCAN_GROUP = 16      # scans per batch_serve scan call
SCAN_LEN = 32
PUMP_EVERY = 4       # one pump_jobs(1) after every 4th client op
STAMP_EVERY = 250    # ops per timed piece of a GRE cell
REBUILD_AT = 0.30    # rebuild submitted at 30% of a tenant's stream

READ, WRITE, SCANS = "read", "write", "scan"
_CLASS = {LOOKUP: READ, SCAN: SCANS, INSERT: WRITE, UPDATE: WRITE, DELETE: WRITE}

pc = time.perf_counter


# ---------------------------------------------------------------------------
# Results and tracing
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    """What one timed pass over a workload's harness calls measured."""

    #: Seconds each harness call took.
    latencies: List[float]
    ops: int
    virtual_ns: float
    mem_bytes: int
    live_keys: int
    failed: int = 0
    #: Seconds of each ``pump_jobs(1)`` step and the call it followed
    #: (``serve_mixed`` only); the call after that one waited for it.
    pump_steps: List[float] = field(default_factory=list)
    pump_after: List[int] = field(default_factory=list)
    #: Exact counters (journal length, chunks pumped, ...).
    counts: Dict[str, int] = field(default_factory=dict)
    #: Which calls had a span recorded (all False in an untraced pass).
    traced: Sequence[bool] = ()

    def exact(self) -> tuple:
        """Everything that must repeat bit for bit between rounds."""
        return (self.ops, self.virtual_ns, self.mem_bytes, self.live_keys,
                sorted(self.counts.items()))


class Tracer:
    """In-memory span store for the traced run.

    A traced pass records spans for every other segment of calls, and
    the segments swap from one traced round to the next, so each pair of
    rounds measures every call once with and once without span recording
    (a crossover: the ratio of the two sums is the tracing overhead, free
    of drift between rounds and of differences between calls) and covers
    the whole stream.  A span is ``[name, start, end, parent, request]``;
    ``parent`` indexes the span list (-1 = root).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.round = 0

    def root(self, workload: str, start: float) -> int:
        self.spans.append([f"{workload}.round", start, start, -1,
                           f"{workload}/round{self.round}"])
        return len(self.spans) - 1

    def close(self, span: int, end: float) -> None:
        self.spans[span][2] = end


def _flags(n_calls: int, segment: int, tracer: Optional[Tracer]) -> List[bool]:
    """Per-call "record a span" flags (all False when untraced, so the
    timed loops are the same code in both modes)."""
    if tracer is None:
        return [False] * n_calls
    return [(i // segment + tracer.round) % 2 == 0 for i in range(n_calls)]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _items(keys: Sequence[int]) -> List[Tuple[int, int]]:
    return [(k, payload(k)) for k in keys]


def _halves(keys: Sequence[int], rng: random.Random) -> Tuple[List[int], List[int]]:
    """(sorted loaded half, shuffled not-yet-loaded half).  The split
    is fixed (every other key), so the bulk-loaded structure is the
    same for every seed; ``rng`` decides the order of arrival."""
    pending = list(keys[1::2])
    rng.shuffle(pending)
    return list(keys[0::2]), pending


def _digest(parts: Sequence[Any]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def _op_tuple(op: Operation) -> tuple:
    return (op.op, op.key, op.value, op.count)


class ReferenceModel:
    """Dict + sorted key list: the harness's own ground truth."""

    def __init__(self, items: Sequence[Tuple[int, Any]]) -> None:
        self.values = dict(items)
        self.keys = sorted(self.values)

    def lookup(self, key: int) -> Any:
        return self.values.get(key)

    def insert(self, key: int, value: Any) -> bool:
        if key in self.values:
            return False
        self.values[key] = value
        bisect.insort(self.keys, key)
        return True

    def scan(self, start: int, count: int) -> List[Tuple[int, Any]]:
        lo = bisect.bisect_left(self.keys, start)
        return [(k, self.values[k]) for k in self.keys[lo:lo + count]]

    def apply(self, op: Operation) -> Tuple[bool, Any]:
        """``IndexServer.apply``'s ``(ok, result)`` for ``op``."""
        kind = op.op
        if kind == LOOKUP:
            value = self.values.get(op.key)
            return value is not None, value
        if kind == INSERT:
            return self.insert(op.key, op.value), None
        if kind == UPDATE:
            if op.key not in self.values:
                return False, None
            self.values[op.key] = op.value
            return True, None
        if kind == DELETE:
            if op.key not in self.values:
                return False, None
            del self.values[op.key]
            self.keys.pop(bisect.bisect_left(self.keys, op.key))
            return True, None
        return True, self.scan(op.key, op.count)


def _mismatches(got: Sequence[Any], want: Sequence[Any]) -> int:
    """Outputs that differ from the reference model's, call by call."""
    return (abs(len(got) - len(want))
            + sum(1 for g, w in zip(got, want) if g != w))


class _Workload:
    """What the workload classes share: timed set-up."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Seconds and keys of the last round's ``Dataset.generate`` calls.
        self.generate_s = 0.0
        self.generated_keys = 0

    def _generate_keys(self, dataset: str, n: int) -> List[int]:
        """Keys from the dataset registry, really generated (memo dropped)."""
        datasets.generation_cache_clear()
        t0 = pc()
        keys = datasets.get(dataset).generate(n, seed=DATASET_SEED)
        self.generate_s += pc() - t0
        self.generated_keys += len(keys)
        return keys

    def prepare(self) -> float:
        """Build this round's inputs and fresh state; the seconds it took
        (key generation + stream generation + bulk loads)."""
        self.close()  # the previous round's state goes before the next is built
        t0 = pc()
        self.generate_s = 0.0
        self.generated_keys = 0
        self.make_inputs()
        self.build_state()
        return pc() - t0


# ---------------------------------------------------------------------------
# gre_read / gre_write / gre_observed: ExecutionEngine.run per cell
# ---------------------------------------------------------------------------

class _EndValidation(ValidationObserver):
    """Structural validation once, when the run is done.  The stock
    observer re-walks the whole index after every SMO, which at these
    sizes costs 15-50 s per cell; the differential observer still
    checks every op."""

    def on_phase(self, phase: str, index: Any, workload: Any) -> None:
        if phase == "done":
            super().on_phase(phase, index, workload)

    def on_smo(self, event: Any) -> None:
        pass


class _StampedOps(list):
    """A cell's op stream that notes the time each time the engine's loop
    has consumed another ``STAMP_EVERY`` ops.

    One ``engine.run`` takes 0.1-0.3 s, and on the shared box a call that
    long is rarely quiet from end to end in any round.  The stamps cut it
    into pieces of a few ms, each of which is quiet in some round, without
    an observer and without touching the engine: its loop still pulls one
    op at a time from ``workload.operations``.  The cost is one generator
    step per op (under 0.1 us beside 8-25 us).
    """

    def __init__(self, ops: Sequence[Operation]) -> None:
        super().__init__(ops)
        self.stamps: List[float] = []

    def __iter__(self):
        stamps = self.stamps
        for start in range(0, len(self), STAMP_EVERY):
            stamps.append(pc())
            yield from self[start:start + STAMP_EVERY]
        stamps.append(pc())


@dataclass
class _Cell:
    label: str
    reg_name: str
    items: List[Tuple[int, int]]
    ops: List[Operation]
    instance: Optional[IndexInstance] = None


class GreWorkload(_Workload):
    """P4 x {covid, osm} cells, each one ``ExecutionEngine.run`` call,
    timed in pieces: the call's start, every ``STAMP_EVERY`` ops of its
    loop, and its end."""

    def __init__(self, name: str, seed: int, sizes: Dict[str, int]) -> None:
        super().__init__(seed)
        self.name = name
        if name == "gre_read":
            self.n_keys, self.n_ops = sizes["gre_read_keys"], sizes["gre_read_ops"]
        else:
            self.n_keys = sizes["gre_write_keys"]
            self.n_ops = sizes["gre_write_ops" if name == "gre_write"
                               else "gre_observed_ops"]
        self.cells: List[_Cell] = []
        self._verified_ns: Dict[str, float] = {}

    # -- inputs and state -----------------------------------------------------

    def _stream(self, dataset: str, keys: List[int]
                ) -> Tuple[List[Tuple[int, int]], List[Operation]]:
        rng = random.Random(f"bench-gre-{dataset}-{self.seed}")
        if self.name == "gre_read":
            # Paper's Read-Only mix: everything loaded, uniform lookups.
            return _items(keys), [Operation(LOOKUP, k)
                                  for k in rng.choices(keys, k=self.n_ops)]
        # Paper's Balanced mix: half loaded, 50% inserts of the rest,
        # 50% lookups of keys present at that point.  gre_observed
        # replays a prefix of gre_write's stream (same rng, fewer ops).
        loaded, pending = _halves(keys, rng)
        present = list(loaded)
        ops: List[Operation] = []
        for _ in range(self.n_ops):
            if rng.random() < 0.5:
                k = pending[len(present) - len(loaded)]
                present.append(k)
                ops.append(Operation(INSERT, k, payload(k)))
            else:
                ops.append(Operation(LOOKUP, present[rng.randrange(len(present))]))
        return _items(loaded), ops

    def make_inputs(self) -> None:
        for dataset in GRE_DATASETS:
            items, ops = self._stream(dataset,
                                      self._generate_keys(dataset, self.n_keys))
            for short, reg_name in PANEL:
                self.cells.append(_Cell(f"{short}/{dataset}", reg_name, items, ops))

    def build_state(self) -> None:
        for cell in self.cells:
            cell.instance = IndexInstance(REGISTRY.create(cell.reg_name))
            cell.instance.bulk_load(cell.items)

    def close(self) -> None:
        self.cells = []

    def digest(self) -> str:
        seen = {}
        for cell in self.cells:  # the four indexes of a dataset share inputs
            seen[id(cell.ops)] = (cell.items, [_op_tuple(op) for op in cell.ops])
        return _digest(list(seen.values()))

    def call_classes(self) -> List[Optional[str]]:
        """No latency classes: the engine owns the per-op loop."""
        return []

    def _engine(self) -> ExecutionEngine:
        if self.name == "gre_observed":
            return ExecutionEngine(telemetry=Telemetry.full(), bus=EventBus())
        return ExecutionEngine()

    # -- round 0 ---------------------------------------------------------------

    def verify(self) -> Tuple[int, int, List[str]]:
        """The full workload on LOADING instances (so the oracle sees
        ``bulk_items``, as ``run_oracle`` does) with the differential
        and validation observers attached."""
        self.close()
        self.make_inputs()
        failed = 0
        notes: List[str] = []
        for cell in self.cells:
            differ = DifferentialObserver()
            validator = _EndValidation()
            engine = ExecutionEngine(observers=[differ, validator])
            result = engine.run(IndexInstance(REGISTRY.create(cell.reg_name)),
                                Workload(self.name, cell.items, cell.ops))
            self._verified_ns[cell.label] = result.virtual_ns
            found = differ.mismatches + validator.violations
            failed += len(found)
            notes += [f"{cell.label}: {m}" for m in found[:3]]
        return len(self.cells) * self.n_ops, failed, notes

    # -- the timed pass --------------------------------------------------------

    def run(self, tracer: Optional[Tracer] = None) -> PassResult:
        latencies: List[float] = []
        traced: List[bool] = []
        virtual_ns = 0.0
        mem = keys = failed = 0
        root = tracer.root(self.name, pc()) if tracer else -1
        flags = _flags(len(self.cells), 1, tracer)
        for cell, flag in zip(self.cells, flags):
            engine = self._engine()
            ops = _StampedOps(cell.ops)
            workload = Workload(self.name, [], ops)
            t0 = pc()
            result = engine.run(cell.instance, workload)
            t1 = pc()
            if flag:
                tracer.spans.append(
                    ["core.runner.run", t0, t1, root,
                     f"{self.name}/{cell.label}/round{tracer.round}"])
            # The pieces add up to the call whatever the engine does
            # with the stream, and are the same pieces in every round.
            stamps = [t0, *ops.stamps, t1]
            latencies += [b - a for a, b in zip(stamps, stamps[1:])]
            traced += [flag] * (len(stamps) - 1)
            virtual_ns += result.virtual_ns
            mem += result.memory.total
            keys += len(cell.instance.index)
            # Observers never charge the meter, so an unobserved replay
            # must land on round 0's virtual clock exactly.
            if result.virtual_ns != self._verified_ns[cell.label]:
                failed += 1
        if tracer:
            tracer.close(root, pc())
        return PassResult(latencies=latencies, ops=self.n_ops * len(self.cells),
                          virtual_ns=virtual_ns, mem_bytes=mem, live_keys=keys,
                          failed=failed, traced=traced)


# ---------------------------------------------------------------------------
# serve_mixed: IndexServer.apply per op, a rebuild pumped alongside
# ---------------------------------------------------------------------------

SERVE_TENANTS = (("alex", "ALEX"), ("btree", "B+tree"))
_REFUSED = ("refused", None)


class _ServerWorkload(_Workload):
    """Tenants of one ``IndexServer(workers=0)``, loaded with the same items."""

    tenants: Tuple[Tuple[str, str], ...] = ()

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.items: List[Tuple[int, int]] = []
        self.calls: list = []
        self.server: Optional[IndexServer] = None
        #: The reference model's output for every call (set by round 0).
        self._expected: list = []

    def build_state(self) -> None:
        self.server = IndexServer(workers=0)
        for tenant, reg_name in self.tenants:
            self.server.create_instance(tenant, reg_name, items=self.items)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


class ServeMixedWorkload(_ServerWorkload):
    """Scalar serving path with a background rebuild per tenant.

    Both tenants' streams are interleaved op by op through one
    ``IndexServer(workers=0)``.  Each tenant's rebuild is submitted at
    30% of its stream; from then on the harness issues one
    ``pump_jobs(1)`` after every 4th client op until every job is done,
    and charges that step's time to the next client op, which on a
    threaded server would have waited on the write lock.
    """

    name = "serve_mixed"
    segment = 500
    tenants = SERVE_TENANTS

    def __init__(self, seed: int, sizes: Dict[str, int]) -> None:
        super().__init__(seed)
        self.n_keys, self.n_ops = sizes["serve_keys"], sizes["serve_ops"]

    def _stream(self, number: int, tenant: str, loaded: List[int],
                pending: List[int]) -> List[Operation]:
        # Which op comes when, and every key that changes the structure
        # (inserts, deletes), is the same for every seed: ALEX's rebuild
        # is chaotic in them (one other insert order moves its virtual
        # cost by +-13% and its memory by +-10%).  The seed draws the
        # keys looked up, scanned and updated, and the scan lengths.
        shape = random.Random(f"bench-serve-shape-{tenant}")
        rng = random.Random(f"bench-serve-{tenant}-{self.seed}")
        hot = ScrambledZipfian(loaded, theta=0.99,
                               seed=self.seed * len(SERVE_TENANTS) + number)
        mine: List[int] = []
        next_pending = 0
        ops: List[Operation] = []
        for _ in range(self.n_ops):
            r = shape.random()
            if r < 0.20 and next_pending < len(pending):
                k = pending[next_pending]
                next_pending += 1
                mine.append(k)
                ops.append(Operation(INSERT, k, payload(k)))
            elif r < 0.30:
                k = hot.next_key()
                ops.append(Operation(UPDATE, k, payload(k) ^ 0x5A5A))
            elif r < 0.35 and mine:
                ops.append(Operation(DELETE, mine.pop(shape.randrange(len(mine)))))
            elif r < 0.45:
                ops.append(Operation(SCAN, hot.next_key(),
                                     count=rng.randint(1, 64)))
            else:
                ops.append(Operation(LOOKUP, hot.next_key()))
        return ops

    def make_inputs(self) -> None:
        keys = self._generate_keys(SERVE_DATASET, self.n_keys)
        loaded, pending = _halves(keys, random.Random("bench-serve-shape"))
        self.items = _items(loaded)
        streams = [(t, self._stream(i, t, loaded, pending))
                   for i, (t, _) in enumerate(SERVE_TENANTS)]
        self.calls = [(t, ops[i]) for i in range(self.n_ops) for t, ops in streams]

    def digest(self) -> str:
        return _digest([self.items,
                        [(t, _op_tuple(op)) for t, op in self.calls]])

    def call_classes(self) -> List[Optional[str]]:
        return [_CLASS[op.op] for _, op in self.calls]

    def verify(self) -> Tuple[int, int, List[str]]:
        self.prepare()
        models = {t: ReferenceModel(self.items) for t, _ in SERVE_TENANTS}
        self._expected = [models[t].apply(op) for t, op in self.calls]
        result = self.run()
        failed = result.failed
        notes: List[str] = []
        server = self.server
        for tenant, _ in SERVE_TENANTS:
            replay = server.replay_check(tenant)
            status = server.status(tenant)
            refused = (sum(status["server"]["dropped"].values())
                       + sum(status["rejected"].values()))
            jobs = [j["state"] for j in status["jobs"]]
            if replay or refused or jobs != [JOB_DONE]:
                failed += len(replay) + refused + (jobs != [JOB_DONE])
                notes.append(f"{tenant}: replay={replay[:2]} refused={refused} "
                             f"jobs={jobs}")
        return result.ops, failed, notes

    def run(self, tracer: Optional[Tracer] = None) -> PassResult:
        server = self.server
        apply = server.apply
        calls = self.calls
        n = len(calls)
        flags = _flags(n, self.segment, tracer)
        spans = tracer.spans if tracer else []
        requests = {t: f"{self.name}/{t}/round{tracer.round if tracer else 0}"
                    for t, _ in SERVE_TENANTS}
        originals = {t: server.instance(t).index for t, _ in SERVE_TENANTS}
        start_ns = {t: idx.meter.total_time() for t, idx in originals.items()}
        submit_at = {len(SERVE_TENANTS) * int(self.n_ops * REBUILD_AT) + j: t
                     for j, (t, _) in enumerate(SERVE_TENANTS)}
        jobs: list = []
        pumping = False
        latencies: List[float] = []
        outs: List[Tuple[bool, Any]] = []
        pump_steps: List[float] = []
        pump_after: List[int] = []
        failed = 0
        root = tracer.root(self.name, pc()) if tracer else -1
        for i, (tenant, op) in enumerate(calls):
            t0 = pc()
            try:
                out = apply(tenant, op)
            except AdmissionError:
                out = _REFUSED
                failed += 1
            t1 = pc()
            latencies.append(t1 - t0)
            outs.append(out)
            if flags[i]:
                spans.append(["core.server.apply", t0, t1, root, requests[tenant]])
            if i in submit_at:
                jobs.append(server.rebuild(submit_at[i]))
                pumping = True
            if pumping and i % PUMP_EVERY == PUMP_EVERY - 1:
                t2 = pc()
                server.pump_jobs(1)
                t3 = pc()
                pump_steps.append(t3 - t2)
                pump_after.append(i)
                if flags[i]:
                    spans.append(["core.server.pump_jobs", t2, t3, root,
                                  requests[tenant]])
                pumping = not all(job.finished for job in jobs)
        if tracer:
            tracer.close(root, pc())
        server.drain()  # no-op once every job is done; never timed

        failed += _mismatches(outs, self._expected)
        virtual_ns = 0.0
        mem = live = 0
        for tenant, original in originals.items():
            current = server.instance(tenant).index
            virtual_ns += original.meter.total_time() - start_ns[tenant]
            if current.meter is not original.meter:
                # After cutover the tenant runs on the rebuilt index,
                # whose meter also carries the migration's own work.
                virtual_ns += current.meter.total_time()
            mem += current.memory_usage().total
            live += len(current)
        return PassResult(
            latencies=latencies, ops=n, virtual_ns=virtual_ns, mem_bytes=mem,
            live_keys=live, failed=failed, pump_steps=pump_steps,
            pump_after=pump_after,
            counts={"journal_len": len(server.journal()),
                    "chunks_pumped": sum(j.chunks_pumped for j in jobs),
                    "stalled_ops": len(pump_steps),
                    "jobs_done": sum(j.state == JOB_DONE for j in jobs)},
            traced=flags)


# ---------------------------------------------------------------------------
# batch_serve: lookup_many / insert_many / scan groups
# ---------------------------------------------------------------------------

BATCH_TENANTS = (("alex", "ALEX"), ("pgm", "PGM"), ("btree", "B+tree"))
_CALL_CLASS = {"lookup_many": READ, "insert_many": WRITE, "scan": SCANS}


class BatchServeWorkload(_ServerWorkload):
    """512-key batches through the server, three tenants interleaved."""

    name = "batch_serve"
    segment = 10
    tenants = BATCH_TENANTS

    def __init__(self, seed: int, sizes: Dict[str, int]) -> None:
        super().__init__(seed)
        self.n_keys, self.n_calls = sizes["batch_keys"], sizes["batch_calls"]

    def _calls(self, tenant: str, loaded: List[int],
               pending: List[int]) -> List[Tuple[str, list]]:
        rng = random.Random(f"bench-batch-{tenant}-{self.seed}")
        # Exact shares (25% insert batches, 10% scan groups, 65% lookup
        # batches) in an order that is the same for every seed: where
        # the insert batches fall decides how many PGM levels the
        # lookups after them probe (+-13% in virtual ns per op between
        # orders).  The seed draws every key.
        n_insert = min(self.n_calls // 4, len(pending) // BATCH)
        n_scan = self.n_calls // 10
        kinds = (["insert_many"] * n_insert + ["scan"] * n_scan
                 + ["lookup_many"] * (self.n_calls - n_insert - n_scan))
        random.Random(f"bench-batch-shape-{tenant}").shuffle(kinds)
        present = list(loaded)
        next_pending = 0
        calls: List[Tuple[str, list]] = []
        for kind in kinds:
            if kind == "insert_many":
                fresh = pending[next_pending:next_pending + BATCH]
                next_pending += BATCH
                present.extend(fresh)
                calls.append((kind, _items(fresh)))
            elif kind == "scan":
                calls.append((kind, rng.choices(present, k=SCAN_GROUP)))
            else:
                calls.append((kind, rng.choices(present, k=BATCH)))
        return calls

    def make_inputs(self) -> None:
        keys = self._generate_keys(SERVE_DATASET, self.n_keys)
        loaded, pending = _halves(keys, random.Random(f"bench-batch-{self.seed}"))
        self.items = _items(loaded)
        streams = [(t, self._calls(t, loaded, pending)) for t, _ in BATCH_TENANTS]
        self.calls = [(t, *calls[i]) for i in range(self.n_calls)
                      for t, calls in streams]

    def digest(self) -> str:
        return _digest([self.items, self.calls])

    def call_classes(self) -> List[Optional[str]]:
        return [_CALL_CLASS[kind] for _, kind, _ in self.calls]

    def _model_outputs(self) -> List[Any]:
        models = {t: ReferenceModel(self.items) for t, _ in BATCH_TENANTS}
        outs: List[Any] = []
        for tenant, kind, arg in self.calls:
            model = models[tenant]
            if kind == "lookup_many":
                outs.append([model.lookup(k) for k in arg])
            elif kind == "insert_many":
                outs.append([model.insert(k, v) for k, v in arg])
            else:
                outs.append([model.scan(k, SCAN_LEN) for k in arg])
        return outs

    def verify(self) -> Tuple[int, int, List[str]]:
        self.prepare()
        self._expected = self._model_outputs()
        result = self.run()
        notes = ([f"{result.failed} outputs differ from the dict model"]
                 if result.failed else [])
        return result.ops, result.failed, notes

    def run(self, tracer: Optional[Tracer] = None) -> PassResult:
        server = self.server
        lookup_many, insert_many, scan = (server.lookup_many, server.insert_many,
                                          server.scan)
        calls = self.calls
        flags = _flags(len(calls), self.segment, tracer)
        spans = tracer.spans if tracer else []
        rnd = tracer.round if tracer else 0
        indexes = {t: server.instance(t).index for t, _ in BATCH_TENANTS}
        start_ns = {t: idx.meter.total_time() for t, idx in indexes.items()}
        latencies: List[float] = []
        outs: List[Any] = []
        failed = 0
        root = tracer.root(self.name, pc()) if tracer else -1
        for i, (tenant, kind, arg) in enumerate(calls):
            t0 = pc()
            try:
                if kind == "lookup_many":
                    out = lookup_many(tenant, arg)
                elif kind == "insert_many":
                    out = insert_many(tenant, arg)
                else:
                    out = [scan(tenant, k, SCAN_LEN) for k in arg]
            except AdmissionError:
                out = _REFUSED
                failed += len(arg)
            t1 = pc()
            latencies.append(t1 - t0)
            outs.append(out)
            if flags[i]:
                spans.append([f"core.server.{kind}", t0, t1, root,
                              f"{self.name}/{tenant}/round{rnd}"])
        if tracer:
            tracer.close(root, pc())

        failed += _mismatches(outs, self._expected)
        return PassResult(
            latencies=latencies, ops=sum(len(arg) for _, _, arg in calls),
            virtual_ns=sum(idx.meter.total_time() - start_ns[t]
                           for t, idx in indexes.items()),
            mem_bytes=sum(idx.memory_usage().total for idx in indexes.values()),
            live_keys=sum(len(idx) for idx in indexes.values()),
            failed=failed, counts={"journal_len": len(server.journal())},
            traced=flags)


# ---------------------------------------------------------------------------

def make(name: str, seed: int, sizes: Dict[str, int]):
    if name in ("gre_read", "gre_write", "gre_observed"):
        return GreWorkload(name, seed, sizes)
    if name == "serve_mixed":
        return ServeMixedWorkload(seed, sizes)
    if name == "batch_serve":
        return BatchServeWorkload(seed, sizes)
    raise KeyError(f"unknown workload {name!r}")
