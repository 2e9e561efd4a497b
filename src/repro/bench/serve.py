"""``repro serve``: N clients + a background rebuild on one
:class:`~repro.core.server.IndexServer`, checked end to end (journal
replay through the differential oracle, zero dropped or stalled
lookups)."""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench import Outcome
from repro.core.events import EventBus
from repro.core.instance import AdmissionError
from repro.core.migrate import resolve_index_name
from repro.core.opstream import STREAM_KEY_SPACE, Mismatch
from repro.core.registry import REGISTRY
from repro.core.server import JOB_FAILED, IndexServer, Job
from repro.core.slo import ControlTower
from repro.core.workloads import DELETE, INSERT, LOOKUP, SCAN, UPDATE, Operation, payload
from repro.datasets import registry
from repro.indexes.batching import KEY_DOMAIN

#: Job steps a deterministic serve session pumps per client op.
PUMP_PER_CLIENT_OP = 2


def session_streams(
    index_name: str,
    n_clients: int = 3,
    ops_per_client: int = 150,
    n_bulk: int = 400,
    seed: int = 0,
    profile: str = "churn",
    bulk_keys: Optional[Sequence[int]] = None,
) -> Tuple[List[Tuple[int, Any]], List[List[Operation]]]:
    """Deterministic per-client op streams for a serve session.

    ``churn`` is a steady mix (zipf-ish hot lookups, fresh inserts,
    updates, scans, deletes where supported); ``burst`` front-loads an
    insert burst then drains with reads/scans/deletes.  Bulk keys come
    from ``[1, STREAM_KEY_SPACE)`` unless given.  Fresh insert keys come
    from per-client disjoint slices above that space (or the bulk
    maximum), narrowed to fit under the key domain's top, so
    concurrent clients rarely contend on the same key — cross-client
    conflicts stay *legal* (the journal serializes them), just not the
    common case.  Identical arguments always produce identical streams.
    """
    spec = REGISTRY.get(resolve_index_name(index_name))
    key_space = STREAM_KEY_SPACE
    if bulk_keys is None:
        rng = random.Random(f"serve-bulk-{spec.name}-{seed}-{n_bulk}")
        present = set()
        while len(present) < n_bulk:
            present.add(rng.randrange(1, key_space))
        bulk_keys = sorted(present)
    else:
        bulk_keys = sorted(set(bulk_keys))
        key_space = max(key_space, bulk_keys[-1] + 1 if bulk_keys else 1)
        n_bulk = len(bulk_keys)
    bulk_items = [(k, payload(k)) for k in bulk_keys]

    # The last client's last key, key_space + n * width + reach, fits.
    reach = 7 * ops_per_client
    width = min(key_space, (KEY_DOMAIN[1] - 1 - key_space - reach)
                // max(n_clients, 1))
    if width <= reach:
        raise ValueError(f"no room in the key domain above {key_space} "
                         f"for {n_clients} clients' fresh keys")
    streams: List[List[Operation]] = []
    for client in range(n_clients):
        crng = random.Random(
            f"serve-{profile}-{spec.name}-{seed}-client{client}")
        fresh_base = key_space + (client + 1) * width
        fresh_next = 0
        mine: List[int] = []

        def fresh_key() -> int:
            nonlocal fresh_next
            fresh_next += 1
            return fresh_base + fresh_next * 7  # sparse, strictly fresh

        def hot_key() -> int:
            # Zipf-ish: mostly a small hot set, sometimes anywhere.
            if crng.random() < 0.7:
                return bulk_keys[crng.randrange(max(1, n_bulk // 16))]
            return crng.choice(bulk_keys)

        ops: List[Operation] = []
        for i in range(ops_per_client):
            if profile == "burst":
                bursting = i < ops_per_client // 2
                r = crng.random() * (0.8 if bursting else 0.0)
            else:
                r = crng.random()
            p_insert = 0.25
            p_update = 0.10
            p_delete = 0.08 if spec.supports_delete else 0.0
            p_scan = 0.07 if spec.supports_range else 0.0
            if r < p_insert:
                k = fresh_key()
                mine.append(k)
                ops.append(Operation(INSERT, k, payload(k)))
            elif r < p_insert + p_update:
                k = crng.choice(mine) if mine and crng.random() < 0.5 \
                    else hot_key()
                ops.append(Operation(UPDATE, k, payload(k) ^ 0x5A5A5A5A))
            elif r < p_insert + p_update + p_delete:
                if mine and crng.random() < 0.7:
                    k = mine.pop(crng.randrange(len(mine)))
                else:
                    k = hot_key()
                ops.append(Operation(DELETE, k))
            elif r < p_insert + p_update + p_delete + p_scan:
                ops.append(Operation(SCAN, hot_key(),
                                     count=crng.randint(1, 32)))
            else:
                ops.append(Operation(LOOKUP, crng.choice(mine)
                                     if mine and crng.random() < 0.3
                                     else hot_key()))
        streams.append(ops)
    return bulk_items, streams


@dataclass
class ServeReport:
    """Everything one serve session measured and proved."""

    index_name: str
    mode: str                      # "deterministic" | "threaded"
    n_clients: int
    ops_total: int
    op_counts: Dict[str, int]
    dropped: Dict[str, int]
    stalled: Dict[str, int]
    rejected_ops: Dict[str, int]
    max_wait_s: float
    journal_len: int
    mismatches: List[Mismatch]
    job: Optional[dict]
    client_ns: float
    overhead_ns: float
    wall_seconds: float
    interleaved_ops: List[Operation] = field(default_factory=list,
                                             repr=False)
    bulk_items: List[Tuple[int, Any]] = field(default_factory=list,
                                              repr=False)

    @property
    def dropped_lookups(self) -> int:
        return self.dropped.get(LOOKUP, 0)

    @property
    def stalled_lookups(self) -> int:
        return self.stalled.get(LOOKUP, 0)

    @property
    def ok(self) -> bool:
        """Zero dropped/stalled lookups, clean oracle, job not FAILED."""
        return (not self.mismatches
                and not self.dropped_lookups
                and not self.stalled_lookups
                and (self.job is None or self.job["state"] != JOB_FAILED))

    @property
    def ops_per_vsec(self) -> float:
        if self.client_ns <= 0:
            return 0.0
        return self.ops_total / (self.client_ns / 1e9)

    def to_dict(self) -> dict:
        return {
            "index": self.index_name, "mode": self.mode,
            "clients": self.n_clients, "ops_total": self.ops_total,
            "op_counts": dict(self.op_counts),
            "dropped": dict(self.dropped), "stalled": dict(self.stalled),
            "rejected_ops": dict(self.rejected_ops),
            "max_wait_s": round(self.max_wait_s, 6),
            "journal_len": self.journal_len,
            "oracle_mismatches": len(self.mismatches),
            "job": self.job, "client_ns": self.client_ns,
            "overhead_ns": self.overhead_ns,
            "ops_per_vsec": self.ops_per_vsec,
            "wall_seconds": round(self.wall_seconds, 4),
            "ok": self.ok,
        }


def run_serve_session(
    index_name: str,
    bulk_items: Sequence[Tuple[int, Any]],
    client_ops: Sequence[List[Operation]],
    rebuild_to: str = "",
    rebuild_after: float = 0.25,
    threaded: bool = False,
    seed: int = 0,
    chunk: int = 128,
    bus: Any = None,
) -> ServeReport:
    """Serve ``client_ops`` against one instance while a background
    rebuild runs, then prove the run correct.

    Deterministic mode (``threaded=False``) drives a ``workers=0``
    server from one thread with a seeded round-robin interleave and
    pumps the job ``PUMP_PER_CLIENT_OP`` steps per client op — same
    arguments, same journal, same virtual-clock metrics, every time
    (that is what the gated ``BENCH_serve.json`` numbers come from).
    Threaded mode runs one real thread per client against the worker
    thread — nondeterministic interleavings, same proof obligations:
    journal replay through the oracle, zero dropped/stalled lookups.
    """
    name = "tenant"
    server = IndexServer(workers=0 if not threaded else 1, bus=bus,
                         chunk=chunk)
    try:
        instance = server.create_instance(name, index_name,
                                          items=list(bulk_items))
        total = sum(len(ops) for ops in client_ops)
        trigger = max(1, int(total * rebuild_after))
        submit = (
            (lambda: server.rebuild(name))
            if not rebuild_to or resolve_index_name(rebuild_to) ==
            server.status(name)["index"]
            else (lambda: server.migrate(name, rebuild_to)))
        job: Optional[Job] = None
        client_ns = 0.0
        interleaved: List[Operation] = []
        t0 = time.perf_counter()

        if not threaded:
            rng = random.Random(f"serve-interleave-{index_name}-{seed}")
            cursors = [0] * len(client_ops)
            done = 0
            while done < total:
                live = [i for i in range(len(client_ops))
                        if cursors[i] < len(client_ops[i])]
                i = rng.choice(live)
                op = client_ops[i][cursors[i]]
                cursors[i] += 1
                interleaved.append(op)
                meter = instance.index.meter
                before = meter.snapshot()
                try:
                    server.apply(name, op)
                except AdmissionError:
                    pass  # counted in dropped/rejected
                finally:
                    client_ns += meter.diff(before).total_time()
                done += 1
                if job is None and done >= trigger:
                    job = submit()
                if job is not None and not job.finished:
                    server.pump_jobs(PUMP_PER_CLIENT_OP)
            server.drain()
        else:
            jobs: List[Job] = []
            barrier = threading.Barrier(len(client_ops))
            errors: List[BaseException] = []
            per_client_trigger = max(1, trigger // max(1, len(client_ops)))

            def client(idx: int, ops: List[Operation]) -> None:
                try:
                    barrier.wait(timeout=30.0)
                    submit_at = min(per_client_trigger, max(0, len(ops) - 1))
                    for j, op in enumerate(ops):
                        if idx == 0 and j == submit_at:
                            jobs.append(submit())
                        try:
                            server.apply(name, op)
                        except AdmissionError:
                            pass  # counted in dropped/rejected
                except BaseException as exc:  # noqa: BLE001 — report it
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(i, ops),
                                        daemon=True)
                       for i, ops in enumerate(client_ops)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            server.drain()
            if errors:
                raise errors[0]
            job = jobs[0] if jobs else None

        wall = time.perf_counter() - t0
        overhead_ns = job.overhead_ns if job is not None else 0.0
        status = server.status(name)
        stats = status["server"]
        return ServeReport(
            index_name=status["index"],
            mode="threaded" if threaded else "deterministic",
            n_clients=len(client_ops), ops_total=total,
            op_counts=dict(instance.op_counts),
            dropped=stats["dropped"], stalled=stats["stalled"],
            rejected_ops=dict(instance.rejected),
            max_wait_s=stats["max_wait_s"],
            journal_len=len(server.journal(name)),
            mismatches=server.replay_check(name),
            job=job.to_dict() if job is not None else None,
            client_ns=client_ns, overhead_ns=overhead_ns,
            wall_seconds=wall, interleaved_ops=interleaved,
            bulk_items=list(bulk_items))
    finally:
        server.close()


def run(index: str, dataset: str, n: int, clients: int, ops: int,
        profile: str, rebuild: str, rebuild_after: float, chunk: int,
        seed: int, threads: bool) -> Outcome:
    """One deterministic serve session over ``dataset`` (watched by a
    control tower), then with ``threads`` the same streams on real
    client threads.  Gated metrics come from the deterministic session
    only: same seed, same interleave, same virtual-clock numbers on any
    machine.  Threaded wall-clock stats ride in ``info``, ungated."""
    keys = registry.get(dataset).generate(n, seed=seed)
    bulk, streams = session_streams(
        index, n_clients=clients, ops_per_client=ops, seed=seed,
        profile=profile, bulk_keys=keys)
    session = dict(rebuild_to=rebuild, rebuild_after=rebuild_after, seed=seed,
                   chunk=chunk)
    bus = EventBus()
    tower = ControlTower()
    bus.subscribe(tower.consume)
    sessions = {"deterministic": run_serve_session(
        index, bulk, streams, threaded=False, bus=bus, **session)}
    if threads:
        sessions["threaded"] = run_serve_session(
            index, bulk, streams, threaded=True, **session)
    det = sessions["deterministic"]
    info = {"wall_seconds": det.wall_seconds}
    if threads:
        info["threaded_wall_seconds"] = sessions["threaded"].wall_seconds

    def render() -> str:
        rep = det.to_dict()
        return "\n".join([
            tower.render(title=f"repro serve · {index} on {dataset}"),
            f"\n{rep['clients']} clients x {ops} ops ({profile}), "
            f"rebuild -> {rebuild or index}: "
            f"{rep['ops_per_vsec'] / 1e6:.2f}M ops/vs, "
            f"overhead {rep['overhead_ns'] / 1e3:.0f}k vns, "
            f"journal {rep['journal_len']} ops",
            *(f"  {label}: dropped lookups {r.dropped_lookups}, "
              f"stalled {r.stalled_lookups}, "
              f"oracle {'clean' if not r.mismatches else 'DIVERGED'}, "
              f"job {r.job['state'] if r.job else '-'}, "
              f"wall {r.wall_seconds:.3f}s"
              for label, r in sessions.items()),
        ])

    return Outcome(
        suite="serve",
        doc={label: r.to_dict() for label, r in sessions.items()},
        metrics={"serve_ops_per_vsec": det.ops_per_vsec,
                 "client_ns": det.client_ns,
                 "overhead_ns": det.overhead_ns},
        info=info,
        context={"index": index, "dataset": dataset, "n": n,
                 "clients": clients, "ops": ops, "profile": profile,
                 "rebuild": rebuild, "rebuild_after": rebuild_after,
                 "chunk": chunk, "seed": seed},
        failures=[
            f"FAIL: {label} session: "
            f"dropped lookups {r.dropped_lookups}, "
            f"stalled {r.stalled_lookups}, "
            f"oracle mismatches {len(r.mismatches)}, "
            f"job {r.job['state'] if r.job else '-'}"
            for label, r in sessions.items() if not r.ok
        ],
        render=render,
    )
