"""The write path's C-speed bodies against the loops they replaced,
gated in-run.

PR 22 moved the scalar write path's searches, shifts and merges into C
calls (``docs/performance.md``, "The write path at C speed"); the
bodies they replaced live on in ``tests/search_reference.py`` and leave
the same results and charges (``tests/test_write_path.py``), so the wall
ratio of a pair on one input is the whole effect.  Each row below is
new body / its twin on covid (easy) and osm (hard) at 50k keys — the
size of ``bench/``'s ``gre_write`` cells after their bulk load — timed
in the same process, interleaved, best of ``_REPS``: a slow box moves
both sides.  Run from the repository root (``tests`` is imported).

Two gates on the engine's half: the loop of a run nobody watches
against the observed one (a no-op ``on_op`` observer attached) on a
Balanced B+tree cell, and a counted one — an unobserved run builds an
``OpEvent`` for the ops that ran an SMO and for no other.
"""

import gc
import random
import time
from unittest import mock

from common import dataset_keys, print_header, run_once
from repro.core import runner
from repro.core.cost import PHASE_SEARCH, CostMeter
from repro.core.instance import IndexInstance
from repro.core.registry import REGISTRY
from repro.core.report import table
from repro.core.runner import ExecutionEngine, ExecutionObserver
from repro.core.workloads import Workload, mixed_workload
from repro.indexes.alex import ALEX
from repro.indexes.lipp import LIPP
from repro.indexes.pgm import _merge_columns, _StaticPGM
from tests import search_reference as reference

DATASETS = ("covid", "osm")
_N = 50_000
_REPS = 5
#: New body / reference twin, each gate at least 25% above what this
#: box read over five runs: merge 0.11-0.14, locate 0.59-0.65, root to
#: slot 0.69-0.72 (five probes a node: the walk's three charges are half
#: of it), place 0.34-0.39, pair 0.64-0.72.  The engine row reads
#: 0.86-0.99: one body serves both loops, so the ratio is the price of
#: an ``OpEvent`` and one hook call per op, and its gate says only that
#: the loop nobody watches never costs more.
_MAX_RATIO = {
    "PGM merge 50k+256": 0.35,
    "PGM locate": 0.85,
    "B+tree root to slot": 0.9,
    "ALEX _place, 64+ shifts": 0.5,
    "LIPP pair": 0.9,
    "engine, Balanced B+tree": 1.1,
}


def _best(sides):
    """Best-of-``_REPS`` seconds of each ``(label, prepare, body)``:
    ``prepare()`` builds the body's argument untimed; sides interleaved,
    the order alternating rep by rep."""
    best = {}
    for rep in range(_REPS):
        for label, prepare, body in (sides if rep % 2 else sides[::-1]):
            arg = prepare()
            gc.collect()
            t0 = time.perf_counter()
            body(arg)
            wall = time.perf_counter() - t0
            best[label] = min(wall, best.get(label, wall))
    return best


def _ratio(new, twin, prepare=lambda: None):
    best = _best([("new", prepare, new), ("twin", prepare, twin)])
    return best["new"], best["twin"]


# -- the pairs ----------------------------------------------------------------

def _merge(keys):
    """One flush: a 256-key buffer into a 50k-key run, up to the
    columns ``_StaticPGM`` keeps."""
    rng = random.Random(1)
    run_keys = keys[::2]
    run_values = list(run_keys)
    buffer = {k: -k for k in rng.sample(keys[1::2], 236) + run_keys[:20]}

    def new(_):
        spill = sorted(buffer)
        return _merge_columns(run_keys, run_values, spill,
                              [buffer[k] for k in spill])

    def twin(_):
        merged = reference.merge_items(zip(run_keys, run_values),
                                       sorted(buffer.items()))
        return [k for k, _ in merged], [v for _, v in merged]

    assert new(None) == twin(None)
    return _ratio(new, twin)


def _locate(keys):
    run = _StaticPGM(list(keys), list(keys), 64, CostMeter())
    rng = random.Random(2)
    probes = [k + d for k in rng.sample(keys, 4000) for d in (0, 1)]
    return _ratio(lambda _: [run.locate(k) for k in probes],
                  lambda _: [reference.pgm_locate(run, k) for k in probes])


def _search(keys):
    """Root to slot, as ``lookup`` and ``insert`` start: the walk, then
    the leaf search under ``PHASE_SEARCH``."""
    tree = REGISTRY.create("B+tree")
    tree.bulk_load([(k, k) for k in keys])
    rng = random.Random(3)
    probes = rng.choices(keys, k=8000)

    def new(_):
        return [tree._search_leaf(tree._descend(k), k) for k in probes]

    def twin(_):
        out = []
        for k in probes:
            leaf = reference.btree_descend(tree, k)
            with tree.meter.phase(PHASE_SEARCH):
                out.append(reference.binary_search_lower(leaf.keys, k, tree.meter))
        return out

    assert new(None) == twin(None)
    return _ratio(new, twin)


def _place(keys):
    """Inserts just under the head of a packed run of 64 to 127 keys
    whose nearest gap is at its far end: alternately no gap on the left
    at all, and one left of a second, longer run."""
    rng = random.Random(4)
    index = ALEX()
    layouts = []
    for i in range(300):
        run = rng.randrange(64, 128)
        lead = [False] + [True] * (run + 8) if i % 2 else []
        present = lead + [True] * run + [False] * 8
        start = rng.randrange(len(keys) - len(present))
        # Doubled: the odd key under the head is below it and nothing else.
        stored = [2 * k for k in keys[start:start + sum(present)]]
        layouts.append((present, stored, len(lead)))

    def leaves():
        out = []
        for present, stored, head in layouts:
            node = reference.alex_leaf(index, present, stored)
            out.append((node, head, node.keys[head] - 1))
        return out

    def new(batch):
        return [index._place(node, pos, key, 0) for node, pos, key in batch]

    def twin(batch):
        return [reference.alex_place(index, node, pos, key, 0)
                for node, pos, key in batch]

    shifts = new(leaves())
    assert shifts == twin(leaves()) and min(shifts) >= 64
    return _ratio(new, twin, leaves)


def _pair(keys):
    rng = random.Random(5)
    starts = rng.sample(range(len(keys) - 1), 4000)
    pairs = [((keys[i], 0), (keys[i + 1], 1)) for i in starts]
    return _ratio(
        lambda index: [index._build_pair(a, b) for a, b in pairs],
        lambda index: [reference.lipp_build_pair(index, a, b) for a, b in pairs],
        LIPP)


class _Watch(ExecutionObserver):
    """Any attached ``on_op`` selects the per-op loop."""

    def on_op(self, event, latency):
        pass


def _engine(keys):
    workload = mixed_workload(keys, 0.5, n_ops=8000, seed=6)

    def loaded():
        instance = IndexInstance(REGISTRY.create("B+tree"))
        instance.bulk_load(workload.bulk_items)
        return instance

    ops = Workload(workload.name, [], workload.operations)
    return _ratio(lambda inst: ExecutionEngine().run(inst, ops),
                  lambda inst: ExecutionEngine(observers=[_Watch()]).run(inst, ops),
                  loaded)


_PAIRS = {
    "PGM merge 50k+256": _merge,
    "PGM locate": _locate,
    "B+tree root to slot": _search,
    "ALEX _place, 64+ shifts": _place,
    "LIPP pair": _pair,
    "engine, Balanced B+tree": _engine,
}


def _ratios():
    rows, ratios = [], {}
    for dataset in DATASETS:
        # The engine cell loads half of what it is given.
        keys = list(dataset_keys(dataset, 2 * _N))
        for label, pair in _PAIRS.items():
            new, twin = pair(keys if pair is _engine else keys[::2])
            ratios[label, dataset] = new / twin
            rows.append([label, dataset, f"{twin * 1e3:.2f}",
                         f"{new * 1e3:.2f}", f"{new / twin:.2f}"])
    print_header(f"Write-path bodies on {_N} keys, wall ms "
                 f"(best of {_REPS}, interleaved)")
    print(table(["Pair", "Dataset", "twin", "new", "new/twin"], rows))
    return ratios


def test_write_path_wall_ratios(benchmark):
    ratios = run_once(benchmark, _ratios)
    for (label, dataset), ratio in ratios.items():
        assert ratio <= _MAX_RATIO[label], (
            f"{label} on {dataset}: new/twin {ratio:.2f} "
            f"(gate {_MAX_RATIO[label]})")


class _SmoSeqs(ExecutionObserver):
    """The seq of every op the engine reports an SMO for."""

    def __init__(self):
        self.seqs = []

    def on_smo(self, event):
        self.seqs.append(event.seq)


def test_balanced_run_builds_an_event_per_smo_only():
    """Counted, not timed: the unobserved loop hands ``OpEvent`` to the
    ``on_smo`` hooks and builds none for any other op."""
    workload = mixed_workload(list(dataset_keys("covid", 20_000)), 0.5,
                              n_ops=8000, seed=6)
    for name in ("ALEX", "LIPP", "PGM", "B+tree"):
        built = []

        def counted(*args, _real=runner.OpEvent):
            built.append(args[0])
            return _real(*args)

        smos = _SmoSeqs()  # an ``on_smo`` hook alone: still unobserved
        with mock.patch.object(runner, "OpEvent", counted):
            result = ExecutionEngine(observers=[smos]).run(
                REGISTRY.create(name), workload)
        assert result.n_ops == 8000
        assert built == smos.seqs, (name, len(built))
        assert name == "LIPP" or built, name  # the mix does run SMOs
