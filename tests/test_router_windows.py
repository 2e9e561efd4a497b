"""Freeze what a routed replay's windows say.

``ShardRouter`` keeps window folds of its own — the cluster's, one per
tracked shard slot, the census behind each control decision — and
opens and closes the per-shard ones as slots split, merge and roll
back.  ``tests/corpus/router_windows.json`` pins, per cell, the decision
log in full and one sha256 each over ``RouterReport.cluster_windows``
and ``shard_summaries``.  Cells: ``rebalance_benchmark``'s stream on its
defaults for seeds 0-2 (splits only), a 12-shard start that also merges,
and a split whose target lies and is rolled back.

The file was generated at the commit *before* the router moved onto
``WindowFold``; the test regenerates it and compares byte for byte.
Regenerate only with an intended behaviour change::

    PYTHONPATH=src python -m tests.test_router_windows
"""

import hashlib
import json
import os
from unittest import mock

from repro.core import shard
from repro.core.opstream import DifferentialObserver
from repro.core.shard import ShardedIndex, ShardRouter
from repro.core.sweep import DatasetSpec
from repro.core.workloads import moving_hotspot_workload
from repro.indexes.btree import BPlusTree
from tests.test_shard import LyingBTree

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "corpus",
                           "router_windows.json")


def _liars_after(honest):
    made = []

    def factory():  # the probe and the first shards honest, then liars
        made.append(BPlusTree() if len(made) < honest else LyingBTree())
        return made[-1]

    return factory


def cells():
    """``label -> (index-or-factory, shards, seed, MIN_SPLIT_KEYS)``."""
    out = {f"ALEX_seed{seed}": ("ALEX", 4, seed, 512) for seed in range(3)}
    out["B+tree_12_shards_merging"] = ("B+tree", 12, 0, 256)
    out["B+tree_split_rolled_back"] = (_liars_after(5), 4, 0, 256)
    return out


def _digest(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def render():
    doc = {}
    for label, (index, shards, seed, min_split) in cells().items():
        keys = DatasetSpec("covid", 12000, seed).keys()
        workload = moving_hotspot_workload(keys, n_ops=10000, warm_frac=0.15,
                                           seed=seed)
        router = ShardRouter(ShardedIndex(index, n_shards=shards),
                             window_ops=512)
        with mock.patch.object(shard, "MIN_SPLIT_KEYS", min_split):
            report = router.run(workload, oracle=DifferentialObserver())
        assert report.oracle_ok and report.n_ops == 10000
        doc[label] = {
            "splits": report.splits, "merges": report.merges,
            "aborted": report.aborted,
            "cluster_windows": len(report.cluster_windows),
            "cluster_windows_sha256": _digest(report.cluster_windows),
            "shard_summaries": sorted(report.shard_summaries),
            "shard_summaries_sha256": _digest(report.shard_summaries),
            "decisions": report.events,
        }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_router_windows_match_the_frozen_corpus():
    with open(CORPUS_PATH) as fh:
        frozen = fh.read()
    rendered = render()
    assert json.loads(rendered) == json.loads(frozen)
    assert rendered == frozen


if __name__ == "__main__":
    with open(CORPUS_PATH, "w") as fh:
        fh.write(render())
    print(f"wrote {CORPUS_PATH}")
