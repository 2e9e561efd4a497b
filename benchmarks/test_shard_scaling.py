"""Sharded serving tier — the headline scaling and recovery numbers.

Not a paper figure: the paper's verdicts are all single-index, and the
ROADMAP's item 5 asks what a routing tier buys.  Two experiments:

* **Scaling curve.**  The same zipfian batch-lookup stream against 1,
  2, 4, and 8 shards.  On the virtual clock the serial numbers barely
  move (the work is conserved — routing adds a small binary-search
  charge); the *parallel* number divides each level's makespan by the
  slowest shard, which is what N workers buy.  The acceptance gate is
  >= 3x from 1 to 8 shards, with the value fingerprint bit-identical
  to an unsharded run at every level.

* **Moving-hotspot recovery.**  A zipfian hot range drifts across the
  keyspace while the router watches per-shard SLO windows, splits hot
  shards via live migration, and must bring the cluster p99 back
  within 2x of the pre-skew baseline with zero stalled ops and a
  clean differential oracle.
"""

from common import print_header
from repro.bench.shard import rebalance_benchmark, scaling_benchmark
from repro.core.report import table

SCALING_GATE = 3.0
RECOVERY_GATE = 2.0


def test_shard_scaling_and_hotspot_recovery():
    print_header("shard scaling (virtual clock) + hotspot recovery")

    scaling = scaling_benchmark(index="ALEX", dataset="covid", n=20000,
                                lookups=8000, shard_counts=(1, 2, 4, 8),
                                seed=0)
    rows = []
    for level in scaling["levels"]:
        assert level["fingerprint_ok"], "sharded run diverged from unsharded"
        assert level["pool_parity"], "pool run diverged from serial run"
        rows.append([
            level["shards"],
            f"{level['virtual_mops_serial']:.2f}",
            f"{level['virtual_mops_parallel']:.2f}",
            f"{level['routing_ns']:.0f}",
        ])
    print(table(["Shards", "Mops serial", "Mops parallel", "routing ns"],
                rows, title="ALEX/covid, 8000 zipfian lookups"))
    print(f"scaling 1 -> 8 shards: {scaling['scaling_virtual']:.2f}x")
    assert scaling["scaling_virtual"] >= SCALING_GATE

    rb = rebalance_benchmark(index="ALEX", dataset="covid", n=12000,
                             ops=10000, shards=4, window_ops=512, seed=0)
    print(f"hotspot replay: {rb['splits']} splits, {rb['merges']} merges, "
          f"p99 pre {rb['pre_skew_p99_ns']:.0f} ns -> "
          f"peak {rb['peak_p99_ns']:.0f} ns -> "
          f"post {rb['post_rebalance_p99_ns']:.0f} ns "
          f"(ratio {rb['p99_recovery_ratio']:.2f})")
    assert rb["splits"] >= 1, "the router never split the hot shard"
    assert rb["cutover_stall_ops"] == 0, "rebalance stalled client ops"
    assert rb["rejected_ops"] == 0
    assert rb["oracle_ok"], "differential oracle diverged on routed stream"
    assert rb["p99_recovery_ratio"] <= RECOVERY_GATE
    assert rb["converged"]
