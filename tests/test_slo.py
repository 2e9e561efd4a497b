"""SLO tracking: targets, windows, burn rates, storms, and the tower.

The tracker is driven two ways here: synthetically (a scripted fake
meter so every percentile and burn rate is exact) and end-to-end
against real runs (ALEX under churn producing genuine SMO traffic).
"""

import random

import pytest

from repro.core.events import (
    KIND_ALERT,
    KIND_SLO_WINDOW,
    EventBus,
)
from repro.core.runner import WindowFold, execute
from repro.core.slo import (
    ALERT_BURN_RATE,
    ALERT_SMO_STORM,
    SEVERITY_CRITICAL,
    SEVERITY_WARNING,
    ControlTower,
    SLOTarget,
    SLOTracker,
)
from repro.core.workloads import LOOKUP, mixed_workload
from repro.indexes.alex import ALEX

KEYS = sorted(random.Random(13).sample(range(1, 50_000_000), 3000))


# -- a scripted harness --------------------------------------------------------

class FakeMeter:
    def __init__(self):
        self.now = 0.0

    def total_time(self):
        return self.now


class FakeIndex:
    name = "fake"

    def __init__(self):
        self.meter = FakeMeter()


class FakeWorkload:
    name = "scripted"


def _drive(tracker, index, latencies, smo_at=()):
    """Feed scripted per-op latencies (virtual ns) through a fold into
    the tracker, as the engine does."""
    index.meter.now += 100.0  # bulk-load time the window must ignore
    tracker.on_phase("measure", index, FakeWorkload())
    fold = WindowFold(tracker.window_ops, timed=True)
    fold.open(index.meter, tracker.on_window)
    for i, lat in enumerate(latencies):
        index.meter.now += lat
        fold.add(LOOKUP, True, index.meter.now)
        if i in smo_at:
            fold.on_smo()
    fold.flush()
    tracker.on_phase("done", index, FakeWorkload())


# -- targets -------------------------------------------------------------------

def test_target_validation():
    with pytest.raises(ValueError, match="objective"):
        SLOTarget(LOOKUP, 100.0, objective=1.0)
    with pytest.raises(ValueError, match="threshold"):
        SLOTarget(LOOKUP, 0.0)
    t = SLOTarget(LOOKUP, 500.0)
    assert t.objective == 0.99


def test_tracker_rejects_bad_window():
    with pytest.raises(ValueError):
        SLOTracker(window_ops=0)


# -- explicit targets: budgets and burn ----------------------------------------

def test_within_budget_no_alerts():
    tracker = SLOTracker([SLOTarget(LOOKUP, 100.0, objective=0.8)],
                         window_ops=10)
    _drive(tracker, FakeIndex(), [50.0] * 9 + [200.0])  # 1/10 over, budget 2
    assert tracker.alerts == []
    assert tracker.violations[LOOKUP] == 1
    assert tracker.budget_used(LOOKUP) == pytest.approx(0.5)


def test_burn_rate_warning_then_critical():
    target = SLOTarget(LOOKUP, 100.0, objective=0.9)  # budget: 1 op per 10
    warm = SLOTracker([target], window_ops=10)
    _drive(warm, FakeIndex(), [50.0] * 8 + [200.0] * 2)  # burn 2.0
    assert [a.severity for a in warm.alerts] == [SEVERITY_WARNING]
    assert warm.alerts[0].kind == ALERT_BURN_RATE
    assert warm.alerts[0].details["burn_rate"] == pytest.approx(2.0)

    hot = SLOTracker([target], window_ops=10)
    _drive(hot, FakeIndex(), [50.0] * 6 + [200.0] * 4)  # burn 4.0
    assert [a.severity for a in hot.alerts] == [SEVERITY_CRITICAL]


def test_budget_accumulates_across_windows():
    tracker = SLOTracker([SLOTarget(LOOKUP, 100.0, objective=0.9)],
                         window_ops=10)
    _drive(tracker, FakeIndex(),
           [50.0] * 10 + [50.0] * 8 + [200.0] * 2)  # 2 violations / 20 judged
    assert tracker.judged_ops[LOOKUP] == 20
    assert tracker.budget_used(LOOKUP) == pytest.approx(1.0)
    assert len(tracker.windows) == 2


def test_latencies_are_meter_deltas_not_sampled():
    tracker = SLOTracker([SLOTarget(LOOKUP, 100.0, objective=0.5)],
                         window_ops=4)
    _drive(tracker, FakeIndex(), [10.0, 20.0, 30.0, 40.0])
    stats = tracker.windows[0]["ops_kinds"][LOOKUP]
    assert stats["count"] == 4
    assert stats["p50"] == pytest.approx(20.0)  # nearest-rank percentile


# -- auto-calibration ----------------------------------------------------------

def test_first_window_calibrates_and_is_never_judged():
    tracker = SLOTracker(window_ops=10)
    assert tracker.auto_calibrated
    # A horrendous first window: every op 1000 ns. No alert — it only
    # sets the bar (threshold = 4 x p99).
    _drive(tracker, FakeIndex(), [1000.0] * 10)
    assert tracker.alerts == []
    assert tracker.targets[LOOKUP].threshold_ns == pytest.approx(4000.0)
    assert tracker.judged_ops.get(LOOKUP, 0) == 0


def test_calibrated_target_fires_on_degradation():
    tracker = SLOTracker(window_ops=10)
    index = FakeIndex()
    _drive(tracker, index, [100.0] * 10)  # calibrate: threshold 400 ns
    # Second run on the same tracker: 5x slower ops blow the budget.
    _drive(tracker, index, [2000.0] * 10)
    assert any(a.kind == ALERT_BURN_RATE for a in tracker.alerts)


# -- SMO storms ----------------------------------------------------------------

def _storm_drive(tracker, rates, window_ops=10):
    """One window per rate entry: ``rate*window_ops`` ops carry SMOs."""
    index = FakeIndex()
    for rate in rates:
        n_smo = int(rate * window_ops)
        smo_at = set(range(n_smo))
        _drive(tracker, index, [10.0] * window_ops, smo_at=smo_at)


def test_storm_needs_three_baseline_windows():
    tracker = SLOTracker([SLOTarget(LOOKUP, 1e9)], window_ops=10)
    _storm_drive(tracker, [0.8, 0.8])  # hot, but no baseline yet
    assert not [a for a in tracker.alerts if a.kind == ALERT_SMO_STORM]


def test_storm_warns_then_escalates():
    tracker = SLOTracker([SLOTarget(LOOKUP, 1e9)], window_ops=10)
    # Three calm baseline windows (10% SMO rate), then a sustained storm.
    _storm_drive(tracker, [0.1, 0.1, 0.1, 0.8, 0.8, 0.8])
    storms = [a for a in tracker.alerts if a.kind == ALERT_SMO_STORM]
    assert [a.severity for a in storms] == [SEVERITY_WARNING, SEVERITY_CRITICAL]
    assert storms[0].details["rate"] == pytest.approx(0.8)
    assert "sustained" in storms[1].message


def test_calm_window_resets_the_escalation_run():
    tracker = SLOTracker([SLOTarget(LOOKUP, 1e9)], window_ops=10)
    _storm_drive(tracker, [0.1, 0.1, 0.1, 0.8, 0.0, 0.8, 0.0, 0.8])
    storms = [a for a in tracker.alerts if a.kind == ALERT_SMO_STORM]
    # Each isolated hot window warns; the run never reaches 3 in a row.
    assert all(a.severity == SEVERITY_WARNING for a in storms)


# -- bus publication -----------------------------------------------------------

def test_windows_and_alerts_publish_to_the_bus():
    bus = EventBus()
    tracker = SLOTracker([SLOTarget(LOOKUP, 100.0, objective=0.9)],
                         window_ops=10, bus=bus)
    _drive(tracker, FakeIndex(), [50.0] * 8 + [200.0] * 2)
    windows = bus.events(kind=KIND_SLO_WINDOW)
    assert len(windows) == 1
    assert windows[0]["op"] == LOOKUP and windows[0]["violations"] == 2
    alerts = bus.events(kind=KIND_ALERT)
    assert len(alerts) == 1
    assert alerts[0]["alert"] == ALERT_BURN_RATE
    assert alerts[0]["severity"] == SEVERITY_WARNING


def test_summary_shape():
    tracker = SLOTracker([SLOTarget(LOOKUP, 100.0, objective=0.9)],
                         window_ops=10)
    _drive(tracker, FakeIndex(), [50.0] * 8 + [200.0] * 2)
    s = tracker.summary()
    assert s["windows"] == 1 and not s["auto_calibrated"]
    assert s["targets"][LOOKUP]["threshold_ns"] == 100.0
    assert s["op_kinds"][LOOKUP]["violations"] == 2
    assert len(s["alerts"]) == 1
    assert s["alerts"][0]["severity"] == SEVERITY_WARNING


# -- end to end against a real index -------------------------------------------

def test_tracker_observes_a_real_run_without_changing_it():
    wl = mixed_workload(KEYS, 0.5, n_ops=2000, seed=1)
    tracker = SLOTracker(window_ops=200)
    result = execute(ALEX(), wl, observers=[tracker])
    assert result.throughput_mops > 0
    assert len(tracker.windows) == 10
    judged = sum(tracker.judged_ops.values())
    assert judged == 2000 - 200  # everything after the calibration window
    assert set(tracker.targets) == {"lookup", "insert"}


# -- the control tower ---------------------------------------------------------

def _event(kind, source="ALEX@0", **payload):
    return {"kind": kind, "source": source, "t_ns": 0.0, "seq": 0, **payload}


def test_tower_folds_a_full_stream():
    tower = ControlTower.from_records([
        _event("phase", phase="measure", workload="churn"),
        _event("op_window", ops=256, ops_per_vsec=2e6),
        _event("op_window", ops=256, ops_per_vsec=3e6),
        _event("slo_window", op="lookup", p99=420.0),
        _event("smo"),
        _event("smo"),
        _event("admission_reject", op="insert", state="draining"),
        _event("backfill_chunk", stage="verify", done=50, total=200),
        _event("alert", severity="critical", message="budget blown"),
        _event("sweep_task", source=""),
        _event("cache_hit", source=""),
    ])
    row = tower.rows["ALEX@0"]
    assert row["state"] == "measure" and row["workload"] == "churn"
    assert row["ops"] == 512
    assert row["ops_per_vsec"] == 3e6  # latest window wins
    assert row["p99_ns"] == 420.0
    assert row["smos"] == 2 and row["rejected"] == 1
    assert row["backfill_stage"] == "verify" and row["backfill_done"] == 50
    assert row["worst_severity"] == "critical"
    assert tower.sweep == {"tasks": 1, "cache_hits": 1}
    assert tower.consumed == 11


def test_lifecycle_state_outranks_engine_phase():
    tower = ControlTower.from_records([
        _event("phase", phase="measure"),
        _event("state", from_state="serving", to="migrating"),
        _event("phase", phase="done"),  # must not clobber the lifecycle
    ])
    assert tower.rows["ALEX@0"]["state"] == "migrating"


def test_cutover_marks_target_serving():
    tower = ControlTower.from_records([
        _event("cutover", source="PGM@1", op_seq=900),
    ])
    assert tower.rows["PGM@1"]["state"] == "serving"
    assert tower.rows["PGM@1"]["cutover_seq"] == 900


def test_render_and_json_surfaces():
    tower = ControlTower.from_records([
        _event("op_window", ops=100, ops_per_vsec=1e6),
        _event("slo_window", op="lookup", p99=350.0),
        _event("backfill_chunk", stage="backfill", done=75, total=100),
        _event("alert", severity="warning", message="slow window"),
        _event("sweep_task", source=""),
    ])
    out = tower.render()
    assert "Instance" in out and "ALEX@0" in out
    assert "backfill 75%" in out
    assert "1 (warning)" in out
    assert "sweep: 1 tasks" in out
    assert "[warning] slow window" in out
    doc = tower.to_json()
    assert doc["instances"]["ALEX@0"]["p99_ns"] == 350.0
    assert doc["sweep"]["tasks"] == 1
    assert doc["consumed"] == 5


def test_live_subscription_matches_post_hoc_fold():
    bus = EventBus()
    live = ControlTower()
    bus.subscribe(live.consume)
    tracker = SLOTracker(window_ops=64, bus=bus)
    wl = mixed_workload(KEYS, 0.3, n_ops=600, seed=2)
    execute(ALEX(), wl,
            observers=[tracker, bus.engine_observer(window_ops=64)])
    replay = ControlTower.from_records(bus.events())
    assert live.to_json() == replay.to_json()
    assert live.rows["ALEX"]["ops"] == 600


# -- cluster view (sharded serving tier) ---------------------------------------

def test_cluster_view_aggregates_per_shard_trackers():
    from repro.core.shard import ShardRouter, ShardedIndex
    from repro.core.slo import cluster_view, render_cluster_view
    from repro.core.workloads import moving_hotspot_workload

    keys = sorted(random.Random(21).sample(range(1, 10_000_000), 2500))
    wl = moving_hotspot_workload(keys, n_ops=2500, seed=1)
    sharded = ShardedIndex("B+tree", n_shards=2)
    router = ShardRouter(sharded, window_ops=512, slo_window=128)
    router.run(wl)

    view = cluster_view(router.all_trackers)
    assert view["op_kind"] == LOOKUP
    assert len(view["shards"]) == len(router.all_trackers) >= 2
    p99s = [row["p99_ns"] for row in view["shards"].values()
            if row["p99_ns"] is not None]
    assert view["worst_p99_ns"] == max(p99s)
    worst = view["worst_shard"]
    assert view["shards"][worst]["p99_ns"] == view["worst_p99_ns"]
    for row in view["shards"].values():
        assert row["windows"] >= 1
        assert row["budget_used"] >= 0.0

    text = render_cluster_view(view)
    assert "worst shard" in text
    for name in view["shards"]:
        assert name in text


def test_cluster_view_empty_trackers():
    from repro.core.slo import cluster_view, render_cluster_view

    view = cluster_view({})
    assert view["worst_shard"] is None and view["shards"] == {}
    assert "worst shard" not in render_cluster_view(view)
