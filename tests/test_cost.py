"""Unit tests for the abstract cost meter."""

from repro.core.cost import (
    KEY_COMPARE,
    NODE_HOP,
    PHASE_SMO,
    PHASE_TRAVERSE,
    CostMeter,
)


def test_charge_accumulates_units():
    m = CostMeter()
    m.charge(NODE_HOP)
    m.charge(NODE_HOP, 2)
    assert m.total_units(NODE_HOP) == 3


def test_total_time_uses_weights():
    m = CostMeter(weights={NODE_HOP: 10.0, KEY_COMPARE: 1.0})
    m.charge(NODE_HOP, 2)
    m.charge(KEY_COMPARE, 5)
    assert m.total_time() == 25.0


def test_phase_attribution_nested():
    m = CostMeter(weights={NODE_HOP: 1.0})
    with m.phase(PHASE_TRAVERSE):
        m.charge(NODE_HOP)
        with m.phase(PHASE_SMO):
            m.charge(NODE_HOP, 4)
        m.charge(NODE_HOP)
    by_phase = m.time_by_phase()
    assert by_phase[PHASE_TRAVERSE] == 2.0
    assert by_phase[PHASE_SMO] == 4.0


def test_snapshot_diff_isolates_one_op():
    m = CostMeter(weights={NODE_HOP: 1.0})
    m.charge(NODE_HOP, 10)
    before = m.snapshot()
    with m.phase(PHASE_TRAVERSE):
        m.charge(NODE_HOP, 3)
    delta = m.diff(before)
    assert delta.total_time() == 3.0
    assert delta.units(NODE_HOP) == 3


def test_reset_clears_counts_and_phases():
    m = CostMeter()
    with m.phase(PHASE_TRAVERSE):
        m.charge(NODE_HOP)
        m.reset()
    assert m.total_time() == 0.0


def test_unknown_kind_has_zero_weight():
    m = CostMeter(weights={})
    m.charge("exotic", 5)
    assert m.total_time() == 0.0
    assert m.total_units("exotic") == 5
