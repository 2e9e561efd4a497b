"""What the virtual clock itself costs, so the gain cannot erode.

PR 16 took the meter off the hot path: scalar index loops count in
locals and charge each ``(phase, kind)`` once, ``phase()`` hands out a
cached scope object, and ``SyncedMeter`` charges a per-thread lane
without a lock.  Two gates keep it that way, neither depending on the
machine:

* **Counted calls.**  A call-counting ``CostMeter`` under the P4 panel
  on the paper's Read-Only and Balanced mixes and a 32-row scan stream:
  ``charge`` / ``charge_phased`` calls and ``phase()`` scopes per op.
  The counts are exact for a seeded stream; the ceilings sit just above
  them (at the parent commit: 8.4 charges per B+tree lookup, 36-199 per
  scan).
* **An in-run ns microgate.**  ``charge``, a ``SyncedMeter`` charge and
  a ``with meter.phase(..)`` scope, each as a ratio to something timed
  in the same process, interleaved — an empty method call, or the
  plain ``charge`` — so a slow box moves both sides.
"""

import timeit

from common import Empty, dataset_keys, print_header, run_once
from repro.core.cost import KEY_COMPARE, PHASE_SEARCH, CostMeter, SyncedMeter
from repro.core.registry import REGISTRY
from repro.core.report import table
from repro.core.workloads import apply_op, mixed_workload, scan_workload

PANEL = ("ALEX", "LIPP", "PGM", "B+tree")
#: Fixed sizes, whatever ``GRE_SCALE`` says: the counts depend on tree
#: height, and the ceilings below are stated for this height.
_KEYS = 6_000
_OPS = 3_000
_SCANS = 500
#: Stream -> (max ``charge`` calls, max ``phase()`` scopes) per op, for
#: every index of the panel.
_CEILINGS = {
    "read-only": (5.5, 1.0),
    "balanced": (6.0, 2.0),
    "scan-32": (7.5, 0.0),
}
#: In-run ratios (best of ``_REPEATS`` x ``_LOOPS`` calls each).  They
#: read 3.4-5.2 / 1.0-1.5 / 1.2-1.8 from one process to the next (hash
#: seed and allocation layout move a dict update by tens of ns); at the
#: parent commit they read 4.5 / 2.6 / 5.2, so each gate sits between.
_MAX_CHARGE_OVER_EMPTY_CALL = 7.0
_MAX_SYNCED_OVER_CHARGE = 1.9
_MAX_SCOPE_OVER_CHARGE = 2.5
_REPEATS = 25
_LOOPS = 50_000


class CallCountingMeter(CostMeter):
    """A meter that counts the calls the indexes make on it."""

    __slots__ = ("charges", "scopes")

    def __init__(self) -> None:
        super().__init__()
        self.charges = 0
        self.scopes = 0

    def charge(self, kind, n=1.0):
        self.charges += 1
        CostMeter.charge(self, kind, n)

    def charge_phased(self, phase, kind, n=1.0):
        self.charges += 1
        CostMeter.charge_phased(self, phase, kind, n)

    def phase(self, name):
        self.scopes += 1
        return CostMeter.phase(self, name)


def _streams():
    keys = list(dataset_keys("covid", _KEYS))
    return [mixed_workload(keys, 0.0, n_ops=_OPS, seed=4),
            mixed_workload(keys, 0.5, n_ops=_OPS, seed=4),
            scan_workload(keys, 32, _SCANS, seed=4)]


def test_charge_calls_per_op_stay_counted():
    rows = []
    over = []
    for workload in _streams():
        max_charges, max_scopes = _CEILINGS[workload.name]
        for name in PANEL:
            meter = CallCountingMeter()
            index = REGISTRY.create(name, meter=meter)
            index.bulk_load(workload.bulk_items)
            meter.charges = meter.scopes = 0
            for op in workload.operations:
                apply_op(index, op)
            n = len(workload.operations)
            charges, scopes = meter.charges / n, meter.scopes / n
            rows.append([workload.name, name, f"{charges:.2f}",
                         f"{max_charges:.1f}", f"{scopes:.2f}",
                         f"{max_scopes:.1f}"])
            if charges > max_charges or scopes > max_scopes:
                over.append((workload.name, name, charges, scopes))
    print_header("Meter calls per op (call-counting meter, "
                 f"{_KEYS} covid keys)")
    print(table(["Stream", "Index", "charges/op", "max", "scopes/op", "max"],
                rows))
    assert not over, over


def _micro():
    plain, synced, empty = CostMeter(), SyncedMeter(), Empty()

    def scope(meter):
        def use():
            with meter.phase(PHASE_SEARCH):
                pass
        return use

    calls = {
        "empty method call": lambda: empty.call(),
        "CostMeter.charge": lambda: plain.charge(KEY_COMPARE),
        "SyncedMeter.charge": lambda: synced.charge(KEY_COMPARE),
        "with CostMeter.phase": scope(plain),
        "with SyncedMeter.phase": scope(synced),
    }
    # Interleaved: every repeat times all five, each keeps its best, so
    # a noisy stretch of the box cannot fall on one of them alone.
    ns = dict.fromkeys(calls, float("inf"))
    for _ in range(_REPEATS):
        for name, fn in calls.items():
            ns[name] = min(ns[name],
                           timeit.timeit(fn, number=_LOOPS) / _LOOPS * 1e9)
    charge = ns["CostMeter.charge"]
    ratios = {
        "charge / empty call": charge / ns["empty method call"],
        "synced charge / charge": ns["SyncedMeter.charge"] / charge,
        "scope / charge": ns["with CostMeter.phase"] / charge,
        "synced scope / synced charge":
            ns["with SyncedMeter.phase"] / ns["SyncedMeter.charge"],
    }
    print_header(f"Meter microbenchmark (best of {_REPEATS} x {_LOOPS} calls)")
    print(table(["Call", "ns"], [[k, f"{v:.0f}"] for k, v in ns.items()]))
    print(table(["Ratio", "x"], [[k, f"{v:.2f}"] for k, v in ratios.items()]))
    return ratios


def test_meter_calls_cost_a_dict_update(benchmark):
    ratios = run_once(benchmark, _micro)
    assert ratios["charge / empty call"] <= _MAX_CHARGE_OVER_EMPTY_CALL
    assert ratios["synced charge / charge"] <= _MAX_SYNCED_OVER_CHARGE
    assert ratios["scope / charge"] <= _MAX_SCOPE_OVER_CHARGE
    assert ratios["synced scope / synced charge"] <= _MAX_SCOPE_OVER_CHARGE
