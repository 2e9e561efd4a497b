"""Time-resolved telemetry over write-heavy runs (SMO storms, memory growth).

End-of-run aggregates hide *when* structural work happens; the paper's
tail-latency story (Figure 10) is really about bursts.  This benchmark
records windowed SMO-rate / throughput / memory time-series for ALEX
and LIPP on a write-only stream and prints them, asserting the
qualitative shape: structural work arrives in observable windows,
memory only grows, and the trace accounts for every operation's virtual
time.
"""

from common import N_OPS, dataset_keys, print_header, run_once
from repro.core.report import series, table
from repro.core.runner import execute
from repro.core.telemetry import Telemetry
from repro.core.workloads import mixed_workload
from repro.indexes.alex import ALEX
from repro.indexes.lipp import LIPP

_INDEXES = {"ALEX": ALEX, "LIPP": LIPP}
_DATASET = "osm"
_WINDOW = 128


def _run():
    out = {}
    wl = mixed_workload(list(dataset_keys(_DATASET)), 1.0,
                        n_ops=N_OPS, seed=2)
    for name, factory in _INDEXES.items():
        tel = Telemetry.full()
        result = execute(factory(), wl, telemetry=tel, window_ops=_WINDOW)
        out[name] = (result, tel)

    print_header(f"Telemetry time-series: write-only on {_DATASET} "
                 f"(window = {_WINDOW} ops)")
    rows = []
    for name, (result, tel) in out.items():
        smo = tel.metrics.samples("smo_rate")
        storms = tel.metrics.smo_storms()
        rows.append([
            name, f"{result.throughput_mops:.2f}", len(smo),
            f"{max(s['value'] for s in smo):.2f}",
            len(storms), f"{tel.metrics.memory_growth():.2f}x",
        ])
        xs = [f"{s['t_ns'] / 1e6:.2f}" for s in smo]
        print(series(f"{name} smo_rate(t_ms)", xs,
                     [s["value"] for s in smo]))
    print()
    print(table(["Index", "Mops", "windows", "peak SMO rate",
                 "storms", "memory growth"], rows))
    return out


def test_telemetry_timeseries(benchmark):
    out = run_once(benchmark, _run)
    for name, (result, tel) in out.items():
        spans = tel.trace.spans()
        # The trace accounts for every op and its full virtual cost.
        assert len(spans) == result.n_ops
        assert abs(sum(s["dur_ns"] for s in spans) - result.virtual_ns) < 1e-6 * result.virtual_ns
        smo = tel.metrics.samples("smo_rate")
        # (write-only streams cap n_ops at the insertable half of the keys)
        assert len(smo) >= result.n_ops // _WINDOW
        # Write-only stream: structural work is visible in the windows...
        assert max(s["value"] for s in smo) > 0
        # ...and the structure only grows.
        mem = tel.metrics.samples("memory_bytes")
        assert mem[-1]["value"] > mem[0]["value"]
        # Profiler reconciles with the meter on the same run.
        assert abs(tel.profiler.total_ns() - result.virtual_ns) < 1e-6 * result.virtual_ns
