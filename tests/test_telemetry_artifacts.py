"""Freeze what a fully observed run leaves behind.

``tests/corpus/telemetry_artifacts.json`` holds, per cell, one sha256
each over the artifacts of ``Telemetry.full()`` + ``EventBus`` +
``SLOTracker`` riding one ``ExecutionEngine.run`` of a bus-attached
instance: the trace's ``events`` and ``to_chrome()``, the collector's
``series``, the profiler's ``cells`` (items in order) and ``rows()``,
the bus log (the instance's ``state`` events among it), and the
tracker's windows and summary.  Cells: the P4 panel (ALEX, LIPP, PGM,
B+tree) on ``observer_reference``'s ``parity_case`` stream and on a
write-heavy mix of 4,000 osm keys.  Every window is 64 ops, the
engine's one size.

The code before the window size moved onto the engine writes the
identical file with its collector, tracker and bus emitter each set to
64; the test regenerates it and compares byte for byte.  Regenerate
only with an intended behaviour change::

    PYTHONPATH=src python -m tests.test_telemetry_artifacts
"""

import hashlib
import json
import os

from repro.core.events import EventBus
from repro.core.instance import IndexInstance
from repro.core.registry import REGISTRY
from repro.core.runner import ExecutionEngine
from repro.core.slo import SLOTracker
from repro.core.sweep import DatasetSpec
from repro.core.telemetry import Telemetry
from repro.core.workloads import mixed_workload
from tests import observer_reference as reference

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "corpus",
                           "telemetry_artifacts.json")

PANEL = ("ALEX", "LIPP", "PGM", "B+tree")


def cells():
    """``label -> (factory, workload)``."""
    heavy = mixed_workload(DatasetSpec("osm", 4000, 0).keys(), 0.8,
                           n_ops=1500, seed=5)
    out = {}
    for name in PANEL:
        out[f"{name}/parity_case"] = reference.parity_case(name)
        out[f"{name}/write-heavy"] = (REGISTRY.get(name).factory, heavy)
    return out


def _digest(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def artifacts(factory, workload):
    """Every artifact of one fully observed run, by name."""
    bus = EventBus()
    slo = SLOTracker(bus=bus)
    tel = Telemetry.full()
    # ``repro run --events`` attaches the tracker ahead of the stack.
    engine = ExecutionEngine(observers=[slo], telemetry=tel, bus=bus,
                             window_ops=64)
    engine.run(IndexInstance(factory()).attach_bus(bus), workload)
    return {
        "trace_events": tel.trace.events,
        "trace_chrome": tel.trace.to_chrome(),
        "metric_series": tel.metrics.series,
        "profiler_cells": list(tel.profiler.cells.items()),
        "profiler_rows": tel.profiler.rows(),
        "bus_log": bus.events(),
        "slo_windows": slo.windows,
        "slo_summary": slo.summary(),
    }


def render():
    doc = {}
    for label, (factory, workload) in cells().items():
        found = artifacts(factory, workload)
        doc[label] = {"n_ops": workload.n_ops,
                      "trace_events": len(found["trace_events"]),
                      "bus_events": len(found["bus_log"]),
                      **{f"{name}_sha256": _digest(obj)
                         for name, obj in found.items()}}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_telemetry_artifacts_match_the_frozen_corpus():
    with open(CORPUS_PATH) as fh:
        frozen = fh.read()
    rendered = render()
    assert json.loads(rendered) == json.loads(frozen)
    assert rendered == frozen


if __name__ == "__main__":
    with open(CORPUS_PATH, "w") as fh:
        fh.write(render())
    print(f"wrote {CORPUS_PATH}")
