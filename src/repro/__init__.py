"""GRE — a benchmarking suite for updatable learned indexes.

Reproduction of *"Are Updatable Learned Indexes Ready?"* (Wongkham,
Lu, Liu, Zhong, Lo, Wang — PVLDB 15(11), 2022).

Public API highlights::

    from repro import ALEX, LIPP, PGMIndex, BPlusTree, ART
    from repro import mixed_workload, execute
    from repro.core.hardness import global_hardness, local_hardness
    from repro.datasets import registry

    keys = registry.get("genome").generate(100_000)
    idx = ALEX()
    result = execute(idx, mixed_workload(keys, write_frac=0.5))
    print(result.throughput_mops, result.memory.total)
"""

from repro.core.bench_history import append_history, check_history
from repro.core.cost import CostMeter
from repro.core.events import EventBus
from repro.core.hardness import (
    global_hardness,
    local_hardness,
    mse_hardness,
    optimal_pla,
    pla_hardness,
)
from repro.core.heatmap import Heatmap
from repro.core.instance import IndexInstance
from repro.core.migrate import MigrationReport, run_migration
from repro.core.opstream import (
    DifferentialObserver,
    OpStream,
    OracleReport,
    run_oracle,
)
from repro.core.registry import REGISTRY, IndexRegistry, IndexSpec
from repro.core.slo import ControlTower, SLOTarget, SLOTracker
from repro.core.runner import (
    ExecutionEngine,
    ExecutionObserver,
    OpEvent,
    RunResult,
    execute,
)
from repro.core.telemetry import (
    CostProfiler,
    MetricsCollector,
    Telemetry,
    TraceRecorder,
)
from repro.core.validate import ValidationObserver, Violation, debug_validate
from repro.core.workloads import (
    Workload,
    churn_workload,
    deletion_workload,
    mixed_workload,
    scan_workload,
    shift_workload,
    ycsb_workload,
)
from repro.indexes.multiplex import MultiplexIndex
from repro.indexes.alex import ALEX
from repro.indexes.art import ART
from repro.indexes.base import MemoryBreakdown, OrderedIndex
from repro.indexes.btree import BPlusTree
from repro.indexes.finedex import FINEdex
from repro.indexes.fiting_tree import FITingTree
from repro.indexes.hot import HOT
from repro.indexes.lipp import LIPP
from repro.indexes.masstree import Masstree
from repro.indexes.pgm import PGMIndex
from repro.indexes.rmi import RMI
from repro.indexes.wormhole import Wormhole
from repro.indexes.xindex import XIndex

__version__ = "1.2.0"

#: Single-threaded index families as evaluated in Section 4.1 — derived
#: views over the capability registry (see repro.core.registry).
LEARNED_INDEXES = REGISTRY.factories(tag="core", learned=True)
TRADITIONAL_INDEXES = REGISTRY.factories(tag="core", learned=False)

__all__ = [
    "ALEX", "ART", "BPlusTree", "FINEdex", "FITingTree", "HOT", "LIPP",
    "Masstree", "PGMIndex", "RMI", "Wormhole", "XIndex",
    "ControlTower", "CostMeter", "CostProfiler", "DifferentialObserver",
    "EventBus", "ExecutionEngine",
    "ExecutionObserver", "Heatmap", "IndexInstance", "IndexRegistry",
    "IndexSpec", "MemoryBreakdown", "MetricsCollector",
    "MigrationReport", "MultiplexIndex", "OpEvent",
    "SLOTarget", "SLOTracker", "append_history", "check_history",
    "OpStream", "OracleReport", "OrderedIndex", "REGISTRY", "RunResult",
    "Telemetry", "TraceRecorder", "ValidationObserver", "Violation",
    "Workload", "churn_workload", "debug_validate",
    "deletion_workload", "execute", "run_migration", "run_oracle",
    "global_hardness", "local_hardness", "mixed_workload", "mse_hardness",
    "optimal_pla", "pla_hardness", "scan_workload", "shift_workload",
    "ycsb_workload", "LEARNED_INDEXES", "TRADITIONAL_INDEXES",
]
