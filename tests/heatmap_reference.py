"""The serial, callable-based heatmap grid as it stood in
``repro.core.heatmap`` before it left ``src/``.

``compute_heatmap`` runs every index on every (dataset, workload) cell
in-process from concrete keys and factories and aggregates winners with
the shipped :func:`~repro.core.heatmap.heatmap_from_throughputs`.
``tests/test_sweep.py`` compares ``sweep_heatmap`` with it cell for
cell and ``tests/test_heatmap.py`` drives it end to end; nothing else
imports this module (the ``tests/pla_reference.py`` precedent).
"""

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.heatmap import Heatmap, HeatmapCell, heatmap_from_throughputs
from repro.core.runner import execute
from repro.core.workloads import Workload
from repro.indexes.base import OrderedIndex

IndexFactory = Callable[[], OrderedIndex]


def compute_heatmap(
    dataset_keys: Dict[str, Sequence[int]],
    workload_builder: Callable[[Sequence[int], str], Workload],
    workload_names: Sequence[str],
    learned: Dict[str, IndexFactory],
    traditional: Dict[str, IndexFactory],
    on_cell: Optional[Callable[[HeatmapCell], None]] = None,
) -> Heatmap:
    """Run every index on every (dataset, workload) cell, serially.

    ``workload_builder(keys, workload_name)`` constructs each workload;
    factories build fresh index instances per run.  This is the
    callable-based interface — keys and factories are concrete values,
    so cells execute in-process.  For parallel, cached grids expressed
    by spec, use :func:`sweep_heatmap`.
    """
    throughputs: Dict[Tuple[str, str, str], float] = {}
    for ds_name, keys in dataset_keys.items():
        for wl_name in workload_names:
            workload = workload_builder(keys, wl_name)
            for idx_name, factory in {**learned, **traditional}.items():
                result = execute(factory(), workload)
                throughputs[(ds_name, wl_name, idx_name)] = result.throughput_mops
    return heatmap_from_throughputs(
        list(dataset_keys), list(workload_names), throughputs,
        learned_names=list(learned), traditional_names=list(traditional),
        on_cell=on_cell,
    )
