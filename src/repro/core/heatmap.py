"""Data × workload throughput heatmaps (Figures 2, 4, 7, 14, 16).

Each cell compares the *best* learned index against the *best*
traditional index on one (dataset, workload) pair.  Following the
paper's convention the cell value is a signed ratio:

* negative (rendered ``L``) — a learned index wins by ``|value|×``,
* positive (rendered ``T``) — a traditional index wins by ``value×``.

Grid execution rides the sweep engine (:mod:`repro.core.sweep`):
:func:`sweep_heatmap` expands (datasets × workloads × indexes) into
independent tasks, runs them across processes with content-addressed
caching, and aggregates winners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.sweep import (
    DatasetSpec,
    SweepCache,
    SweepReport,
    WorkloadSpec,
    plan_grid,
    run_sweep,
)

@dataclass
class HeatmapCell:
    dataset: str
    workload: str
    best_learned: str
    best_traditional: str
    learned_mops: float
    traditional_mops: float

    @property
    def ratio(self) -> float:
        """Signed winner ratio (negative = learned index wins)."""
        if self.learned_mops >= self.traditional_mops:
            if self.traditional_mops <= 0:
                return -float("inf")
            return -self.learned_mops / self.traditional_mops
        if self.learned_mops <= 0:
            return float("inf")
        return self.traditional_mops / self.learned_mops

    @property
    def learned_wins(self) -> bool:
        return self.learned_mops >= self.traditional_mops


@dataclass
class Heatmap:
    """Grid of cells, indexed [dataset][workload]."""

    datasets: List[str]
    workloads: List[str]
    cells: Dict[Tuple[str, str], HeatmapCell] = field(default_factory=dict)

    def cell(self, dataset: str, workload: str) -> HeatmapCell:
        return self.cells[(dataset, workload)]

    def learned_win_fraction(self) -> float:
        """Fraction of the data-workload space won by learned indexes
        (the paper's Message 1: >80% single-threaded)."""
        wins = sum(1 for c in self.cells.values() if c.learned_wins)
        return wins / max(len(self.cells), 1)

    def winners(self) -> Dict[Tuple[str, str], str]:
        """Per-cell winning index name (Figure 4's annotation)."""
        return {
            key: c.best_learned if c.learned_wins else c.best_traditional
            for key, c in self.cells.items()
        }

    def render(self) -> str:
        """ASCII rendering in the paper's layout (rows = datasets)."""
        w = max((len(x) for x in self.workloads), default=0) + 2
        lines = []
        header = " " * 10 + "".join(f"{x:>{w}}" for x in self.workloads)
        lines.append(header)
        for ds in self.datasets:
            row = f"{ds:>9} "
            for wl in self.workloads:
                c = self.cells.get((ds, wl))
                if c is None:
                    row += " " * (w - 4) + "  - "
                    continue
                tag = "L" if c.learned_wins else "T"
                row += f"{tag}{abs(c.ratio):>{w - 2}.2f} "
            lines.append(row)
        lines.append("")
        lines.append("L = best learned index wins, T = best traditional wins;")
        lines.append("value = winner's throughput / loser's throughput.")
        return "\n".join(lines)


def heatmap_from_throughputs(
    datasets: Sequence[str],
    workloads: Sequence[str],
    throughputs: Dict[Tuple[str, str, str], float],
    learned_names: Sequence[str],
    traditional_names: Sequence[str],
    on_cell: Optional[Callable[[HeatmapCell], None]] = None,
) -> Heatmap:
    """Aggregate per-(dataset, workload, index) throughputs into a heatmap.

    Winner selection matches the historical loop: candidates are tried
    in the given name order and ties keep the earlier index.  Cells
    with no measured candidates are left out of the grid (rendered
    ``-``).
    """
    hm = Heatmap(datasets=list(datasets), workloads=list(workloads))
    for ds in datasets:
        for wl in workloads:
            best_l = _best(throughputs, ds, wl, learned_names)
            best_t = _best(throughputs, ds, wl, traditional_names)
            if best_l is None and best_t is None:
                continue
            cell = HeatmapCell(
                dataset=ds,
                workload=wl,
                best_learned=best_l[0] if best_l else "",
                best_traditional=best_t[0] if best_t else "",
                learned_mops=best_l[1] if best_l else -1.0,
                traditional_mops=best_t[1] if best_t else -1.0,
            )
            hm.cells[(ds, wl)] = cell
            if on_cell is not None:
                on_cell(cell)
    return hm


def _best(
    throughputs: Dict[Tuple[str, str, str], float],
    dataset: str,
    workload: str,
    names: Sequence[str],
) -> Optional[Tuple[str, float]]:
    best_name, best_mops = "", -1.0
    found = False
    for name in names:
        mops = throughputs.get((dataset, workload, name))
        if mops is None:
            continue
        found = True
        if mops > best_mops:
            best_name, best_mops = name, mops
    return (best_name, best_mops) if found else None


def sweep_heatmap(
    datasets: Sequence[DatasetSpec],
    workloads: Sequence[WorkloadSpec],
    learned_names: Sequence[str],
    traditional_names: Sequence[str],
    jobs: Optional[int] = None,
    cache: Optional[SweepCache] = None,
    mode: str = "single",
    threads: int = 1,
    sockets: int = 1,
    on_cell: Optional[Callable[[HeatmapCell], None]] = None,
) -> Tuple[Heatmap, SweepReport]:
    """The heatmap grid on the sweep engine: parallel, cached, by spec.

    Expands (datasets × workloads × learned+traditional) into
    :class:`~repro.core.sweep.SweepTask`s, executes them via
    :func:`~repro.core.sweep.run_sweep` and aggregates winners.  With
    ``mode="multicore"`` the names must be concurrent-variant names and
    each cell replays on ``threads`` simulated cores (Figure 4).
    """
    names = [*learned_names, *traditional_names]
    tasks = plan_grid(datasets, workloads, names,
                      mode=mode, threads=threads, sockets=sockets)
    report = run_sweep(tasks, jobs=jobs, cache=cache)
    throughputs = {
        (c.task.dataset.name, c.task.workload.label, c.task.index): c.throughput_mops
        for c in report.cells
    }
    hm = heatmap_from_throughputs(
        [d.name for d in datasets], [w.label for w in workloads], throughputs,
        learned_names=learned_names, traditional_names=traditional_names,
        on_cell=on_cell,
    )
    return hm, report
