"""Heatmap computation and rendering."""

import pytest

from repro import ALEX, BPlusTree
from repro.core.heatmap import Heatmap, HeatmapCell
from repro.core.workloads import mixed_workload
from tests.heatmap_reference import compute_heatmap


def _cell(l_mops, t_mops):
    return HeatmapCell("ds", "wl", "L1", "T1", l_mops, t_mops)


def test_cell_ratio_signs():
    assert _cell(2.0, 1.0).ratio == -2.0          # learned wins
    assert _cell(1.0, 2.0).ratio == 2.0           # traditional wins
    assert _cell(1.0, 1.0).ratio == -1.0          # tie goes to learned


def test_cell_ratio_degenerate():
    assert _cell(1.0, 0.0).ratio == -float("inf")
    assert _cell(0.0, 1.0).ratio == float("inf")


def test_win_fraction():
    hm = Heatmap(datasets=["a", "b"], workloads=["w"])
    hm.cells[("a", "w")] = _cell(2.0, 1.0)
    hm.cells[("b", "w")] = _cell(1.0, 2.0)
    assert hm.learned_win_fraction() == 0.5


def test_render_contains_all_cells():
    hm = Heatmap(datasets=["alpha"], workloads=["read", "write"])
    hm.cells[("alpha", "read")] = _cell(3.0, 1.0)
    hm.cells[("alpha", "write")] = _cell(1.0, 3.0)
    text = hm.render()
    assert "alpha" in text
    assert "L" in text and "T" in text
    assert "3.00" in text


def test_render_handles_missing_cells():
    hm = Heatmap(datasets=["alpha"], workloads=["read"])
    assert "-" in hm.render()


def test_render_handles_empty_workloads():
    # max() over an empty workload list used to raise ValueError.
    hm = Heatmap(datasets=["alpha"], workloads=[])
    text = hm.render()
    assert "alpha" in text
    assert Heatmap(datasets=[], workloads=[]).render()


def test_compute_heatmap_end_to_end():
    keys = list(range(0, 8000, 4))

    def build(ks, wl_name):
        frac = {"ro": 0.0, "bal": 0.5}[wl_name]
        return mixed_workload(list(ks), frac, n_ops=800, seed=1)

    seen = []
    hm = compute_heatmap(
        {"seq": keys},
        build,
        ["ro", "bal"],
        learned={"ALEX": ALEX},
        traditional={"B+tree": BPlusTree},
        on_cell=seen.append,
    )
    assert len(hm.cells) == 2
    assert len(seen) == 2
    cell = hm.cell("seq", "ro")
    assert cell.best_learned == "ALEX"
    assert cell.best_traditional == "B+tree"
    assert cell.learned_mops > 0 and cell.traditional_mops > 0


def test_cell_lookup_keyerror():
    hm = Heatmap(datasets=[], workloads=[])
    with pytest.raises(KeyError):
        hm.cell("x", "y")
