"""The capability registry and its derived catalogs.

Every legacy index catalog (``repro.LEARNED_INDEXES``,
``cli._ALL_INDEXES``, ``benchmarks.common.ST_*``, ``adapters.MT_*``)
must be a view over ``repro.core.registry.REGISTRY`` — these tests pin
that, plus the registry's own invariants.
"""

import importlib
import inspect
import os
import pkgutil
import re
import sys

import pytest

import repro
import repro.indexes
from repro.cli import _ALL_INDEXES, main
from repro.concurrency.adapters import MT_LEARNED, MT_TRADITIONAL, ConcurrencyAdapter
from repro.core.registry import REGISTRY, IndexRegistry, IndexSpec
from repro.indexes.alex import ALEX
from repro.indexes.base import OrderedIndex
from repro.indexes.btree import BPlusTree
from repro.indexes.lipp import LIPP


def _concrete_index_classes():
    """Every concrete OrderedIndex subclass defined under repro.indexes."""
    classes = set()
    for info in pkgutil.iter_modules(repro.indexes.__path__):
        module = importlib.import_module(f"repro.indexes.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if (
                issubclass(obj, OrderedIndex)
                and obj is not OrderedIndex
                and not inspect.isabstract(obj)
                and not obj.is_adapter  # wrappers compose registered indexes
                and obj.__module__ == module.__name__
            ):
                classes.add(obj)
    return classes


# -- registry invariants ------------------------------------------------------

def test_every_index_class_registered_exactly_once():
    classes = _concrete_index_classes()
    registered = [spec.factory for spec in REGISTRY]
    assert set(registered) == classes
    assert len(registered) == len(classes)  # no class under two names


#: ``repro list``'s capability columns per index: family, then an ``x``
#: for insert, delete, range, batch and migrate/shard.  The spec reads
#: each one off the index class; this is what that must reproduce.
CAPABILITIES = {
    "ALEX": ("learned", "x", "x", "x", "x", "x"),
    "LIPP": ("learned", "x", "x", "x", "x", "x"),
    "PGM": ("learned", "x", "x", "x", "x", "x"),
    "XIndex": ("learned", "x", "", "x", "x", "x"),
    "FINEdex": ("learned", "x", "", "x", "x", "x"),
    "FITing-Tree": ("learned", "x", "", "x", "x", "x"),
    "RMI": ("learned", "", "", "x", "x", ""),
    "B+tree": ("traditional", "x", "x", "x", "x", "x"),
    "ART": ("traditional", "x", "x", "x", "", "x"),
    "HOT": ("traditional", "x", "", "x", "", "x"),
    "Masstree": ("traditional", "x", "", "x", "", "x"),
    "Wormhole": ("traditional", "x", "", "x", "", "x"),
}


def test_capability_matrix(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
    spans = [m.span() for m in re.finditer(r"-+", lines[rule])]
    rows = [[line[a:b].strip() for a, b in spans]
            for line in lines[rule + 1:rule + 1 + len(REGISTRY)]]
    assert {row[0]: tuple(row[1:7]) for row in rows} == CAPABILITIES


def test_register_rejects_duplicate_names():
    reg = IndexRegistry()
    spec = IndexSpec(BPlusTree)
    reg.register(spec)
    with pytest.raises(ValueError, match="already registered"):
        reg.register(spec)


def test_get_unknown_name_raises_with_catalog():
    with pytest.raises(KeyError, match="unknown index"):
        REGISTRY.get("SPLAY")


def test_create_builds_instances():
    idx = REGISTRY.create("B+tree", fanout=8)
    idx.bulk_load([(1, 2), (3, 4)])
    assert idx.lookup(3) == 4


def test_bind_concurrent_rejects_rebinding():
    reg = IndexRegistry()
    reg.register(IndexSpec(BPlusTree))
    reg.bind_concurrent("B+tree", "X+", list)
    with pytest.raises(ValueError, match="already has concurrent"):
        reg.bind_concurrent("B+tree", "X++", tuple)


# -- derived catalogs ---------------------------------------------------------

def test_core_families_derive_from_registry():
    assert repro.LEARNED_INDEXES == REGISTRY.factories(tag="core", learned=True)
    assert repro.TRADITIONAL_INDEXES == REGISTRY.factories(tag="core", learned=False)
    assert list(repro.LEARNED_INDEXES) == ["ALEX", "LIPP", "PGM", "XIndex", "FINEdex"]
    assert list(repro.TRADITIONAL_INDEXES) == ["B+tree", "ART", "HOT"]


def test_cli_catalog_derives_from_registry():
    assert _ALL_INDEXES == REGISTRY.factories(tag="cli")
    # The historical composition: families plus FITing-Tree.
    assert _ALL_INDEXES == {
        **repro.LEARNED_INDEXES, "FITing-Tree": repro.FITingTree,
        **repro.TRADITIONAL_INDEXES,
    }


def test_benchmark_catalog_derives_from_registry():
    benchmarks_dir = os.path.join(os.path.dirname(__file__), "..", "benchmarks")
    sys.path.insert(0, os.path.abspath(benchmarks_dir))
    try:
        common = importlib.import_module("common")
    finally:
        sys.path.pop(0)
    assert common.ST_LEARNED == REGISTRY.factories(tag="heatmap", learned=True)
    assert common.ST_TRADITIONAL == REGISTRY.factories(tag="heatmap", learned=False)
    assert common.ST_ALL == {
        **common.ST_LEARNED,
        "PGM": REGISTRY.get("PGM").factory,
        **common.ST_TRADITIONAL,
    }
    assert "PGM" not in common.ST_LEARNED  # heatmap exclusion (paper §4.1)


def test_concurrent_catalogs_derive_from_registry():
    assert MT_LEARNED == REGISTRY.concurrent_factories(learned=True)
    assert MT_TRADITIONAL == REGISTRY.concurrent_factories(learned=False)
    assert set(MT_LEARNED) == {"ALEX+", "LIPP+", "XIndex", "FINEdex"}
    assert set(MT_TRADITIONAL) == {
        "ART-OLC", "B+TreeOLC", "HOT-ROWEX", "Masstree", "Wormhole",
    }
    for factory in {**MT_LEARNED, **MT_TRADITIONAL}.values():
        assert issubclass(factory, ConcurrencyAdapter) or callable(factory)


def test_pgm_adapter_bound_but_not_evaluated():
    spec = REGISTRY.get("PGM")
    assert spec.concurrent_factory is not None
    assert not spec.concurrent_evaluated
    assert "PGM" not in REGISTRY.concurrent_factories()
    assert "PGM" in REGISTRY.concurrent_factories(evaluated=False)


def test_capability_flags_cover_paper_notes():
    # The paper's Section 4.4 delete scoping, as encoded per index.
    assert REGISTRY.get("ALEX").supports_delete
    assert REGISTRY.get("LIPP").supports_delete
    assert not REGISTRY.get("Wormhole").supports_delete
    assert not REGISTRY.get("Masstree").supports_delete
    assert ALEX(duplicate_mode="inline").supports_duplicates
    assert not ALEX().supports_duplicates
    assert not LIPP.supports_duplicates


def test_filtered_views_compose():
    learned = REGISTRY.names(learned=True)
    traditional = REGISTRY.names(learned=False)
    assert set(learned) & set(traditional) == set()
    assert set(learned) | set(traditional) == set(REGISTRY.names())
    assert len(REGISTRY) == len(REGISTRY.names())
