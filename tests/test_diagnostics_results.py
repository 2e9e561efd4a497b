"""Diagnostics probes and the versioned result artifacts."""

import json
import random

import pytest

from repro import ALEX, BPlusTree, LIPP, PGMIndex, execute, mixed_workload
from repro.core.diagnostics import diagnose
from repro.core.results import (
    SCHEMA_VERSION,
    compare,
    load_jsonl,
    result_record,
    save_jsonl,
)

KEYS = sorted(random.Random(0).sample(range(2**40), 4000))


def _loaded(factory, frac=0.5):
    idx = factory()
    execute(idx, mixed_workload(KEYS, frac, n_ops=3000, seed=1))
    return idx


# -- diagnostics --------------------------------------------------------------

def test_diagnose_alex_metrics():
    idx = _loaded(ALEX)
    rep = diagnose(idx, KEYS[:200])
    assert rep.index_name == "ALEX"
    assert rep.metrics["data_nodes"] >= 1
    assert 0 < rep.metrics["avg_density"] <= 1
    assert "bytes_per_key" in rep.metrics
    assert rep.metrics["sample_hit_rate"] > 0.3
    assert "Diagnosis" in rep.render()


def test_diagnose_alex_flags_write_amplification():
    # Clustered data: huge shifts per insert.
    keys = sorted({c * 2**40 + o for c in range(10) for o in range(400)})
    idx = ALEX()
    idx.bulk_load([(k, k) for k in list(keys)[::2]])
    for k in list(keys)[1::2]:
        idx.insert(k, k)
    rep = diagnose(idx)
    assert any("write amplification" in f for f in rep.findings)


def test_diagnose_lipp_metrics():
    idx = _loaded(LIPP)
    rep = diagnose(idx, KEYS[:100])
    assert rep.metrics["nodes"] >= 1
    assert rep.metrics["max_depth"] >= 1
    assert "root_child_fraction" in rep.metrics
    assert any("B/key" in f or True for f in rep.findings)  # render works
    rep.render()


def test_diagnose_pgm_flags_many_runs():
    idx = PGMIndex(buffer_size=16, merge_policy="tiered", tier_fanout=8)
    idx.bulk_load([])
    for i in range(3000):
        idx.insert(i * 3, i)
    rep = diagnose(idx)
    assert rep.metrics["live_runs"] >= 1
    if rep.metrics["live_runs"] > 6:
        assert any("live runs" in f for f in rep.findings)


def test_diagnose_generic_index():
    idx = _loaded(BPlusTree)
    rep = diagnose(idx, KEYS[:50])
    assert rep.metrics["avg_path_nodes"] >= 1
    assert rep.n_keys == len(idx)


# -- result store (an append-only JSON-lines file) ------------------------------

def _result(factory=BPlusTree, frac=0.0):
    return execute(factory(), mixed_workload(KEYS, frac, n_ops=800, seed=2))


def test_store_append_and_load(tmp_path):
    path = str(tmp_path / "r.jsonl")
    r = _result()
    save_jsonl([r], path, tags={"run": "1"}, append=True)
    save_jsonl([r], path, append=True)
    records = load_jsonl(path)
    assert len(records) == 2
    assert records[0]["tags"] == {"run": "1"}
    assert records[1]["index"] == "B+tree"


def test_store_missing_file_is_empty(tmp_path):
    assert load_jsonl(str(tmp_path / "absent.jsonl")) == []


def test_store_corrupt_line_raises(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text('{"ok": 1}\nnot json\n')
    with pytest.raises(ValueError, match="corrupt"):
        load_jsonl(str(path))


# -- versioned artifacts -------------------------------------------------------

def test_result_record_stamps_schema_version():
    record = result_record(_result(), tags={"commit": "abc"})
    assert record["schema_version"] == SCHEMA_VERSION
    assert record["tags"] == {"commit": "abc"}
    assert record["index"] == "B+tree"


def test_save_load_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    r = _result()
    assert save_jsonl([r, r], path, tags={"run": "a"}) == 2
    assert save_jsonl([r], path, append=True) == 1
    records = load_jsonl(path)
    assert len(records) == 3
    assert all(rec["schema_version"] == SCHEMA_VERSION for rec in records)
    assert records[0]["tags"] == {"run": "a"}
    assert "tags" not in records[2]
    # Without append=True the file is rewritten, not extended.
    assert save_jsonl([r], path) == 1
    assert len(load_jsonl(path)) == 1


def test_load_jsonl_accepts_legacy_unversioned_records(tmp_path):
    path = tmp_path / "legacy.jsonl"
    path.write_text('{"index": "X", "workload": "w", "throughput_mops": 1.0}\n')
    records = load_jsonl(str(path))
    assert len(records) == 1
    assert "schema_version" not in records[0]  # version 0, passed through


def test_load_jsonl_rejects_newer_schema(tmp_path):
    path = tmp_path / "future.jsonl"
    path.write_text(json.dumps({"index": "X", "schema_version": SCHEMA_VERSION + 1}) + "\n")
    with pytest.raises(ValueError, match="newer than supported"):
        load_jsonl(str(path))
    path.write_text('{"schema_version": "two"}\n')
    with pytest.raises(ValueError, match="newer than supported"):
        load_jsonl(str(path))


def test_store_records_are_versioned(tmp_path):
    path = str(tmp_path / "r.jsonl")
    save_jsonl([_result()], path, append=True)
    assert load_jsonl(path)[0]["schema_version"] == SCHEMA_VERSION


def test_compare_flags_throughput_regression():
    base = [{"index": "X", "workload": "w", "throughput_mops": 10.0}]
    cur = [{"index": "X", "workload": "w", "throughput_mops": 8.0}]
    regs = compare(base, cur, threshold=0.10)
    assert len(regs) == 1
    assert regs[0].metric == "throughput_mops"
    assert regs[0].change == pytest.approx(-0.2)
    assert "-20" in str(regs[0]) or "-20.0%" in str(regs[0])


def test_compare_flags_latency_regression():
    base = [{"index": "X", "workload": "w", "throughput_mops": 10.0,
             "lookup_latency": {"p999": 100.0}}]
    cur = [{"index": "X", "workload": "w", "throughput_mops": 10.0,
            "lookup_latency": {"p999": 180.0}}]
    regs = compare(base, cur)
    assert len(regs) == 1
    assert regs[0].metric == "lookup_latency.p999"


def test_compare_ignores_improvements_and_new_pairs():
    base = [{"index": "X", "workload": "w", "throughput_mops": 10.0}]
    cur = [
        {"index": "X", "workload": "w", "throughput_mops": 15.0},
        {"index": "Y", "workload": "w", "throughput_mops": 0.1},
    ]
    assert compare(base, cur) == []


def test_compare_roundtrip_through_store(tmp_path):
    path_a = str(tmp_path / "a.jsonl")
    path_b = str(tmp_path / "b.jsonl")
    save_jsonl([_result(BPlusTree)], path_a, append=True)
    save_jsonl([_result(BPlusTree)], path_b, append=True)
    # Identical runs: no regressions.
    assert compare(load_jsonl(path_a), load_jsonl(path_b)) == []
