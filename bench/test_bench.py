"""Smoke test of the wall-clock benchmark (``pytest bench/``).

Not part of the tier-1 suite (``testpaths = ["tests"]``): it runs the
benchmark's own command at ``--scale smoke`` (2k keys, one timed round)
and checks the contract of ``BENCHMARK.json`` from the outside.
"""

import json
import os
import re
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(BENCH_DIR, "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def test_spec_is_within_the_contract_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_smoke_run_prints_every_declared_metric():
    t0 = time.perf_counter()
    done = subprocess.run(RUN + ["--scale", "smoke", "--trace", "1"],
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 20, f"smoke run took {elapsed:.1f} s"
    assert "PIN DRIFT" not in done.stdout
    results = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith('{"correct"')]
    assert len(results) == 2 * len(SPEC["workloads"])
    printed = {line.split()[0]: line.split()[2]
               for line in done.stdout.splitlines()
               if line and not line.startswith(("#", "{")) and len(line.split()) == 3}
    for declared in (SPEC["end_to_end"], SPEC["per_layer"]):
        units = {m["name"]: m["unit"] for m in declared}
        matching = [r for r in results if set(r["metrics"]) == set(units)]
        assert len(matching) == len(SPEC["workloads"])
        for result in matching:
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            assert {n: m["unit"] for n, m in result["metrics"].items()} == units
        assert all(printed.get(n) == u for n, u in units.items())
    assert done.stdout.count("failed_share=0.000000") == len(results)


def test_a_corrupted_expected_digest_fails_the_run(tmp_path):
    with open(os.path.join(BENCH_DIR, "expected.json")) as f:
        expected = json.load(f)
    good = expected["smoke"]["gre_read"]["digest"]
    expected["smoke"]["gre_read"]["digest"] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    done = subprocess.run(
        RUN + ["--workload", "gre_read", "--scale", "smoke",
               "--expected", str(corrupted)], capture_output=True, text=True)
    assert done.returncode != 0
    assert "PIN DRIFT gre_read.digest" in done.stdout
    assert good in done.stdout and "0" * 64 in done.stdout
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False
