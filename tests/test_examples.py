"""The examples must keep running end-to-end (subprocess smoke tests)."""

import os
import subprocess
import sys


_EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def _run(script, *args, timeout=300):
    return subprocess.run(
        [sys.executable, os.path.join(_EXAMPLES, script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_quickstart_runs():
    r = _run("quickstart.py")
    assert r.returncode == 0, r.stderr
    assert "Balanced workload" in r.stdout
    assert "ALEX" in r.stdout and "B+tree" in r.stdout


def test_index_advisor_runs_and_validates():
    r = _run("index_advisor.py", "covid")
    assert r.returncode == 0, r.stderr
    assert "shortlist" in r.stdout
    assert "empirical best" in r.stdout


def test_evolving_workload_runs():
    r = _run("evolving_workload.py")
    assert r.returncode == 0, r.stderr
    assert "Distribution shift" in r.stdout
    assert "PGM" in r.stdout


def test_capacity_planning_runs():
    r = _run("capacity_planning.py")
    assert r.returncode == 0, r.stderr
    assert "B/key" in r.stdout
    assert "LIPP" in r.stdout

