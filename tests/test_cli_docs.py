"""Freeze what the five benchmark commands leave behind.

``repro bench``, ``sweep``, ``migrate``, ``shard`` and ``serve`` each
end in the same protocol — a document (``--json`` / ``--out`` /
``--bench``), a bench-history row (``--history`` / ``--check``) and an
exit code.  ``tests/corpus/cli_docs.json`` holds, per case below, the
exit code, the canonical JSON of every document the command printed or
wrote, and the history rows it appended (``suite``, ``context``,
``metrics``, ``fingerprint``, the *keys* of ``info``).  Provenance is
dropped; wall-clock and process-pool fields keep their key and lose
their value; a real-thread serve session keeps only its key set.  Each
command has one passing case and one failing one (``--min-speedup``,
``--min-verified``, ``--min-scaling``, a ``--check`` regression
against a doctored history).

The file was generated at the commit *before* the benchmark bodies
moved out of ``cli.py`` and ``core/`` into ``repro.bench``; the test
regenerates it in-process through ``cli.main`` and compares byte for
byte.  Regenerate only with an intended change to a document::

    PYTHONPATH=src python -m tests.test_cli_docs
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

from repro.cli import main
from repro.core.results import load_jsonl

DOCS_PATH = os.path.join(os.path.dirname(__file__), "corpus", "cli_docs.json")

#: Who/when fields: dropped.
PROVENANCE = {"git_rev", "timestamp"}
#: Wall-clock and process-pool fields: the key stays, the value goes.
VOLATILE = {
    "scalar_ops_per_s", "batch_ops_per_s", "speedup", "before_mops",
    "after_mops", "cells_per_sec", "max_wait_s", "jobs", "used_processes",
    "pool_jobs", "pool_used_processes", "pool_error", "cache_dir",
}

_SHARD = ["shard", "--index", "B+tree", "--dataset", "covid", "--n", "4000",
          "--lookups", "1500", "--ops", "4000", "--shard-counts", "1,2",
          "--jobs", "1", "--out", "{doc}", "--history", "{hist}"]
_SERVE = ["serve", "--index", "ALEX", "--dataset", "covid", "--n", "600",
          "--clients", "2", "--ops", "150", "--rebuild", "btree",
          "--chunk", "64", "--out", "{doc}", "--history", "{hist}"]
_SWEEP = ["sweep", "--datasets", "covid", "--workloads", "read-only,balanced",
          "--indexes", "ALEX,B+tree", "--n", "600", "--ops", "300",
          "--jobs", "1", "--no-cache", "--json", "--bench", "{doc}",
          "--out", "{cells}", "--history", "{hist}"]
_BENCH = ["bench", "--indexes", "ALEX,B+tree", "--dataset", "covid",
          "--n", "1500", "--lookups", "600", "--out", "{doc}",
          "--history", "{hist}"]
_MIGRATE = ["migrate", "btree", "alex", "--dataset", "covid", "--n", "600",
            "--ops", "400", "--workload", "churn:0.3", "--chunk", "64",
            "--json", "--bench", "{doc}", "--history", "{hist}"]

#: label -> (argv, doctor the history first?).  A doctored case runs
#: once to seed the history, doubles every throughput the seeded row
#: recorded, then runs again with ``--check``: a 50% regression.
CASES = {
    "bench": (_BENCH, False),
    "bench_min_speedup_fails": (_BENCH + ["--min-speedup", "1e9"], False),
    "bench_check_regression": (_BENCH + ["--check"], True),
    "sweep": (_SWEEP, False),
    "sweep_check_regression": (_SWEEP + ["--check"], True),
    "migrate": (_MIGRATE, False),
    "migrate_min_verified_fails": (_MIGRATE + ["--min-verified", "1.5"],
                                   False),
    "shard": (_SHARD + ["--json", "--min-scaling", "1.2"], False),
    "shard_min_scaling_fails": (_SHARD + ["--min-scaling", "100"], False),
    "serve": (_SERVE + ["--json"], False),
    "serve_threads": (_SERVE + ["--threads"], False),
    "serve_check_regression": (_SERVE + ["--check"], True),
}


def scrub(obj):
    """``obj`` without provenance and without wall / pool values."""
    if isinstance(obj, list):
        return [scrub(v) for v in obj]
    if not isinstance(obj, dict):
        return obj
    out = {}
    for key, value in obj.items():
        if key in PROVENANCE:
            continue
        if key == "threaded" and isinstance(value, dict):
            out[key] = sorted(value)
        elif key in VOLATILE or "wall" in key:
            out[key] = "~"
        else:
            out[key] = scrub(value)
    return out


def _main(argv):
    """``(exit code, stdout)`` of ``cli.main(argv)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _history_rows(path):
    return [
        {"suite": r["suite"], "context": r["context"], "metrics": r["metrics"],
         "info": sorted(r["info"]), "fingerprint": r["fingerprint"]}
        for r in (load_jsonl(path) if os.path.exists(path) else [])
    ]


def run_case(label):
    argv, doctored = CASES[label]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name)
                 for name in ("doc", "cells", "hist")}
        argv = [a.format(**paths) for a in argv]
        if doctored:
            seeding = [a for a in argv if a != "--check"]
            assert _main(seeding)[0] == 0
            row = load_jsonl(paths["hist"])[0]
            for name in row["metrics"]:
                if "mops" in name or "per_vsec" in name:
                    row["metrics"][name] *= 2.0
            with open(paths["hist"], "w") as fh:
                fh.write(json.dumps(row) + "\n")
            for name in ("doc", "cells"):
                if os.path.exists(paths[name]):
                    os.remove(paths[name])
        before = len(_history_rows(paths["hist"]))
        code, stdout = _main(argv)
        result = {"exit": code}
        if "--json" in argv:
            # A failed gate can return before the report is printed.
            result["stdout"] = scrub(json.JSONDecoder().raw_decode(
                stdout[stdout.index("{"):])[0]) if "{" in stdout else None
        if os.path.exists(paths["doc"]):
            with open(paths["doc"]) as fh:
                result["doc"] = scrub(json.load(fh))
        if os.path.exists(paths["cells"]):
            result["cells"] = scrub(load_jsonl(paths["cells"]))
        result["history"] = _history_rows(paths["hist"])[before:]
    return result


def render(docs):
    return json.dumps(docs, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def committed():
    with open(DOCS_PATH) as fh:
        return json.load(fh)


def test_cases_are_the_committed_ones(committed):
    assert sorted(committed) == sorted(CASES)


@pytest.mark.parametrize("label", sorted(CASES))
def test_documents_rows_and_exit_code_unchanged(label, committed):
    assert render(run_case(label)) == render(committed[label])


if __name__ == "__main__":
    with open(DOCS_PATH, "w") as out:
        out.write(render({label: run_case(label) for label in sorted(CASES)}))
    print(f"wrote {DOCS_PATH}")
