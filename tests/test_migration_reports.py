"""Freeze what ``run_migration`` reports and publishes.

``tests/corpus/migration_reports.json`` holds, per configuration, the
``MigrationReport.to_dict()`` less ``wall_seconds`` and one sha256 over
the run's full bus event log.  The grid is four pairs (B+tree -> ALEX,
ALEX -> B+tree, B+tree -> PGM, LIPP -> B+tree) x pump 1, 2, 3, 5 x
chunk 32, 128, plus one run whose destination lies on lookups and is
rolled back.  A pump above one can finish verification with pumps of
the same op still to go, which is where the cutover's timing lives.

The file was generated at the commit before the multiplexer lost its
self-cutover; the test regenerates it and compares byte for byte.
Regenerate only with an intended behaviour change::

    PYTHONPATH=src python tests/test_migration_reports.py
"""

import hashlib
import json
import os

from repro.core.events import EventBus
from repro.core.migrate import run_migration
from repro.core.sweep import DatasetSpec
from repro.core.workloads import churn_workload
from repro.indexes.btree import BPlusTree

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "corpus",
                           "migration_reports.json")

PAIRS = (("btree", "alex"), ("alex", "btree"), ("btree", "pgm"),
         ("lipp", "btree"))
PUMPS = (1, 2, 3, 5)
CHUNKS = (32, 128)


class LyingLookupBTree(BPlusTree):
    """Answers every lookup of a present key wrong: fails verification."""

    def lookup(self, key):
        value = super().lookup(key)
        return value ^ 1 if isinstance(value, int) else value


def cells():
    """``label -> run_migration keyword arguments``."""
    out = {}
    for src, dst in PAIRS:
        for pump in PUMPS:
            for chunk in CHUNKS:
                out[f"{src}-{dst}-pump{pump}-chunk{chunk}"] = dict(
                    src=src, dst=dst, pump_per_op=pump, chunk=chunk)
    out["btree-btree-lying-abort"] = dict(
        src="btree", dst="btree", pump_per_op=1, chunk=32,
        dst_factory=LyingLookupBTree)
    return out


def render():
    keys = DatasetSpec("covid", 1500, 0).keys()
    workload = churn_workload(keys, write_frac=0.5, n_ops=1200, seed=0)
    doc = {}
    for label, kwargs in cells().items():
        bus = EventBus()
        report = run_migration(workload=workload, bus=bus, **kwargs)
        row = report.to_dict()
        del row["wall_seconds"]
        row["events"] = len(bus)
        row["events_sha256"] = hashlib.sha256(
            json.dumps(bus.events()).encode()).hexdigest()
        doc[label] = row
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_migration_reports_match_the_frozen_corpus():
    with open(CORPUS_PATH) as fh:
        frozen = fh.read()
    rendered = render()
    assert json.loads(rendered) == json.loads(frozen)
    assert rendered == frozen


if __name__ == "__main__":
    with open(CORPUS_PATH, "w") as fh:
        fh.write(render())
    print(f"wrote {CORPUS_PATH}")
