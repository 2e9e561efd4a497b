"""Freeze the *scalar* charge tables of every registry index.

Batch-vs-scalar parity (``tests/test_batch.py``) compares two paths that
change together; nothing else pins what the scalar paths charge.  This
module does: ``tests/corpus/charge_tables.json`` holds, for all 12
registry indexes × the 13 corpus streams plus one scan-heavy and one
delete-heavy stream, the meter's counter table after the replay —
``[phase, kind, value.hex()]`` in ``_counts`` order — and
``total_time().hex()``.  The test regenerates the file and compares it
byte for byte, so a change to what a scalar op charges, or to the order
in which it first touches each ``(phase, kind)`` counter, fails here by
index and stream.

Each index replays every stream, not only its own: ops it cannot serve
(RMI inserts, deletes and scans where unsupported) are skipped.  Every
counter value must be integer-valued — the assumption that lets a loop
count in locals and charge one total.

Regenerate (only when a cost-model change is intended; bump
``COST_MODEL_VERSION`` with it)::

    PYTHONPATH=src python -m tests.test_charge_tables
"""

import glob
import json
import os
import random

import pytest

from repro.core.opstream import OpStream, stress_factory
from repro.core.registry import REGISTRY
from repro.core.workloads import (
    DELETE,
    INSERT,
    LOOKUP,
    SCAN,
    UPDATE,
    Operation,
    apply_op,
    payload,
)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
TABLES_PATH = os.path.join(CORPUS_DIR, "charge_tables.json")
#: Shrunk reproductions of fixed bugs: a handful of ops each, replayed
#: under the oracle by ``tests/test_corpus.py``; they pin no tables.
REPRODUCTIONS = {"lipp-scan-zero"}


def _generated(name, mix, n_bulk=2048, n_ops=1200, key_space=1 << 40):
    """A seeded stream with op-kind shares ``mix`` (lookups take the
    remainder); deletes and lookups mostly hit present keys."""
    rng = random.Random(f"charge-tables-{name}")
    present = set()
    while len(present) < n_bulk:
        present.add(rng.randrange(1, key_space))
    bulk = sorted(present)
    live = list(bulk)
    ops = []
    for _ in range(n_ops):
        r = rng.random()
        hit = live and rng.random() < 0.85
        key = rng.choice(live) if hit else rng.randrange(1, key_space)
        if r < mix[INSERT]:
            if key not in present:
                present.add(key)
                live.append(key)
            ops.append(Operation(INSERT, key, payload(key)))
        elif r < mix[INSERT] + mix[DELETE]:
            if key in present:
                present.discard(key)
                live.remove(key)
            ops.append(Operation(DELETE, key))
        elif r < mix[INSERT] + mix[DELETE] + mix[UPDATE]:
            ops.append(Operation(UPDATE, key, payload(key) ^ 0x5A5A5A5A))
        elif r < mix[INSERT] + mix[DELETE] + mix[UPDATE] + mix[SCAN]:
            ops.append(Operation(
                SCAN, key, count=rng.choice((1, 8, 32, 64, 200))))
        else:
            ops.append(Operation(LOOKUP, key))
    return OpStream(index_name="*", seed=0, bulk_keys=bulk, ops=ops,
                    name=name)


def streams():
    """``(label, OpStream)`` for the corpus' sentinel and server
    streams, then the generated scan-heavy and delete-heavy streams."""
    out = [(os.path.basename(p)[:-len(".jsonl")], OpStream.load(p))
           for p in sorted(glob.glob(os.path.join(CORPUS_DIR, "*.jsonl")))]
    out = [(label, stream) for label, stream in out
           if label not in REPRODUCTIONS]
    out.append(("scan_heavy", _generated(
        "scan_heavy", {INSERT: 0.20, DELETE: 0.05, UPDATE: 0.05, SCAN: 0.55})))
    out.append(("delete_heavy", _generated(
        "delete_heavy", {INSERT: 0.25, DELETE: 0.45, UPDATE: 0.10, SCAN: 0.05})))
    return out


def charge_table(spec, stream):
    """Replay ``stream`` on ``spec``'s stress configuration and return
    the meter's table as JSON-ready rows plus the virtual clock."""
    index = stress_factory(spec.name)()
    index.bulk_load([(k, payload(k)) for k in stream.bulk_keys])
    served = {LOOKUP: True, UPDATE: True, INSERT: spec.supports_insert,
              DELETE: spec.supports_delete, SCAN: spec.supports_range}
    for op in stream.ops:
        if served[op.op]:
            apply_op(index, op)
    meter = index.meter
    for (phase, kind), v in meter._counts.items():
        assert float(v).is_integer(), (spec.name, stream.label, phase, kind, v)
    return {
        "counts": [[phase, kind, float(v).hex()]
                   for (phase, kind), v in meter._counts.items()],
        "total_time": float(meter.total_time()).hex(),
    }


def render(tables):
    """One table per line, so a drift shows as one changed line."""
    rows = [f"{json.dumps(key)}: {json.dumps(table, separators=(',', ':'))}"
            for key, table in tables.items()]
    return "{\n" + ",\n".join(rows) + "\n}\n"


def generate():
    all_streams = streams()
    return {f"{spec.name}/{label}": charge_table(spec, stream)
            for spec in REGISTRY for label, stream in all_streams}


@pytest.fixture(scope="module")
def committed():
    with open(TABLES_PATH) as fh:
        return fh.read()


@pytest.fixture(scope="module")
def regenerated():
    return generate()


def test_tables_cover_every_index_and_stream(committed, regenerated):
    assert len(regenerated) >= len(REGISTRY) * 15
    assert list(json.loads(committed)) == list(regenerated)


@pytest.mark.parametrize("name", [spec.name for spec in REGISTRY])
def test_scalar_charge_tables_are_frozen(name, committed, regenerated):
    want = json.loads(committed)
    for key, table in regenerated.items():
        if key.startswith(name + "/"):
            assert table == want[key], f"charge table drifted: {key}"


def test_charge_tables_file_is_byte_identical(committed, regenerated):
    assert render(regenerated) == committed


if __name__ == "__main__":
    with open(TABLES_PATH, "w") as fh:
        fh.write(render(generate()))
