"""Freeze what every *op* of the delta-segment family leaves behind.

``tests/corpus/charge_tables.json`` pins each stream's final charge
table; batch-vs-scalar parity compares two paths that change together.
Neither pins what a single scalar op returns, charges or records.  This
module does, for the three indexes built on
``repro.indexes.segmented`` — FITing-Tree, FINEdex, XIndex:
``tests/corpus/segment_ops.json`` holds one sha256 per cell over, per
op, ``repr`` of what ``apply_op`` returned, ``total_time().hex()`` and
the ``last_op`` fields (``path`` carries node ids, so the allocation
sequence is pinned too), then ``memory_usage()`` and a clean
``debug_validate()`` at the end.  Cells: the 15
``test_charge_tables.streams()`` on the ``stress_factory``
configurations, plus each index's default configuration on one
20k-key / 6k-op stream with scans and insert bursts dense enough to
overflow the default buffers, bins and deltas.

The file was generated at the commit *before* the three indexes moved
onto the shared substrate; the test regenerates it and compares byte
for byte.  Regenerate only with an intended behaviour change::

    PYTHONPATH=src python tests/test_segment_ops.py
"""

import hashlib
import json
import os
import random

import pytest

from repro.core.opstream import OpStream, stress_factory
from repro.core.registry import REGISTRY
from repro.core.workloads import (
    INSERT,
    LOOKUP,
    SCAN,
    UPDATE,
    Operation,
    apply_op,
    payload,
)
from tests.test_charge_tables import CORPUS_DIR, render, streams

OPS_PATH = os.path.join(CORPUS_DIR, "segment_ops.json")
NAMES = ("FITing-Tree", "FINEdex", "XIndex")
DEFAULT_LABEL = "default_20k"


def default_stream(n_bulk=20_000, n_ops=6_000, key_space=1 << 40):
    """Half inserts (uniform, a hot 5% slice of the key range, and
    bursts into six 1000-wide spots), the rest lookups, scans and
    updates over present and absent keys."""
    rng = random.Random("segment-ops-default")
    present = set()
    while len(present) < n_bulk:
        present.add(rng.randrange(1, key_space))
    bulk = sorted(present)
    live = list(bulk)
    hot_lo = bulk[n_bulk // 2]
    hot_hi = bulk[n_bulk // 2 + n_bulk // 20]
    # Three spots 300 ranks apart share an XIndex group (1024 keys), so
    # a compaction there needs more models than a group may hold: it
    # splits.
    spots = [bulk[i] + 1 for c in (n_bulk // 8, 5 * n_bulk // 8)
             for i in (c, c + 300, c + 600)]
    ops = []
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.5:
            shape = rng.random()
            if shape < 0.15:
                key = rng.randrange(1, key_space)
            elif shape < 0.4:
                key = rng.randrange(hot_lo, hot_hi)
            else:
                key = rng.choice(spots) + rng.randrange(1000)
            if key not in present:
                present.add(key)
                live.append(key)
            ops.append(Operation(INSERT, key, payload(key)))
            continue
        key = rng.choice(live) if rng.random() < 0.85 \
            else rng.randrange(1, key_space)
        if r < 0.55:
            ops.append(Operation(UPDATE, key, payload(key) ^ 0x5A5A5A5A))
        elif r < 0.70:
            ops.append(Operation(
                SCAN, key, count=rng.choice((1, 8, 32, 64, 200))))
        else:
            ops.append(Operation(LOOKUP, key))
    return OpStream(index_name="*", seed=0, bulk_keys=bulk, ops=ops,
                    name=DEFAULT_LABEL)


def op_digest(index, stream):
    """Replay ``stream`` on ``index``; returns the sha256 and how many
    nodes its SMOs allocated."""
    h = hashlib.sha256()
    index.bulk_load([(k, payload(k)) for k in stream.bulk_keys])
    h.update(float(index.meter.total_time()).hex().encode())
    served = (LOOKUP, UPDATE, INSERT, SCAN)  # none of the three deletes
    created = 0
    for op in stream.ops:
        if op.op not in served:
            continue
        result = apply_op(index, op)
        rec = index.last_op
        if op.op == INSERT and rec.smo:
            created += rec.nodes_created
        h.update(repr((
            result, float(index.meter.total_time()).hex(), rec.op, rec.key,
            rec.found, rec.path, rec.nodes_traversed, rec.keys_shifted,
            rec.smo, rec.nodes_created)).encode())
    assert index.debug_validate() == []
    h.update(repr(index.memory_usage()).encode())
    return h.hexdigest(), created


def generate():
    """``({cell: sha256}, {cell: nodes created})`` over every cell."""
    cells = [(f"{name}/{label}", stress_factory(name), stream)
             for name in NAMES for label, stream in streams()]
    big = default_stream()
    cells += [(f"{name}/{DEFAULT_LABEL}", REGISTRY.get(name).factory, big)
              for name in NAMES]
    digests, created = {}, {}
    for cell, factory, stream in cells:
        digests[cell], created[cell] = op_digest(factory(), stream)
    return digests, created


@pytest.fixture(scope="module")
def committed():
    with open(OPS_PATH) as fh:
        return fh.read()


@pytest.fixture(scope="module")
def regenerated():
    return generate()


@pytest.mark.parametrize("name", NAMES)
def test_per_op_digests_are_frozen(name, committed, regenerated):
    want = json.loads(committed)
    for cell, digest in regenerated[0].items():
        if cell.startswith(name + "/"):
            assert digest == want[cell], f"per-op behaviour drifted: {cell}"


@pytest.mark.parametrize("name", NAMES)
def test_default_config_cell_runs_allocating_smos(name, regenerated):
    """The default-configuration cell is not vacuous: its bursts
    overflow the production-sized buffer / bin / delta, and XIndex —
    whose compactions allocate only when the group splits — splits."""
    assert regenerated[1][f"{name}/{DEFAULT_LABEL}"] >= 2


def test_segment_ops_file_is_byte_identical(committed, regenerated):
    assert len(regenerated[0]) == len(NAMES) * 16
    assert render(regenerated[0]) == committed


if __name__ == "__main__":
    with open(OPS_PATH, "w") as fh:
        fh.write(render(generate()[0]))
