"""Extensions: persistence snapshots."""

import random

import pytest

from repro import ALEX, BPlusTree
from repro.extensions.persistence import SnapshotError, load_snapshot, save_snapshot


def test_snapshot_roundtrip(tmp_path):
    rng = random.Random(1)
    items = sorted((rng.randrange(2**48), rng.randrange(2**32)) for _ in range(800))
    items = [(k, v) for (k, v) in dict(items).items()]
    items.sort()
    idx = ALEX()
    idx.bulk_load(items)
    path = str(tmp_path / "snap.gre")
    n = save_snapshot(idx, path)
    assert n > 800 * 16
    # Reload into a *different* index type: snapshots are portable.
    restored = load_snapshot(BPlusTree, path)
    assert len(restored) == len(items)
    for k, v in items[::53]:
        assert restored.lookup(k) == v


def test_snapshot_detects_corruption(tmp_path):
    idx = BPlusTree()
    idx.bulk_load([(i, i) for i in range(100)])
    path = str(tmp_path / "snap.gre")
    save_snapshot(idx, path)
    raw = bytearray(open(path, "rb").read())
    raw[-3] ^= 0xFF
    open(path, "wb").write(bytes(raw))
    with pytest.raises(SnapshotError, match="checksum"):
        load_snapshot(BPlusTree, path)


def test_snapshot_detects_truncation(tmp_path):
    idx = BPlusTree()
    idx.bulk_load([(i, i) for i in range(100)])
    path = str(tmp_path / "snap.gre")
    save_snapshot(idx, path)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[: len(raw) // 2])
    with pytest.raises(SnapshotError, match="truncated"):
        load_snapshot(BPlusTree, path)


def test_snapshot_missing_file(tmp_path):
    with pytest.raises(SnapshotError, match="cannot read"):
        load_snapshot(BPlusTree, str(tmp_path / "absent.gre"))


def test_snapshot_rejects_non_integer_payloads(tmp_path):
    idx = BPlusTree()
    idx.bulk_load([(1, "not-an-int")])
    with pytest.raises(SnapshotError, match="u64"):
        save_snapshot(idx, str(tmp_path / "bad.gre"))


def test_snapshot_atomic_replace(tmp_path):
    path = str(tmp_path / "snap.gre")
    idx = BPlusTree()
    idx.bulk_load([(i, i) for i in range(50)])
    save_snapshot(idx, path)
    idx2 = BPlusTree()
    idx2.bulk_load([(i, i * 2) for i in range(75)])
    save_snapshot(idx2, path)  # replaces, never corrupts
    restored = load_snapshot(BPlusTree, path)
    assert len(restored) == 75 and restored.lookup(10) == 20
