"""The fuzz pipeline: generate -> oracle -> shrink -> replayable stream.

The central scenario is the acceptance test for the whole subsystem: a
deliberately broken index (a B+tree subclass that corrupts leaf order
on every 7th insert) must be caught by a short fuzz run, shrunk to a
minimal stream, flagged by ``debug_validate()`` with its named rule,
and reproduce the failure after a save/load round trip.
"""

import re
from dataclasses import replace

import pytest

from repro import BPlusTree
from repro.core.opstream import (
    STRESS_FACTORIES,
    DifferentialObserver,
    OpStream,
    fuzz_index,
    fuzzable_specs,
    generate_stream,
    replay_file,
    run_oracle,
    shrink_stream,
    stress_factory,
)
from repro.core.registry import REGISTRY
from repro.core.workloads import DELETE, INSERT, SCAN, Operation, payload


class BrokenBPlusTree(BPlusTree):
    """Every 7th insert appends at the current first leaf, unordered."""

    def __init__(self):
        super().__init__(fanout=8)
        self._n = 0

    def insert(self, key, value):
        self._n += 1
        if self._n % 7 == 0:
            node = self._root
            while hasattr(node, "children"):
                node = node.children[0]
            node.keys.append(key)
            node.values.append(value)
            self._size += 1
            return True
        return super().insert(key, value)


class LyingLookupBPlusTree(BPlusTree):
    """Structurally sound, but lookups return a corrupted payload."""

    def __init__(self):
        super().__init__(fanout=8)

    def lookup(self, key):
        value = super().lookup(key)
        return None if value is None else value ^ 1


class CrashingBPlusTree(BPlusTree):
    def __init__(self):
        super().__init__(fanout=8)
        self._n = 0

    def insert(self, key, value):
        self._n += 1
        if self._n == 40:
            raise RuntimeError("synthetic crash")
        return super().insert(key, value)


def _btree_spec():
    return REGISTRY.get("B+tree")


# ---------------------------------------------------------------------------
# Stream generation
# ---------------------------------------------------------------------------

class TestGenerateStream:
    def test_deterministic(self):
        spec = _btree_spec()
        a = generate_stream(spec, seed=3, n_ops=100, n_bulk=32)
        b = generate_stream(spec, seed=3, n_ops=100, n_bulk=32)
        assert a.bulk_keys == b.bulk_keys
        assert [(o.op, o.key, o.value, o.count) for o in a.ops] == \
               [(o.op, o.key, o.value, o.count) for o in b.ops]
        c = generate_stream(spec, seed=4, n_ops=100, n_bulk=32)
        assert [(o.op, o.key) for o in a.ops] != [(o.op, o.key) for o in c.ops]

    def test_respects_capabilities(self):
        no_delete = REGISTRY.get("XIndex")
        stream = generate_stream(no_delete, seed=1, n_ops=400, n_bulk=32)
        assert not any(op.op == DELETE for op in stream.ops)
        full = generate_stream(_btree_spec(), seed=1, n_ops=400, n_bulk=32)
        kinds = {op.op for op in full.ops}
        assert DELETE in kinds and INSERT in kinds and SCAN in kinds

    def test_fuzzable_specs_excludes_read_only(self):
        names = [s.name for s in fuzzable_specs()]
        assert "RMI" not in names
        assert len(names) == 11

    def test_stress_factories_are_registered_names(self):
        for name in STRESS_FACTORIES:
            assert name in REGISTRY


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

class TestPersistence:
    def test_roundtrip_exact(self, tmp_path):
        stream = generate_stream(_btree_spec(), seed=9, n_ops=60, n_bulk=16)
        stream.name = "roundtrip"
        path = str(tmp_path / "s.jsonl")
        stream.save(path)
        loaded = OpStream.load(path)
        assert loaded.index_name == stream.index_name
        assert loaded.seed == stream.seed
        assert loaded.name == "roundtrip"
        assert loaded.bulk_keys == stream.bulk_keys
        assert [(o.op, o.key, o.value, o.count) for o in loaded.ops] == \
               [(o.op, o.key, o.value, o.count) for o in stream.ops]

    def test_load_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"schema_version": 1, "kind": "other"}\n')
        with pytest.raises(ValueError):
            OpStream.load(str(path))

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ValueError):
            OpStream.load(str(tmp_path / "absent.jsonl"))


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

class TestOracle:
    def test_clean_index_passes(self):
        stream = generate_stream(_btree_spec(), seed=2, n_ops=300, n_bulk=64)
        report = run_oracle(stress_factory("B+tree"), stream)
        assert report.ok
        assert report.failure_kind is None

    def test_structural_bug_is_a_violation(self):
        stream = generate_stream(_btree_spec(), seed=2, n_ops=300, n_bulk=64)
        report = run_oracle(BrokenBPlusTree, stream)
        assert not report.ok
        assert report.failure_kind == "violation"

    def test_payload_bug_is_a_mismatch(self):
        """Value-level corruption is invisible to hit/miss flags — the
        differential oracle catches it through OpEvent.result."""
        stream = generate_stream(_btree_spec(), seed=2, n_ops=200, n_bulk=64)
        report = run_oracle(LyingLookupBPlusTree, stream)
        assert not report.ok
        assert report.failure_kind == "mismatch"
        assert any(m.op == "lookup" for m in report.mismatches)

    def test_crash_is_captured_not_raised(self):
        stream = generate_stream(_btree_spec(), seed=2, n_ops=300, n_bulk=64)
        report = run_oracle(CrashingBPlusTree, stream)
        assert report.failure_kind == "crash"
        assert "synthetic crash" in report.crash

    def test_scan_rows_are_differenced(self):
        class ShortScanBPlusTree(BPlusTree):
            def __init__(self):
                super().__init__(fanout=8)

            def range_scan(self, start, count):
                rows = super().range_scan(start, count)
                return rows[:-1] if len(rows) > 1 else rows

        stream = generate_stream(_btree_spec(), seed=2, n_ops=300, n_bulk=64)
        report = run_oracle(ShortScanBPlusTree, stream)
        assert report.failure_kind == "mismatch"
        assert any(m.op == "scan" for m in report.mismatches)

    def test_differential_observer_model_is_ground_truth(self):
        """One wrong outcome yields one mismatch, not a cascade."""
        obs = DifferentialObserver()

        class Ev:
            def __init__(self, seq, op, ok=True, result=None):
                self.seq, self.op, self.ok, self.result = seq, op, ok, result

        class WL:
            bulk_items = [(1, 10), (2, 20)]

        obs.on_phase("measure", None, WL)
        # Index wrongly rejects a fresh insert; model keeps the key.
        obs.on_op(Ev(0, Operation(INSERT, 5, 50), ok=False), None)
        assert len(obs.mismatches) == 1
        # Later ops compare against the model that *includes* key 5.
        obs.on_op(Ev(1, Operation("lookup", 5), ok=True, result=50), None)
        assert len(obs.mismatches) == 1


# ---------------------------------------------------------------------------
# Shrinking + the full pipeline
# ---------------------------------------------------------------------------

class TestShrinkAndFuzz:
    def test_fuzz_finds_shrinks_and_names_the_rule(self, tmp_path):
        spec = _btree_spec()
        failure = fuzz_index(spec, budget=2000, seed=0,
                             factory=BrokenBPlusTree)
        assert failure is not None
        # Shrunk far below the generated stream.
        assert len(failure.stream.ops) < failure.original_ops // 4
        # The shrunk stream still fails, with the named structural rule.
        report = run_oracle(BrokenBPlusTree, failure.stream)
        assert not report.ok
        rules = {tv.violation.rule for tv in report.violations}
        assert "btree.keys-sorted" in rules
        # And it survives a save/load round trip as a repro file.
        path = str(tmp_path / "repro.jsonl")
        failure.stream.save(path)
        replayed = run_oracle(BrokenBPlusTree, OpStream.load(path))
        assert not replayed.ok

    def test_shrink_returns_passing_stream_unchanged(self):
        stream = generate_stream(_btree_spec(), seed=2, n_ops=50, n_bulk=16)
        shrunk = shrink_stream(stress_factory("B+tree"), stream)
        assert shrunk is stream

    def test_fuzz_clean_index_returns_none(self):
        assert fuzz_index(_btree_spec(), budget=500, seed=1) is None

    def test_replay_file_uses_recorded_index(self, tmp_path):
        stream = generate_stream(_btree_spec(), seed=11, n_ops=80, n_bulk=16)
        path = str(tmp_path / "c.jsonl")
        stream.save(path)
        assert replay_file(path).ok


#: Six key profiles: ``generate_stream`` draws keys from ``[1, 2**40)``,
#: and each profile moves them by one strictly increasing map, so a
#: stream keeps its shape in another key range.  The first three stay
#: inside the key domain ``[0, 2**63)``, the last three leave it.
KEY_PROFILES = {
    "identity": lambda k: k,
    "dense-at-2^60": lambda k: 2**60 + k,
    "last-below-2^63": lambda k: 2**63 - 2**40 + k,
    "mixed-sign-2^39": lambda k: k - 2**39,
    "wide-signed-2^61": lambda k: (k - 2**39) << 22,
    "above-2^64": lambda k: 2**64 + k,
}
IN_DOMAIN = ("identity", "dense-at-2^60", "last-below-2^63")


def _remapped(stream, profile):
    move = KEY_PROFILES[profile]
    return OpStream(index_name=stream.index_name, seed=stream.seed,
                    bulk_keys=[move(k) for k in stream.bulk_keys],
                    ops=[replace(op, key=move(op.key)) for op in stream.ops],
                    name=f"{stream.label}-{profile}")


@pytest.mark.parametrize("profile", KEY_PROFILES)
@pytest.mark.parametrize("name", [spec.name for spec in fuzzable_specs()])
def test_key_profiles_stay_oracle_clean(name, profile):
    """Every fuzzable index under every profile, both seeds: inside the
    key domain the stream replays oracle-clean (no mismatch, violation,
    crash or divergence; ALEX's and LIPP's 256 bulk keys take the array
    builds); outside it the stream is refused when it is built, and the
    index's door refuses its bulk keys with nothing changed."""
    spec = REGISTRY.get(name)
    make = stress_factory(name)
    for seed in (1, 2):
        stream = generate_stream(spec, seed)
        if profile in IN_DOMAIN:
            report = run_oracle(make, _remapped(stream, profile))
            assert report.ok, report.describe()
            continue
        with pytest.raises(ValueError, match="^OpStream .* outside the "
                                             "key domain"):
            _remapped(stream, profile)
        index = make()
        counts, serial = list(index.meter._counts.items()), index._node_serial
        move = KEY_PROFILES[profile]
        with pytest.raises(ValueError, match=f"^{re.escape(name)}: "
                                             "bulk_load refuses key"):
            index.bulk_load([(move(k), payload(k)) for k in stream.bulk_keys])
        assert len(index) == 0 and index._node_serial == serial
        assert list(index.meter._counts.items()) == counts


def test_a_saved_stream_outside_the_domain_is_refused_on_load(tmp_path):
    """``OpStream.load`` builds through the same check, so ``repro fuzz
    --replay`` refuses such a file before replaying anything."""
    stream = generate_stream(_btree_spec(), seed=3, n_ops=20, n_bulk=8)
    path = tmp_path / "outside.jsonl"
    stream.save(str(path))
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].replace(f'"key": {stream.ops[-1].key}',
                                  f'"key": {2**63}')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"refuses key {2**63}"):
        OpStream.load(str(path))
