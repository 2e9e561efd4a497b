"""Which layer may know which: an AST walk over ``src/repro``.

* ``core/``, ``indexes/``, ``datasets/`` and ``concurrency/`` hold
  mechanisms: nothing there imports ``repro.bench`` or ``repro.cli``.
* ``repro.bench`` takes plain values, never an ``argparse`` namespace.
* Every ``repro`` name the top-level ``bench/`` harness imports exists.
* ``cli.py`` is argument plumbing around one benchmark driver: exactly
  one call of ``_gate_history`` and one of ``provenance``.
* DESIGN.md's package layout names every module there is.
* One function cuts an op stream into windows (``WindowFold.add``), one
  per-op body applies the engine's ops (``ExecutionEngine._stepper``)
  and one module holds the median-baseline storm rule.
* One class lends an index a meter (``repro.indexes.base.lend``).
* One door admits a build's items: ``OrderedIndex.bulk_load``; an index
  implements ``_load``.
* Node columns at their natural width: a LIPP node is a ``bytearray``
  of tags beside one column of items, an ALEX leaf's bitmap a
  ``bytearray``, whatever path built or last changed them.
* One class cuts a migration over (``MigrationDriver``), and the
  serving tier's constructors and job methods take the options a
  census pins, no more.
* Each server tenant owns its journal and one plain lock, and only
  ``core/server.py`` touches the server's private members.
* One way into a tenant: ``create_instance`` loads it, and the one job
  runner (rebuild / migrate) is all that changes its structure.
* No module under ``src/``, ``tests/`` or ``benchmarks/`` imports a
  name it never uses (pyflakes' F401, without needing ruff).
"""

import ast
import importlib.util
import inspect
import os
import random
import re
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(__file__))
PACKAGE = os.path.join(ROOT, "src", "repro")
MECHANISMS = ("core", "indexes", "datasets", "concurrency")


def _modules(*subdirs):
    """Every ``.py`` under ``src/repro/<subdir>`` (all of it when no
    subdir is given), relative to ``src/repro``."""
    out = []
    for top in subdirs or ("",):
        for folder, _, files in os.walk(os.path.join(PACKAGE, top)):
            out += [os.path.relpath(os.path.join(folder, f), PACKAGE)
                    for f in files if f.endswith(".py")]
    return sorted(out)


def _tree(rel):
    with open(os.path.join(PACKAGE, rel)) as fh:
        return ast.parse(fh.read(), filename=rel)


def _imports(rel):
    """Dotted names ``rel`` imports, at any depth (function-level
    imports count), each ``from a import b`` as both ``a`` and ``a.b``."""
    names = set()
    for node in ast.walk(_tree(rel)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _calls(rel, name):
    """Call sites of the function ``name`` (bare or as an attribute)."""
    return [node.lineno for node in ast.walk(_tree(rel))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]


@pytest.mark.parametrize("rel", _modules(*MECHANISMS))
def test_mechanisms_import_neither_bench_nor_cli(rel):
    upward = sorted(n for n in _imports(rel)
                    if re.match(r"repro\.(bench|cli)(\.|$)", n))
    assert not upward, f"{rel} imports {upward}"


@pytest.mark.parametrize("rel", _modules("bench"))
def test_bench_takes_no_argparse(rel):
    assert "argparse" not in _imports(rel)


def test_bench_has_a_module_per_suite():
    assert {"bench/lookup.py", "bench/sweep.py", "bench/migration.py",
            "bench/shard.py", "bench/serve.py"} <= set(_modules("bench"))


def test_bench_imports_resolve():
    """Every ``from repro... import name`` in the top-level ``bench/``
    harness names something ``src/`` still has: ``bench/`` only runs in
    its own CI job, so a deleted name would otherwise break
    ``bench/run.py`` unseen."""
    missing = []
    for path in _python_files("bench"):
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "repro"):
                statement = ast.Module(body=[node], type_ignores=[])
                try:
                    exec(compile(statement, path, "exec"), {})
                except ImportError as exc:
                    missing.append(f"{os.path.relpath(path, ROOT)}:"
                                   f"{node.lineno} {exc}")
    assert not missing, missing


@pytest.mark.parametrize("name", ["_gate_history", "provenance"])
def test_cli_has_one_benchmark_tail(name):
    assert len(_calls("cli.py", name)) == 1, _calls("cli.py", name)


def test_one_function_counts_ops_up_to_a_window():
    """``count >= <something>.window_ops`` is ``WindowFold.add``'s test;
    a second one is a window closer of its own again."""
    closers = []
    for rel in _modules():
        for func in ast.walk(_tree(rel)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            closers += [
                f"{rel}:{func.name}" for node in ast.walk(func)
                if isinstance(node, ast.Compare)
                and any(isinstance(op, ast.GtE) for op in node.ops)
                and any(getattr(side, "attr", None) == "window_ops"
                        for side in node.comparators)]
    assert closers == ["core/runner.py:add"], closers


def test_the_engine_has_one_per_op_body():
    """Recorded and unrecorded runs share ``_stepper``'s ``step``: a
    second ``apply_op`` call in the engine is a second body again."""
    from repro.core.runner import ExecutionEngine
    assert len(_calls("core/runner.py", "apply_op")) == 1, (
        _calls("core/runner.py", "apply_op"))
    assert not hasattr(ExecutionEngine, "_recorder")


def test_observers_carry_only_what_is_read():
    """The run's evidence lives in ``RunResult``, the trace, the metric
    ``series`` and the SLO windows: no metric registry keeps a second
    tally beside them, and no sampled latency rides a block column or a
    window to feed one."""
    import dataclasses

    from repro.core import telemetry
    from repro.core.events import EventBus
    from repro.core.runner import (
        ExecutionEngine,
        ExecutionObserver,
        OpBlock,
        OpWindow,
        WindowFold,
    )
    from repro.core.workloads import mixed_workload
    from repro.indexes.btree import BPlusTree

    assert [f.name for f in dataclasses.fields(OpWindow)] == [
        "start_ns", "t_ns", "ops", "ok", "smos", "counts", "latencies"]
    assert list(inspect.signature(WindowFold.add).parameters) == [
        "self", "key", "ok", "t_ns"]

    assert [name for name in OpBlock.__slots__ if not name.startswith("_")] == [
        "seq", "start_ns", "ops", "ok", "scanned", "keys_shifted",
        "nodes_created", "smos", "clocks", "kinds", "kind_counts",
        "ok_count", "cell_sums"]

    class Blocks(ExecutionObserver):
        def __init__(self):
            self.ops = []

        def on_block(self, block):
            assert len(block.ok) == len(block.clocks) == len(block.kinds)
            self.ops += block.ops

    blocks = Blocks()
    ExecutionEngine(observers=[blocks]).run(
        BPlusTree(), mixed_workload(list(range(0, 4000, 4)), 0.5,
                                    n_ops=300, seed=1))
    assert len(blocks.ops) == 300
    assert "on_smo" not in vars(telemetry.MetricsCollector)
    assert not hasattr(telemetry, "MetricsRegistry")
    assert "append" not in inspect.signature(EventBus.save).parameters


def test_one_module_holds_the_storm_rule():
    """Outside ``repro.bench`` (whose p99 medians are not a storm rule)
    only ``storm_threshold`` takes a ``median_high``."""
    callers = [rel for rel in _modules() if not rel.startswith("bench")
               and _calls(rel, "median_high")]
    assert callers == ["core/telemetry.py"], callers


def _layout_paths():
    """Paths the ``src/repro/`` tree of DESIGN.md's layout block names:
    an entry is the first token of a line, nested by two-space indents,
    directories ending in ``/``; continuation lines sit deeper than any
    entry column and are skipped."""
    with open(os.path.join(ROOT, "DESIGN.md")) as fh:
        block = fh.read().split("## Package layout", 1)[1].split("```")[1]
    paths, stack = set(), []
    for line in block.splitlines():
        entry = re.match(r"^((?:  )*)([\w./]+)(?:\s|$)", line)
        if not entry or len(entry.group(1)) > 2 * len(stack):
            continue
        depth, name = len(entry.group(1)) // 2, entry.group(2)
        del stack[depth:]
        if name.endswith("/"):
            stack.append(name)
        else:
            paths.add("".join(stack) + name)
    return paths


def test_design_layout_names_every_module():
    named = _layout_paths()
    missing = [rel for rel in _modules()
               if os.path.basename(rel) != "__init__.py"
               and f"src/repro/{rel}" not in named]
    assert not missing, f"DESIGN.md's package layout omits {missing}"


def test_one_class_lends_a_meter():
    """A ``with`` block whose ``__enter__`` assigns some ``.meter`` is a
    meter lender; ``lend`` is the one there is."""
    lenders = []
    for rel in _modules():
        for cls in ast.walk(_tree(rel)):
            if not isinstance(cls, ast.ClassDef):
                continue
            lenders += [
                f"{rel}:{cls.name}" for func in cls.body
                if isinstance(func, ast.FunctionDef)
                and func.name == "__enter__"
                and any(getattr(target, "attr", None) == "meter"
                        for node in ast.walk(func)
                        if isinstance(node, ast.Assign)
                        for target in node.targets)]
    assert lenders == ["indexes/base.py:lend"], lenders


#: The bulk-load checks the door replaced, spelled so that this file
#: does not name them itself.
_RETIRED = tuple("_".join(parts) for parts in (
    ("check", "sorted"), ("check", "sorted", "unique"),
    ("", "bulk", "keys"), ("", "require", "ascending")))


def test_one_door_for_bulk_loads():
    """``OrderedIndex.bulk_load`` is the one ``bulk_load`` among the
    indexes and the shard layer, the checks it replaced are gone, and
    only it and ``Workload`` test keys for order."""
    doors = [f"{rel}:{cls.name}"
             for rel in _modules("indexes") + ["core/shard.py"]
             for cls in ast.walk(_tree(rel)) if isinstance(cls, ast.ClassDef)
             for func in cls.body if isinstance(func, ast.FunctionDef)
             and func.name == "bulk_load"]
    assert doors == ["indexes/base.py:OrderedIndex"], doors
    named = []
    for top in ("src", "tests", "benchmarks"):
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            if "__pycache__" in folder:
                continue
            for name in files:
                path = os.path.join(folder, name)
                with open(path, errors="ignore") as fh:
                    text = fh.read()
                named += [f"{os.path.relpath(path, ROOT)}: {word}"
                          for word in _RETIRED if word in text]
    assert not named, named
    checkers = [rel for rel in _modules() if _calls(rel, "ascending")]
    assert checkers == ["core/workloads.py", "indexes/base.py"], checkers


def _lipp_slots(index):
    """Every ``(node, slot, tag, item)`` of a LIPP tree."""
    from repro.indexes.lipp import _CHILD
    stack = [index._root]
    while stack:
        node = stack.pop()
        for s, (tag, item) in enumerate(zip(node.tags, node)):
            yield node, s, tag, item
            if tag == _CHILD:
                stack.append(item)


def _assert_lipp_columns(index, loaded):
    """Tags are bytes, a data item is a 2-tuple at its key's predicted
    slot, and each of ``loaded`` (key -> the caller's tuple) is stored
    as that very tuple."""
    from repro.indexes.lipp import _DATA, _EMPTY
    held = {}
    for node, s, tag, item in _lipp_slots(index):
        assert type(node.tags) is bytearray
        assert len(node) == len(node.tags)
        if tag == _DATA:
            assert type(item) is tuple and len(item) == 2, item
            assert node.predict_clamped(item[0], len(node)) == s
            held[item[0]] = item
        elif tag == _EMPTY:
            assert item is None
    assert len(held) == len(index)
    for key, item in loaded.items():
        assert held[key] is item, key


def _lipp_end_tag(index, key):
    """The tag of the slot ``key`` predicts at the end of its path."""
    from repro.indexes.lipp import _CHILD
    node = index._root
    while True:
        s = node.predict_clamped(key, len(node))
        if node.tags[s] != _CHILD:
            return node.tags[s]
        node = node[s]


def test_node_columns_at_natural_width():
    """A LIPP node is its slot list (the entries' own tuples, children,
    ``None``) beside ``tags`` (a ``bytearray``), after an array-path and
    a scalar-path load and each kind of write; ALEX's ``present`` is a
    ``bytearray`` after load, insert, expand, split and delete."""
    from repro.indexes.alex import ALEX
    from repro.indexes.lipp import _DATA, _EMPTY, LIPP, _LippNode
    assert issubclass(_LippNode, list) and "tags" in _LippNode.__slots__
    assert not {"keys", "values", "items", "model"} & set(_LippNode.__slots__)
    for n in (1000, 100):  # the array build, then the scalar one
        rng = random.Random(n)
        items = sorted((k, -k) for k in set(rng.sample(range(2**40), n)))
        index = LIPP()
        index.bulk_load(items)
        loaded = {item[0]: item for item in items}
        _assert_lipp_columns(index, loaded)
        fresh = (k for k in iter(lambda: rng.randrange(2**40), None)
                 if k not in loaded)
        empty = next(k for k in fresh if _lipp_end_tag(index, k) == _EMPTY)
        chains = index.chain_count
        assert index.insert(empty, -1) and index.chain_count == chains
        _assert_lipp_columns(index, loaded)
        taken = next(k for k in fresh if _lipp_end_tag(index, k) == _DATA)
        assert index.insert(taken, -2) and index.chain_count == chains + 1
        _assert_lipp_columns(index, loaded)
        updated, deleted = items[n // 3][0], items[n // 2][0]
        assert index.update(updated, -3) and index.lookup(updated) == -3
        del loaded[updated]
        _assert_lipp_columns(index, loaded)
        assert index.delete(deleted) and index.lookup(deleted) is None
        del loaded[deleted]
        _assert_lipp_columns(index, loaded)
        rebuilds = index.rebuild_count
        assert index._rebuild_at([index._root], 0)
        assert index.rebuild_count == rebuilds + 1
        _assert_lipp_columns(index, loaded)
        assert not index.debug_validate()
    # A list pair, as a stream read back from JSON carries it.
    index = LIPP()
    index.bulk_load([[5, "a"], (9, "b")])
    assert index.range_scan(0, 2) == [(5, "a"), (9, "b")]
    assert all(type(row) is tuple for row in index.range_scan(0, 2))

    alex = ALEX(target_leaf_keys=64, max_data_keys=512)

    def assert_bitmaps():
        for leaf in alex.data_nodes():
            assert type(leaf.present) is bytearray
            assert len(leaf.present) == leaf.capacity
        assert not alex.debug_validate()

    alex.bulk_load([(k * 64, k) for k in range(1000)])
    assert_bitmaps()
    for k in range(6400):  # a dense run over a tenth of the keys
        if k % 64:
            assert alex.insert(k, k)
    assert alex.expand_count and alex.split_count
    assert_bitmaps()
    for k in range(0, 1000, 3):
        assert alex.delete(k * 64)
    assert_bitmaps()


def test_only_the_migration_driver_cuts_over():
    """Every reference to some ``.cutover`` (a call, or the bound
    method handed to ``metered``) sits in ``MigrationDriver``."""
    owners = []
    for rel in _modules():
        for top in _tree(rel).body:
            owners += [f"{rel}:{getattr(top, 'name', '<module>')}"
                       for node in ast.walk(top)
                       if isinstance(node, ast.Attribute)
                       and node.attr == "cutover"]
    assert sorted(set(owners)) == ["core/migrate.py:MigrationDriver"], owners


def test_one_log_per_tenant():
    """Each hosted instance owns its journal and one plain lock: the
    server keeps no global journal or journal lock, an instance no
    second lock of any kind, and no other module reaches into the
    server's private members (``self.``/``cls.`` access elsewhere is
    another class's)."""
    from repro.core.server import IndexServer
    with IndexServer(workers=0) as server:
        server.create_instance("t", "B+tree")
        served = vars(server._served["t"])
        members = set(vars(server)) | set(vars(IndexServer))
    assert not {"_journal", "_journal_lock"} & members
    assert not {"stats_lock", "mutex"} & set(served)
    locks = [name for name, value in served.items()
             if hasattr(value, "acquire") or hasattr(value, "acquire_read")]
    assert locks == ["lock"], locks
    assert type(served["lock"]) is type(threading.Lock())
    private = {name for name in members
               if name.startswith("_") and not name.startswith("__")}
    reach = [f"{rel}:{node.lineno} .{node.attr}" for rel in _modules()
             if rel != "core/server.py"
             for node in ast.walk(_tree(rel))
             if isinstance(node, ast.Attribute) and node.attr in private
             and getattr(node.value, "id", None) not in ("self", "cls")]
    assert not reach, reach


def test_one_way_into_a_tenant():
    """``create_instance`` is the only way data enters a tenant: no
    background bulk-load job, no on-disk snapshot package, one job-runner
    class (what ``_step_job`` drives: a ``step`` and a ``fail``), and a
    tenant created without items is already SERVING, empty."""
    from repro.core.instance import SERVING
    from repro.core.server import IndexServer
    assert not hasattr(IndexServer, "bulk_load")
    assert importlib.util.find_spec("repro.extensions") is None
    runners = [cls.name for cls in _tree("core/server.py").body
               if isinstance(cls, ast.ClassDef)
               and {"step", "fail"} <= {f.name for f in cls.body
                                        if isinstance(f, ast.FunctionDef)}]
    assert runners == ["_RebuildRunner"], runners
    with IndexServer(workers=0) as server:
        instance = server.create_instance("t", "B+tree")
        assert instance.state == SERVING and len(instance.index) == 0


def _shardable():
    from tests.server_harness import shardable_specs
    return [spec.name for spec in shardable_specs()]


@pytest.mark.parametrize("index_name", _shardable())
def test_an_empty_tenant_fills_by_inserts_and_rebuilds(index_name):
    """With no background load, an empty tenant is how a tenant grows
    from nothing: 300 inserts, then a rebuild that cuts over."""
    from repro.core.server import JOB_DONE, IndexServer
    keys = random.Random(7).sample(range(1, 10**9), 300)
    with IndexServer(workers=0, chunk=64) as server:
        server.create_instance("t", index_name)
        assert all(server.insert("t", key, -key) for key in keys)
        job = server.rebuild("t")
        server.drain()
        assert job.state == JOB_DONE, job.error
        index = server.instance("t").index
        assert len(index) == len(keys)
        assert not index.debug_validate()
        assert not server.replay_check("t")


#: The parameters each serving-tier entry point and each window
#: consumer takes.  One more is one more way to drive a migration, or to
#: cut one run into windows of two sizes (the engine's ``window_ops`` is
#: the one size); every one here has a caller outside ``tests/``.
SIGNATURES = {
    "repro.core.runner:ExecutionEngine": (
        "sample_every", "observers", "telemetry", "bus", "window_ops"),
    "repro.core.telemetry:MetricsCollector": (),
    "repro.core.slo:SLOTracker": ("targets", "bus"),
    "repro.core.events:EngineBusEmitter": ("bus",),
    "repro.core.events:EventBus.engine_observer": ("self",),
    "repro.core.telemetry:Telemetry.full": ("max_events",),
    "repro.core.server:IndexServer": ("workers", "bus", "chunk"),
    "repro.core.server:IndexServer.rebuild": ("self", "name", "factory"),
    "repro.core.server:IndexServer.migrate": (
        "self", "name", "dst", "factory"),
    "repro.indexes.multiplex:MultiplexIndex": (
        "primary", "secondary", "chunk", "pump_per_op"),
    "repro.core.shard:ShardedIndex": ("factory", "n_shards"),
    "repro.core.shard:ShardRouter": (
        "sharded", "window_ops", "slo_window", "bus"),
    "repro.core.instance:IndexInstance": ("index", "name", "state"),
    "repro.core.registry:IndexSpec": (
        "factory", "tags", "concurrent_name", "concurrent_factory",
        "concurrent_evaluated"),
}


@pytest.mark.parametrize("target", sorted(SIGNATURES))
def test_signature_census(target):
    module, _, path = target.partition(":")
    obj = importlib.import_module(module)
    for name in path.split("."):
        obj = getattr(obj, name)
    assert tuple(inspect.signature(obj).parameters) == SIGNATURES[target]


def _python_files(*tops):
    for top in tops:
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            yield from (os.path.join(folder, f)
                        for f in sorted(files) if f.endswith(".py"))


def _unused_imports(path):
    """``line: name`` for each name ``path`` imports and never reads.

    A name counts as read when an ``ast.Name`` spells it, or when a
    string constant that parses as an expression does (quoted
    annotations, ``__all__`` entries).  ``__future__`` imports and
    lines marked ``# noqa: F401`` (an import for its side effect) are
    exempt, as they are from pyflakes."""
    with open(path) as fh:
        source = fh.read()
    lines = source.splitlines()
    tree = ast.parse(source, filename=path)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted)
                        if isinstance(n, ast.Name))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [a.asname or a.name for a in node.names if a.name != "*"]
        else:
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        out += [f"{node.lineno}: {name}" for name in bound if name not in used]
    return out


def test_no_unused_imports():
    unused = {os.path.relpath(path, ROOT): names
              for path in _python_files("src", "tests", "benchmarks")
              for names in [_unused_imports(path)] if names}
    assert not unused, unused
