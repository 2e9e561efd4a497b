"""Structure-specific internals of the traditional indexes."""

import random

from repro.indexes.art import ART, _ArtNode, _tier
from repro.indexes.btree import BPlusTree, _Inner
from repro.indexes.masstree import Masstree
from repro.indexes.wormhole import Wormhole, _LEAF_CAPACITY


# -- B+tree rebalancing paths --------------------------------------------------

def _leaf_keys_in_chain(tree: BPlusTree):
    node = tree._root
    while isinstance(node, _Inner):
        node = node.children[0]
    out = []
    while node is not None:
        out.extend(node.keys)
        node = node.next
    return out


def test_btree_borrow_from_left_sibling():
    t = BPlusTree(fanout=4)
    t.bulk_load([(i, i) for i in range(20)])
    # Delete from the right side until a borrow must occur.
    for k in (19, 18, 17):
        assert t.delete(k)
    assert _leaf_keys_in_chain(t) == sorted(_leaf_keys_in_chain(t))
    for k in range(17):
        assert t.lookup(k) == k


def test_btree_merge_cascades_to_root_collapse():
    t = BPlusTree(fanout=4)
    t.bulk_load([(i, i) for i in range(64)])
    h = t.height
    for i in range(60):
        assert t.delete(i)
    assert t.height < h
    assert [k for k, _ in t.range_scan(0, 10)] == [60, 61, 62, 63]


def test_btree_every_node_within_bounds_after_churn():
    t = BPlusTree(fanout=8)
    t.bulk_load([(i * 2, i) for i in range(500)])
    rng = random.Random(4)
    live = set(range(0, 1000, 2))
    for _ in range(2000):
        k = rng.randrange(1000)
        if k in live and rng.random() < 0.5:
            assert t.delete(k)
            live.discard(k)
        elif k not in live:
            assert t.insert(k, k)
            live.add(k)
    # Walk the whole tree checking occupancy invariants.
    def walk(node, is_root):
        if isinstance(node, _Inner):
            assert len(node.children) == len(node.keys) + 1
            if not is_root:
                assert len(node.children) >= 2
            for c in node.children:
                walk(c, False)
        else:
            assert len(node.keys) == len(node.values)
            assert node.keys == sorted(node.keys)

    walk(t._root, True)
    assert len(t) == len(live)


# -- ART node-tier transitions ---------------------------------------------------

def test_art_grows_through_all_tiers():
    idx = ART()
    idx.bulk_load([])
    # Keys differing in one byte position: a single node grows 4->256.
    for b in range(200):
        idx.insert(b << 8, b)
    node = idx._root
    assert isinstance(node, _ArtNode)
    assert _tier(len(node.bytes_)) == 256
    for b in range(0, 200, 17):
        assert idx.lookup(b << 8) == b


def test_art_prefix_split_mid_path():
    idx = ART()
    idx.bulk_load([(0x2ABBCCDD00000000, 1), (0x2ABBCCEE00000000, 2)])
    # Diverge inside the shared prefix region.
    assert idx.insert(0x2A00000000000000, 3)
    assert idx.lookup(0x2ABBCCDD00000000) == 1
    assert idx.lookup(0x2ABBCCEE00000000) == 2
    assert idx.lookup(0x2A00000000000000) == 3
    got = idx.range_scan(0, 5)
    assert [k for k, _ in got] == sorted(
        [0x2ABBCCDD00000000, 0x2ABBCCEE00000000, 0x2A00000000000000]
    )


def test_art_delete_merges_single_child_chain():
    idx = ART()
    idx.bulk_load([(0x1111, 1), (0x1122, 2), (0x2200, 3)])
    assert idx.delete(0x1122)
    # Path compression restored: lookups and scans intact.
    assert idx.lookup(0x1111) == 1
    assert idx.lookup(0x2200) == 3
    assert idx.range_scan(0, 3) == [(0x1111, 1), (0x2200, 3)]


# -- Masstree border discipline ----------------------------------------------------

def test_masstree_permutation_always_a_permutation():
    idx = Masstree()
    idx.bulk_load([])
    rng = random.Random(7)
    for _ in range(600):
        idx.insert(rng.randrange(10**6), 0)

    def walk(node):
        if hasattr(node, "children"):
            for c in node.children:
                walk(c)
        else:
            assert sorted(node.perm) == list(range(len(node.keys)))

    walk(idx._root)


def test_masstree_interior_split_preserves_order():
    idx = Masstree()
    idx.bulk_load([])
    for i in range(1000):
        idx.insert(i, i)
    got = idx.range_scan(0, 1000)
    assert [k for k, _ in got] == list(range(1000))


# -- Wormhole leaf list -------------------------------------------------------------

def test_wormhole_anchors_strictly_increasing():
    idx = Wormhole()
    idx.bulk_load([])
    rng = random.Random(8)
    for _ in range(_LEAF_CAPACITY * 6):
        idx.insert(rng.randrange(2**40), 0)
    anchors = [leaf.anchor for leaf in idx._leaves]
    assert anchors == sorted(anchors)
    assert len(set(anchors)) == len(anchors)


def test_wormhole_links_match_anchor_array():
    idx = Wormhole()
    idx.bulk_load([(i, i) for i in range(1000)])
    node = idx._leaves[0]
    chained = []
    while node is not None:
        chained.append(node)
        node = node.next
    assert chained == idx._leaves
