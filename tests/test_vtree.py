import json
import math
import io

import numpy as np
import pytest

from vvcantor import (DepthExhaustedError, TreeTooLargeError,
                      Xoshiro256StarStar, build_tree, cut_set, neck_subtree,
                      sample_environment, scale_extrema, stream_seed)
from vvcantor import _kernels
from vvcantor.rng import Xoshiro256StarStarLanes, stream_seeds
from vvcantor.vtree import LevelDraws, environments_to_obj, neck_mask, tree_to_jsonl
from conftest import env_table, scalar_tree_stream, segment_levels


def rng_for(seed, stream=0):
    return Xoshiro256StarStar(stream_seed(seed, stream))


# ---------------------------------------------------------------------------
# environments

def test_single_type_always_neck(cantor):
    rng = rng_for(0)
    for _ in range(20):
        assert sample_environment(cantor, 1, rng).is_neck


def test_environment_sampling_deterministic(two_system):
    e1 = sample_environment(two_system, 3, rng_for(42))
    e2 = sample_environment(two_system, 3, rng_for(42))
    assert e1 == e2


def test_neck_frequency_matches_enumeration(cantor):
    # V=2, single two-map system: the 2^4 equally likely type matrices
    # contain exactly 2 constant ones.
    exact = 2 * 2.0 ** (-4)
    n = 20_000
    draw = LevelDraws(cantor, 2)
    level_sys, child = draw(Xoshiro256StarStarLanes(stream_seeds(5, range(n))))
    hits = int(neck_mask(np.moveaxis(child, -1, 0), draw.real[level_sys.T]).sum())
    se = math.sqrt(exact * (1 - exact) / n)
    assert abs(hits / n - exact) < 4 * se


# ---------------------------------------------------------------------------
# tree construction

def test_cantor_tree_generation_sizes(cantor):
    tree = build_tree(cantor, 1, 6, rng=rng_for(1))
    assert [g.size for g in tree.generations] == [2 ** i for i in range(7)]
    assert tree.node_count == 2 ** 7 - 1


def test_depth_zero_tree(cantor):
    tree = build_tree(cantor, 1, 0, rng=rng_for(1))
    assert tree.depth == 0 and tree.node_count == 1
    assert tree.generations[0].rprod[0] == 1.0
    assert tree.generations[0].mprod[0] == 1.0
    assert tree.env_levels == 0
    assert tree.level_sys.shape == (0, 1) and tree.child.shape == (0, 1, 2)


def test_single_type_all_levels_are_necks(cantor):
    tree = build_tree(cantor, 1, 5, rng=rng_for(2))
    assert tree.neck_levels == (1, 2, 3, 4, 5)


def test_node_cap_enforced(cantor):
    with pytest.raises(TreeTooLargeError):
        build_tree(cantor, 1, 12, rng=rng_for(3), node_cap=1000)


class _CountingRng(Xoshiro256StarStar):
    """Counts generator steps."""

    __slots__ = ("steps",)

    def next_u64(self, *args, **kwargs):
        self.steps += 1
        return super().next_u64(*args, **kwargs)


def test_oversized_depth_fails_before_drawing_past_the_cap(two_system):
    # The node count passes the cap at generation 15; drawing all 100,000
    # levels first would take about 700,000 steps.
    rng = _CountingRng(stream_seed(1, 0))
    rng.steps = 0
    with pytest.raises(TreeTooLargeError, match="by generation 15$"):
        build_tree(two_system, 2, 100_000, rng=rng, node_cap=1_000_000)
    assert rng.steps <= 1 + 15 * 8  # root type, then V + V * width per level


@pytest.mark.parametrize("edit, message", [
    (lambda s, c: (s[:, :1], c[:, :1]), "type count does not match"),
    (lambda s, c: (s, c[..., 0]), "type count does not match"),
    (lambda s, c: (np.where(s == 1, 2, s), c), "assigns unknown system 2 to type"),
    (lambda s, c: (s, c[..., :2]), "row . does not match system 1 map count"),
    (lambda s, c: (s, np.where(c == 1, 2, c)), "row . contains an invalid type"),
])
def test_bad_environment_table_is_rejected(two_system, edit, message):
    tree = build_tree(two_system, 2, 4, rng=rng_for(7), env_levels=40)
    assert (tree.level_sys == 1).any() and (tree.child == 1).any()
    with pytest.raises(ValueError, match=message):
        build_tree(two_system, 2, 4, root_type=0,
                   environments=edit(tree.level_sys, tree.child))


def test_env_levels_with_a_given_table_is_rejected(two_system):
    """A given table's length is its level count; a second count beside it
    is refused, not ignored."""
    tree = build_tree(two_system, 2, 4, rng=rng_for(7), env_levels=40)
    for env_levels in (4, 40):
        with pytest.raises(ValueError, match="env_levels is the length of the given"):
            build_tree(two_system, 2, 4, root_type=0, env_levels=env_levels,
                       environments=(tree.level_sys, tree.child))
    assert build_tree(two_system, 2, 4, root_type=0,
                      environments=(tree.level_sys, tree.child)).env_levels == 40


def test_build_deterministic(two_system):
    t1 = build_tree(two_system, 2, 6, rng=rng_for(7))
    t2 = build_tree(two_system, 2, 6, rng=rng_for(7))
    assert t1.root_type == t2.root_type
    assert np.array_equal(t1.level_sys, t2.level_sys)
    assert np.array_equal(t1.child, t2.child)
    for g1, g2 in zip(t1.generations, t2.generations):
        assert np.array_equal(g1.types, g2.types)
        assert np.array_equal(g1.rprod, g2.rprod)


def test_cumulative_products_multiply(two_system):
    tree = build_tree(two_system, 2, 4, rng=rng_for(11))
    for g in range(1, tree.depth + 1):
        gen = tree.generations[g]
        parent = tree.generations[g - 1]
        for i in range(gen.size):
            p = gen.parent[i]
            sys_ = two_system.systems[tree.level_sys[g - 1][parent.types[p]]]
            pos = gen.pos[i]
            assert gen.rprod[i] == parent.rprod[p] * sys_.maps[pos].ratio
            assert gen.mprod[i] == parent.mprod[p] * sys_.weights[pos]


# ---------------------------------------------------------------------------
# cut sets

def test_cut_set_zero_is_root(cantor):
    tree = build_tree(cantor, 1, 3, rng=rng_for(1))
    cs = cut_set(tree, 0)
    assert cs.size == 1 and cs.harmonic_scale == 1.0 and cs.max_gap == 0


def test_cantor_cut_sets_fill_whole_generations(cantor):
    tree = build_tree(cantor, 1, 10, rng=rng_for(1))
    for k in range(1, 6):
        cs = cut_set(tree, k)
        level = math.ceil(k / math.log(6.0))
        assert set(cs.levels.tolist()) == {level}
        assert cs.size == 2 ** level
        assert cs.harmonic_scale == 6.0 ** level
        assert (cs.products <= math.exp(-k)).all()


def test_cut_set_coverage_exactly_once(two_system):
    # exactly one ancestor-or-self per deepest node, over several trees
    found = 0
    for seed in range(40):
        try:
            tree = build_tree(two_system, 2, 10, rng=rng_for(seed), node_cap=500_000)
            cs = cut_set(tree, 2)
        except (TreeTooLargeError, DepthExhaustedError):
            continue
        found += 1
        pairs = list(zip(cs.levels.tolist(), cs.node_index.tolist()))
        assert pairs == sorted(set(pairs))  # strictly increasing (level, node)
        members = set(pairs)
        deepest = tree.generations[tree.depth]
        for node in range(0, deepest.size, max(1, deepest.size // 97)):
            hits, idx = 0, node
            for g in range(tree.depth, -1, -1):
                hits += (g, idx) in members
                idx = int(tree.generations[g].parent[idx])
            assert hits == 1
        if found >= 5:
            break
    assert found >= 3


def test_cut_set_chain_bounds_exact(two_system):
    eta = scale_extrema(two_system).eta
    checked = 0
    for seed in range(40):
        try:
            tree = build_tree(two_system, 2, 12, rng=rng_for(seed), node_cap=500_000)
        except TreeTooLargeError:
            continue
        for k in (1, 2, 3):
            try:
                cs = cut_set(tree, k)
            except DepthExhaustedError:
                continue
            thr = math.exp(-float(k))
            assert (cs.products <= thr).all()
            assert (cs.products >= thr * eta ** cs.max_gap).all()
            checked += 1
    assert checked >= 10


def test_cut_set_depth_exhausted_hint(cantor):
    tree = build_tree(cantor, 1, 2, rng=rng_for(1))
    with pytest.raises(DepthExhaustedError, match=r"needs at least [1-9]\d* more levels"):
        cut_set(tree, 8)  # needs level ceil(8/log 6) = 5


# ---------------------------------------------------------------------------
# neck block sums

def _log_sums(tree, x, starts, lens, roots):
    """The package DP's log-sums of blocks that are segments of the tree's
    table, block b starting at level ``starts[b]`` from type ``roots[b]``."""
    lens = np.array(lens)
    layout = _kernels.block_layout(
        segment_levels(tree.level_sys, tree.child, np.array(starts), lens), lens,
        np.array(roots))
    return _kernels.block_log_sums(layout, tree.v_types, tree.catalog, x)


def test_cantor_root_exponent_gives_unit_sums(cantor):
    tree = build_tree(cantor, 1, 8, rng=rng_for(1))
    x = math.log(2.0) / math.log(6.0)
    assert tree.neck_levels[:8] == tuple(range(1, 9))  # every V = 1 level is a neck
    blocks = _log_sums(tree, x, range(8), [1] * 8, [0] * 8)
    assert (np.abs(blocks) < 1e-12).all()
    direct = _log_sums(tree, x, [0], [8], [0])
    assert abs(math.exp(direct[0]) - 1.0) < 1e-10


def test_single_block_is_plain_map_sum(two_system):
    root, envs = scalar_tree_stream(two_system, 1, 1, 21)
    tree = build_tree(two_system, 1, 0, root_type=root,
                      environments=env_table(two_system, 1, envs))
    assert tree.level_sys.dtype == tree.child.dtype == LevelDraws(two_system, 1).dtype
    x = 0.4
    (direct,) = _log_sums(tree, x, [0], [tree.neck_levels[0]], [root])
    j = envs[0].indices[0]
    sys_ = two_system.systems[j]
    expected = sum((m.ratio * w) ** x for m, w in zip(sys_.maps, sys_.weights))
    assert math.isclose(math.exp(direct), expected, rel_tol=1e-12)


def test_factorization_identity_random_trees(two_system):
    """The log-sum from the root to the third neck is the sum of those of
    the neck-to-neck blocks, each starting at its neck's common type."""
    worst = 0.0
    for i, v in enumerate([1, 2, 3] * 4):
        root, envs = scalar_tree_stream(two_system, v, 3, 100 + i)
        tree = build_tree(two_system, v, 0, root_type=root,
                          environments=env_table(two_system, v, envs))
        bounds = np.array((0,) + tree.neck_levels[:3])
        roots = np.append(root, tree.child[bounds[1:-1] - 1, 0, 0])
        for x in (0.2, 0.45, 0.8):
            (direct,) = _log_sums(tree, x, [0], [bounds[-1]], [root])
            blocks = _log_sums(tree, x, bounds[:-1], np.diff(bounds), roots)
            worst = max(worst, abs(direct - blocks.sum()) / max(1.0, abs(direct)))
    assert worst < 1e-10


def test_dp_matches_brute_force_node_sum(two_system):
    for seed in range(30):
        try:
            tree = build_tree(two_system, 2, 10, rng=rng_for(seed), node_cap=500_000)
        except TreeTooLargeError:
            continue
        if not tree.neck_levels:
            continue
        x = 0.37
        neck = tree.neck_levels[0]
        (direct,) = _log_sums(tree, x, [0], [neck], [tree.root_type])
        gen = tree.generations[neck]
        brute = float(((gen.rprod * gen.mprod) ** x).sum())
        assert math.isclose(math.exp(direct), brute, rel_tol=1e-12)
        return
    pytest.fail("no materializable tree with a neck found")


# ---------------------------------------------------------------------------
# neck subtree identity

def test_subtrees_below_neck_are_identical(two_system):
    for seed in range(40):
        try:
            tree = build_tree(two_system, 2, 8, rng=rng_for(seed), node_cap=500_000)
        except TreeTooLargeError:
            continue
        necks = [l for l in tree.neck_levels if l <= tree.depth - 2]
        if not necks:
            continue
        l = necks[0]
        gen = tree.generations[l]
        assert np.unique(gen.types).size == 1
        # parent-major order makes each neck node's descendants a contiguous
        # block; identical subtrees mean the per-block type/pos rows agree
        for g in range(l + 1, min(l + 3, tree.depth) + 1):
            arrs = tree.generations[g]
            per = arrs.size // gen.size
            assert arrs.size == per * gen.size
            types = arrs.types.reshape(gen.size, per)
            pos = arrs.pos.reshape(gen.size, per)
            assert (types == types[0]).all()
            assert (pos == pos[0]).all()
        sub = neck_subtree(tree, l)
        assert sub.root_type == gen.types[0]
        assert sub.level_sys.dtype == sub.child.dtype == LevelDraws(two_system, 2).dtype
        return
    pytest.fail("no tree with an early neck found")


def test_neck_subtree_is_the_neck_root_over_the_table_below(two_system):
    """At a neck level l the subtree is one node of type ``child[l - 1, 0, 0]``
    over the table's last ``env_levels - l`` levels; level 0 gives the tree's
    own root type, and a level that is not a neck is refused."""
    tree = build_tree(two_system, 2, 0, rng=rng_for(1), env_levels=40)
    necks = set(tree.neck_levels)
    assert necks and len(necks) < 40
    for l in [0, *sorted(necks)]:
        sub = neck_subtree(tree, l)
        assert sub.root_type == (tree.root_type if l == 0 else tree.child[l - 1, 0, 0])
        assert sub.node_count == 1 and sub.depth == 0
        assert sub.env_levels == tree.env_levels - l
        assert np.array_equal(sub.level_sys, tree.level_sys[l:])
        assert np.array_equal(sub.child, tree.child[l:])
    for l in sorted(set(range(1, 41)) - necks):
        with pytest.raises(ValueError, match=f"level {l} is not a neck level"):
            neck_subtree(tree, l)


# ---------------------------------------------------------------------------
# exports

def test_jsonl_export_and_environments(two_system):
    tree = build_tree(two_system, 2, 3, rng=rng_for(3))
    buf = io.StringIO()
    tree_to_jsonl(tree, buf)
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    assert len(lines) == tree.node_count
    assert buf.getvalue() == "".join(json.dumps(l, sort_keys=True) + "\n" for l in lines)
    start = np.cumsum([0] + [g.size for g in tree.generations]).tolist()
    for level in range(1, tree.depth + 1):  # a path extends its parent's
        gen = tree.generations[level]
        for i, (p, q) in enumerate(zip(gen.parent.tolist(), gen.pos.tolist())):
            parent_path = lines[start[level - 1] + p]["path"]
            assert lines[start[level] + i]["path"] == parent_path + [q]
    assert lines[0]["path"] == [] and lines[0]["r_product"] == 1.0
    deepest = [l for l in lines if len(l["path"]) == tree.depth]
    assert len(deepest) == tree.generations[tree.depth].size
    obj = environments_to_obj(tree)
    assert len(obj) == tree.env_levels
    assert all(set(e) == {"indices", "child_types"} for e in obj)
