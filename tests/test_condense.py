"""Condensed Dirichlet and Neumann counts against the row-by-row Sturm scan
of the assembled pencils and against the dense oracle."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vvcantor import (DIRICHLET, NEUMANN, Catalog, ContractionMap, DepthExhaustedError,
                      InvalidInputError, TreeTooLargeError, WeightedIFS, Xoshiro256StarStar,
                      _kernels, assemble, build_tree, cli, condense,
                      condensed_counts, decompose, inertia_counts, pencil, refine_uniform,
                      stream_seed, vtree)
from vvcantor.cli import RunConfig, _build, _tree_rng, main
from conftest import dense_counts, dense_eigenvalues, make_lebesgue, make_two_system
from test_properties import catalogs

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MAX_ROWS = 256  # keeps the dense oracle cheap


def _pencils(tree, level, splits):
    dec = refine_uniform(decompose(tree, level), splits)
    return assemble(dec, DIRICHLET), assemble(dec, NEUMANN)


def _flat(tree, level, splits, xs):
    return tuple(_kernels.sturm_counts(p.kd, p.ko, p.md, p.mo, xs)
                 for p in _pencils(tree, level, splits))


# Halves with weights 0.4 and 0.6 on every level of the seed-1 tree: at
# x = 1000 a join below the root has a pivot of exactly 0, a pole of its
# complement that no shift near 1000 has in the whole pencil.
DYADIC = Catalog(0.0, 1.0, (WeightedIFS(
    (ContractionMap(0.5, 0.0), ContractionMap(0.5, 0.5)), (0.5, 0.5)),) * 2 + (WeightedIFS(
        (ContractionMap(0.5, 0.0), ContractionMap(0.5, 0.5)), (0.4, 0.6)),), (1 / 3,) * 3)


@pytest.mark.parametrize("path", ["float", "decimal"])
def test_condensed_counts_match_dense_oracle(monkeypatch, path):
    """On random catalogs, at a shift grid and 1e-7 relative off every
    eigenvalue of both pencils, the condensed counts equal the dense oracle
    wherever the flat count does not change within 1e-9 relative. With
    ``_NEAR`` at 1 every shift is counted in decimal, and the counts equal
    the oracle at every shift."""
    decimal = path == "decimal"
    if decimal:
        monkeypatch.setattr(condense, "_NEAR", 1.0)

    # Hypothesis inside the test, so that the decimal run, about 0.1 s an
    # example, keeps its own example count under the ci profile.
    @settings(deadline=None, **({"max_examples": 30} if decimal else {}))
    @example(catalog=DYADIC, v=1, depth=3, splits=2, seed=1)
    @given(catalog=catalogs(), v=st.integers(1, 3), depth=st.integers(0, 5),
           splits=st.integers(1, 8), seed=st.integers(0, 2 ** 64 - 1))
    def check(catalog, v, depth, splits, seed):
        tree = build_tree(catalog, v, depth, rng=Xoshiro256StarStar(stream_seed(seed, 0)))
        level = max(l for l in range(depth + 1)
                    if tree.generations[l].size * splits <= MAX_ROWS)
        pencils = _pencils(tree, level, splits)
        lam = np.concatenate([dense_eigenvalues(p) for p in pencils])
        lam = lam[lam > 1e-6]
        xs = np.concatenate((np.geomspace(1.0, 1e6, 25), lam * (1 - 1e-7), lam * (1 + 1e-7)))
        for pen, counts in zip(pencils, condensed_counts(tree, level, splits, xs)):
            near = (np.zeros(xs.shape, bool) if decimal else
                    inertia_counts(pen, xs * (1 - 1e-9)) != inertia_counts(pen, xs * (1 + 1e-9)))
            assert np.array_equal(counts[~near], dense_counts(pen, xs)[~near])

    check()


@pytest.mark.parametrize("name", ["lebesgue", "cantor", "two_system_v2"])
def test_condensed_counts_equal_flat_kernel_on_shipped_configs(name):
    cfg = RunConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))
    tree = _build(cfg, 12)
    lo, hi, _ = cfg.x_grid
    rng = np.random.default_rng(12)
    xs = np.concatenate((cfg.grid(),
                         10.0 ** rng.uniform(np.log10(lo) - 1, np.log10(hi) + 1, 1000)))
    for splits in (1, 3):
        nd, nn = condensed_counts(tree, 12, splits, xs)
        fd, fn = _flat(tree, 12, splits, xs)
        assert np.array_equal(nd, fd) and np.array_equal(nn, fn)


def _lebesgue_tree(level):
    return build_tree(make_lebesgue(), 1, level, root_type=0,
                      rng=Xoshiro256StarStar(stream_seed(0, 0)))


def test_ties_count_as_at_or_below():
    """Level 1: the join pivot of the middle node, 3 + 3 - 6, is exactly 0
    at x = 12; the shift is counted again in decimal, where that exact 0 is
    a tie, counted and replaced by a tiny negative pivot as the row
    recurrence does, and N_D = 1. Level 0: the root's ``det`` is exactly 0
    at x = 12, so both Neumann eigenvalues, 0 and 12, count."""
    below, at = np.array([12.0 * (1 - 1e-12)]), np.array([12.0])
    one = _lebesgue_tree(1)
    assert condensed_counts(one, 1, 1, below)[0].tolist() == [0]
    assert condensed_counts(one, 1, 1, at)[0].tolist() == [1]
    assert _flat(one, 1, 1, at)[0].tolist() == [1]
    root = _lebesgue_tree(0)
    assert condensed_counts(root, 0, 1, below)[1].tolist() == [1]
    assert condensed_counts(root, 0, 1, at)[1].tolist() == [2]
    assert _flat(root, 0, 1, at)[1].tolist() == [2]


@pytest.mark.parametrize("chunk", [1, 3])
def test_chunked_shifts_give_the_same_counts(monkeypatch, chunk):
    tree = build_tree(make_two_system(), 2, 6, rng=Xoshiro256StarStar(stream_seed(5, 0)))
    xs = np.geomspace(2.0, 5e4, 7)
    want = condensed_counts(tree, 6, 2, xs)
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    got = condensed_counts(tree, 6, 2, xs)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_leaf_chain_matches_the_closed_form(monkeypatch):
    """Lebesgue at level 0 split into n = 10^7 elements: the consistent-mass
    eigenvalues are ``6 n^2 (1 - cos(k pi/n)) / (2 + cos(k pi/n))``, with
    k = 1 .. n-1 for Dirichlet and k = 0 .. n for Neumann, and the counts
    equal theirs. The chain of n leaves is built by doubling: at most two
    joins per bit of n."""
    root = _lebesgue_tree(0)
    n = 10 ** 7
    xs = np.geomspace(1e2, 1e6, 17)
    theta = np.arange(1000) * np.pi / n  # lam[999] > 9.8e6, past every shift
    lam = 12.0 * n * n * np.sin(theta / 2) ** 2 / (2 + np.cos(theta))
    nd, nn = condensed_counts(root, 0, n, xs)
    assert nd.tolist() == (lam[1:, None] <= xs).sum(axis=0).tolist()
    assert nn.tolist() == (nd + 1).tolist()  # k = 0; k = n is 12 n^2
    assert (nd[0], nd[8]) == (3, 31)

    calls, join = [], condense._join

    def counted(*args):
        calls.append(1)
        return join(*args)

    monkeypatch.setattr(condense, "_join", counted)
    for splits in (2 ** 20, 2 ** 20 - 1):
        calls.clear()
        condensed_counts(root, 0, splits, xs)
        assert 20 <= len(calls) <= 40


def test_level_past_the_tree_is_depth_exhausted():
    tree = _lebesgue_tree(3)
    with pytest.raises(DepthExhaustedError) as err:
        condensed_counts(tree, 4, 1, [1.0])
    assert err.value.extra_depth_hint == 1


def _inset_catalog(offset):
    """Lebesgue with the first image ``[offset, 0.5]``: the catalog's
    endpoint tolerance admits an ``offset`` of 5e-13."""
    return Catalog(0.0, 1.0, (WeightedIFS(
        (ContractionMap(0.5 - offset, offset), ContractionMap(0.5, 0.5)),
        (0.5, 0.5)),), (1.0,))


def test_end_insets_are_tracked():
    """A first image that starts 5e-13 inside the interval leaves a gap of
    5e-13 r before every right sibling's subtree. The flat decomposition
    keeps these gaps while they pass its touching tolerance in absolute
    length and the condensed count keeps them at every depth; the counts
    agree with the flat scan either way. (The dense oracle is off here: the
    gaps put stiffness entries of about 1e13 into the pencil.)"""
    tree = build_tree(_inset_catalog(5e-13), 1, 8, root_type=0,
                      rng=Xoshiro256StarStar(stream_seed(0, 0)))
    gaps = [(d.lefts[1:] > d.rights[:-1]).sum() for d in (decompose(tree, 2), decompose(tree, 8))]
    assert gaps[0] == 1 and gaps[1] < 2 ** 7 - 1
    xs = np.geomspace(1.0, 1e6, 200)
    for level in (2, 8):
        got = condensed_counts(tree, level, 1, xs)
        assert all(np.array_equal(g, f) for g, f in zip(got, _flat(tree, level, 1, xs)))


def test_end_inset_overlap_is_invalid_input():
    """A first image that starts 5e-13 before the interval makes each right
    sibling's subtree overlap its left neighbour: invalid input, as in
    ``decompose``."""
    tree = build_tree(_inset_catalog(-5e-13), 1, 3, root_type=0,
                      rng=Xoshiro256StarStar(stream_seed(0, 0)))
    with pytest.raises(InvalidInputError, match="overlap"):
        decompose(tree, 2)
    with pytest.raises(InvalidInputError, match="overlap"):
        condensed_counts(tree, 2, 1, [1.0])


def test_huge_shifts_are_invalid_input(tmp_path):
    """``count`` on cantor.json at level 4 with shifts up to 1e308: the old
    scan overflowed and wrote N_D/N_N 16/16 at x = 2.2e205 above 30/32 at
    4.6e102 (pencil dims 30 and 32). Both counts now refuse such shifts
    and keep their results below the threshold."""
    doc = json.loads((CONFIGS / "cantor.json").read_text())
    doc.update(depth=4, level=4, x_grid={"lo": 1.0, "hi": 1e308, "count": 4})
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(doc))
    assert main(["count", "--config", str(config), "--out", str(tmp_path / "out")]) == 2

    tree = _build(RunConfig.from_dict(doc), 4)
    pd, pn = _pencils(tree, 4, 1)
    for x in (2.2e205, 1e308):
        with pytest.raises(InvalidInputError):
            inertia_counts(pd, [x])
        with pytest.raises(InvalidInputError):
            condensed_counts(tree, 4, 1, [x])
    xs = np.array([1.0, 4.6e102])
    assert [c.tolist() for c in condensed_counts(tree, 4, 1, xs)] == [[0, 30], [1, 32]]
    assert inertia_counts(pd, xs).tolist() == [0, 30]
    assert inertia_counts(pn, xs).tolist() == [1, 32]


# ---------------------------------------------------------------------------
# Counts from the environment table alone

TWO_SYSTEM_V2 = json.loads((CONFIGS / "two_system_v2.json").read_text())


def _table(doc, level):
    """The tree of the config ``doc`` at ``level`` with only its root
    materialized."""
    return _build(RunConfig.from_dict(dict(doc, level=level)), 0)


def _recorded_builds(monkeypatch, module) -> list:
    """The depths that ``module`` calls ``build_tree`` with from here on."""
    depths = []

    def recorded(catalog, v, depth, **kwargs):
        depths.append(depth)
        return build_tree(catalog, v, depth, **kwargs)

    monkeypatch.setattr(module, "build_tree", recorded)
    return depths


def test_table_only_counts_equal_the_materialized_tree():
    """two_system_v2 at level 16: a tree with only its root materialized has
    the table of the full tree, 2,945,651 nodes (past the config's node cap,
    raised here for the oracle), and the same counts, at splits 6 too, where
    the 1,843,968 cells refine past the node cap."""
    cfg = RunConfig.from_dict(TWO_SYSTEM_V2)
    table = _table(TWO_SYSTEM_V2, 16)
    full = build_tree(cfg.catalog, cfg.v, 16, rng=_tree_rng(cfg), node_cap=3_000_000)
    assert (table.depth, table.env_levels, full.node_count) == (0, 16, 2_945_651)
    assert np.array_equal(table.level_sys, full.level_sys)
    assert np.array_equal(table.child, full.child)
    xs = np.concatenate((cfg.grid(), np.geomspace(1e5, 1e12, 8)))
    for splits in (1, 2, 6):
        got, want = condensed_counts(table, 16, splits, xs), condensed_counts(full, 16, splits, xs)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_exponent_materializes_only_the_root(tmp_path, monkeypatch):
    """``exponent`` on two_system_v2 at level 18 builds the table alone and
    exits 0, where a full build passes the config's node cap at generation
    16."""
    doc = dict(TWO_SYSTEM_V2, depth=18, level=18)
    config = tmp_path / "deep.json"
    config.write_text(json.dumps(doc))
    with pytest.raises(TreeTooLargeError, match="generation 16"):
        _build(RunConfig.from_dict(doc), 18)
    depths = _recorded_builds(monkeypatch, cli)
    assert main(["exponent", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert depths == [0]
    doc = json.loads((tmp_path / "out" / "exponent.json").read_text())
    assert doc["empirical"]["level"] == 18


def test_count_past_int64_is_invalid_input():
    """two_system_v2 at level 60: N_D grows about as x^0.4 and passes
    2^63 - 1 by x = 1e50, which raises instead of wrapping to a negative
    count. Up to 1e45 the counts are positive and nondecreasing."""
    tree = _table(TWO_SYSTEM_V2, 60)
    xs = np.geomspace(1e2, 1e45, 44)
    nd, nn = condensed_counts(tree, 60, 1, xs)
    assert (nd > 0).all() and (nd <= nn).all()
    assert (np.diff(nd) >= 0).all() and (np.diff(nn) >= 0).all()
    with pytest.raises(InvalidInputError, match="2\\^63"):
        condensed_counts(tree, 60, 1, [1e50])


def test_plan_past_the_key_cap_is_too_large(monkeypatch):
    """two_system_v2 seed 1 at level 200 has 15,832 keys: counted under the
    node cap, refused early under a cap of 10,000 keys."""
    tree = _table(dict(TWO_SYSTEM_V2, seed=1), 200)
    assert condensed_counts(tree, 200, 1, [1e6])[0][0] > 0
    monkeypatch.setattr(condense, "DEFAULT_NODE_CAP", 10_000)
    with pytest.raises(TreeTooLargeError, match="10000 keys by generation 1[0-9][0-9]$"):
        condensed_counts(tree, 200, 1, [1e6])


def _fail(*args, **kwargs):
    raise AssertionError("a table-only count built, assembled or scanned a pencil")


def test_near_pole_recount_reads_only_the_table(monkeypatch):
    """``DYADIC``'s exact-zero join pivot at x = 1000 on a tree with only its
    root materialized, a rounding artifact of the float pass: the decimal
    recount builds and scans nothing and counts as the flat scan of the
    full tree does, 8/9."""
    full = build_tree(DYADIC, 1, 3, rng=Xoshiro256StarStar(stream_seed(1, 0)))
    table = build_tree(DYADIC, 1, 0, rng=Xoshiro256StarStar(stream_seed(1, 0)), env_levels=3)
    xs = np.array([999.0, 1000.0, 1001.0])
    want = _flat(full, 3, 2, xs)
    depths = _recorded_builds(monkeypatch, vtree)
    monkeypatch.setattr(_kernels, "sturm_counts", _fail)
    got = condensed_counts(table, 3, 2, xs)
    assert depths == []
    assert all(np.array_equal(g, f) for g, f in zip(got, want))
    assert [g[1] for g in got] == [8, 9]


@pytest.mark.parametrize("seed, poles, want", [
    (1, [2.2152319919411354e+20, 7.046251508637102e+27],
     [(76203694, 76203696), (76523222542, 76523222544)]),
    (2, [1750254637112820.0, 1.795413515307934e+23],
     [(697918, 697920), (1059867647, 1059867648)])])
def test_near_pole_shifts_count_at_level_60(monkeypatch, seed, poles, want):
    """two_system_v2 at level 60, table only: a shift within 1e-9 of each of
    these near-poles meets a join pivot near 0 in float, where a recount on
    the assembled pencils could not build the level (``TreeTooLargeError``
    by generation 17). The decimal recount counts them, with no build,
    assembly or Sturm scan, and each count equals its neighbours'."""
    tree = _table(dict(TWO_SYSTEM_V2, seed=seed), 60)
    for module, name in ((vtree, "build_tree"), (pencil, "assemble"),
                         (_kernels, "sturm_counts")):
        monkeypatch.setattr(module, name, _fail)
    recounted, chunk_counts = [], condense._chunk_counts

    def recorded(*args):
        recounted.extend(args[-1].tolist() if args[-1].dtype == object else [])
        return chunk_counts(*args)

    monkeypatch.setattr(condense, "_chunk_counts", recorded)
    for x, (n_d, n_n) in zip(poles, want):
        nd, nn = condensed_counts(tree, 60, 1, [x * (1 - 1e-9), x, x * (1 + 1e-9)])
        assert nd.tolist() == [n_d] * 3 and nn.tolist() == [n_n] * 3
    assert len(recounted) == 6


@pytest.mark.parametrize("name, last", [("two_system_v2", 293), ("cantor", 399)])
def test_leaf_shift_underflow_is_invalid_input(name, last):
    """At the config's grid, the leaf shifts ``x r m`` of ``last + 1``
    levels fall below the smallest normal float, where the leaf masses
    underflow and the counts collapsed to 0 (N_D at level 340 of
    two_system_v2 and 420 of Cantor). That level is refused; at ``last``
    the counts still equal level 60's."""
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    xs = RunConfig.from_dict(doc).grid()
    want = condensed_counts(_table(doc, 60), 60, 1, xs)
    got = condensed_counts(_table(doc, last), last, 1, xs)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    deep = _table(doc, last + 1)
    with pytest.raises(InvalidInputError, match=f"leaf shift at level {last + 1} is"):
        condensed_counts(deep, last + 1, 1, xs)
    assert condensed_counts(deep, last + 1, 1, [0.0])[0].tolist() == [0]


def test_underflow_is_refused_while_planning(monkeypatch):
    """two_system_v2 at level 3,000: the leaf shifts underflow from
    generation 294, and planning stops there instead of planning 3,000
    generations first. Nor does it read a table row below the refusal,
    for end insets or gaps: those rows name no system here."""
    planned, unique_rows = [], condense._unique_rows

    def recorded(rows):
        planned.append(1)
        return unique_rows(rows)

    monkeypatch.setattr(condense, "_unique_rows", recorded)
    tree = _table(TWO_SYSTEM_V2, 3000)
    tree.level_sys = tree.level_sys.copy()
    tree.level_sys[294:] = 255
    with pytest.raises(InvalidInputError, match="leaf shift at level 3000 is .* by generation 294,"):
        condensed_counts(tree, 3000, 1, RunConfig.from_dict(TWO_SYSTEM_V2).grid())
    assert len(planned) == 294


def test_exponent_past_the_underflow_names_it(tmp_path, capsys):
    """``exponent`` on two_system_v2 at level 340 fails on the underflow,
    not on an empirical fit over collapsed counts."""
    config = tmp_path / "underflow.json"
    config.write_text(json.dumps(dict(TWO_SYSTEM_V2, level=340)))
    assert main(["exponent", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "exponent failed: InvalidInputError: a leaf shift at level 340" in (
        capsys.readouterr().err)
