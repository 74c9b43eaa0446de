"""Condensed Dirichlet and Neumann counts against the row-by-row Sturm scan
of the assembled pencils and against the dense oracle."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vvcantor import (DIRICHLET, NEUMANN, Catalog, ContractionMap, DepthExhaustedError,
                      InvalidInputError, WeightedIFS, Xoshiro256StarStar, _kernels,
                      assemble, build_tree, condensed_counts, decompose, inertia_counts,
                      refine_uniform, stream_seed)
from vvcantor.cli import RunConfig, _build, main
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


@settings(deadline=None)
@example(catalog=DYADIC, v=1, depth=3, splits=2, seed=1)
@given(catalog=catalogs(), v=st.integers(1, 3), depth=st.integers(0, 5),
       splits=st.integers(1, 3), seed=st.integers(0, 2 ** 64 - 1))
def test_condensed_counts_match_dense_oracle(catalog, v, depth, splits, seed):
    """On random catalogs, at a shift grid and 1e-7 relative off every
    eigenvalue of both pencils, the condensed counts equal the dense oracle
    wherever the flat count does not change within 1e-9 relative."""
    tree = build_tree(catalog, v, depth, rng=Xoshiro256StarStar(stream_seed(seed, 0)))
    level = max(l for l in range(depth + 1)
                if tree.generations[l].size * splits <= MAX_ROWS)
    pencils = _pencils(tree, level, splits)
    lam = np.concatenate([dense_eigenvalues(p) for p in pencils])
    lam = lam[lam > 1e-6]
    xs = np.concatenate((np.geomspace(1.0, 1e6, 25), lam * (1 - 1e-7), lam * (1 + 1e-7)))
    for pencil, counts in zip(pencils, condensed_counts(tree, level, splits, xs)):
        near = (inertia_counts(pencil, xs * (1 - 1e-9))
                != inertia_counts(pencil, xs * (1 + 1e-9)))
        assert np.array_equal(counts[~near], dense_counts(pencil, xs)[~near])


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
    at x = 12; the shift is recounted row by row, and N_D = 1. Level 0: the
    root's ``det`` is exactly 0 at x = 12, so both Neumann eigenvalues, 0
    and 12, count."""
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
    assert decompose(tree, 2).gap_lefts.shape[0] == 1
    assert decompose(tree, 8).gap_lefts.shape[0] < 2 ** 7 - 1
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
