"""Acceptance suite: one test per criterion, each printing a PASS line
(visible with ``pytest -s``). Tolerances are pinned here, not configurable.
"""

import math
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from vvcantor import (DIRICHLET, NEUMANN, DepthExhaustedError,
                      MonteCarloNeckEvaluator, TreeTooLargeError,
                      Xoshiro256StarStar, assemble, bracketing_check,
                      build_tree, center_counts, cut_set, decompose,
                      empirical_exponent, f_exact_homogeneous,
                      gamma_exact_homogeneous, inertia_counts, refine_uniform,
                      scale_extrema, solve_gamma, stream_seed)
from vvcantor import _kernels
from conftest import (dense_counts, dense_eigenvalues, env_table, interval_mass,
                      make_cantor, make_lebesgue, make_two_system,
                      scalar_tree_stream, segment_levels)

GAMMA_CANTOR = math.log(2.0) / math.log(6.0)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def rng_for(seed):
    return Xoshiro256StarStar(stream_seed(seed, 0))


@lru_cache(maxsize=1)
def feasible_v2_trees():
    """Ten V=2 trees (deterministic seed scan) whose third cut set fits the
    node cap; neck levels are random, so infeasible seeds are skipped."""
    cat = make_two_system()
    trees = []
    for seed in range(200):
        try:
            tree = build_tree(cat, 2, 12, rng=rng_for(seed), node_cap=2_000_000)
            cut_set(tree, 3)
        except (TreeTooLargeError, DepthExhaustedError):
            continue
        trees.append(tree)
        if len(trees) == 10:
            return trees
    raise AssertionError("fewer than 10 feasible trees in the seed range")


def test_criterion_1_weyl_baseline():
    with criterion(1, "uniform-measure catalog: lambda_1 near pi^2, slope 0.5"):
        start = time.perf_counter()
        leb = make_lebesgue()
        dec = refine_uniform(decompose(build_tree(leb, 1, 0, rng=rng_for(1)), 0), 4096)
        pen = assemble(dec, DIRICHLET)
        # lambda_1 within 1% of pi^2: none below 0.99 pi^2, one by 1.01 pi^2
        low, high = inertia_counts(pen, [0.99 * math.pi ** 2, 1.01 * math.pi ** 2])
        assert low == 0 and high >= 1
        xs = np.geomspace(1e2, 1e4, 8)  # minimum admissible sample count
        fit = empirical_exponent((xs, inertia_counts(pen, xs)), (1e2, 1e4))
        assert abs(fit.slope - 0.5) <= 0.03
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_2_self_similar_cantor():
    with criterion(2, "Cantor exponent log2/log6 exactly, empirical within 0.05"):
        cantor = make_cantor()
        rep = gamma_exact_homogeneous(cantor)
        assert abs(rep.gamma - GAMMA_CANTOR) <= 1e-10
        tree = build_tree(cantor, 1, 12, rng=rng_for(1))
        pen = assemble(decompose(tree, 12), DIRICHLET)
        xs = np.geomspace(1e3, 1e6, 32)  # below the discretization ceiling
        fit = empirical_exponent((xs, inertia_counts(pen, xs)), (1e3, 1e6))
        assert abs(fit.slope - GAMMA_CANTOR) <= 0.05


def test_criterion_3_homogeneous_consistency():
    with criterion(3, "Monte Carlo agrees with the exact evaluator at V=1"):
        cat = make_two_system()
        ev = MonteCarloNeckEvaluator(cat, 1, 10_000, master_seed=7)
        for x in np.geomspace(0.15, 0.6, 5):
            fhat, se = ev.f(float(x))
            assert se > 0
            assert abs(fhat - f_exact_homogeneous(cat, float(x))) <= 3 * se
        mc = solve_gamma(ev)
        exact = gamma_exact_homogeneous(cat).gamma
        assert mc.ci is not None and mc.ci[0] <= exact <= mc.ci[1]


def test_criterion_4_factorization_identity():
    with criterion(4, "direct vs block-product neck sums to 1e-10 on 50 trees"):
        cat = make_two_system()
        worst = 0.0
        count = 0
        for i, v in enumerate([1, 2, 3] * 17):
            if count >= 50:
                break
            root, envs = scalar_tree_stream(cat, v, 3, 1000 + i)
            tree = build_tree(cat, v, 0, root_type=root,
                              environments=env_table(cat, v, envs))
            # Blocks 0-2 run neck to neck from each neck's common type;
            # block 3 runs from the root straight to the third neck.
            bounds = np.array((0,) + tree.neck_levels[:3])
            lens = np.append(np.diff(bounds), bounds[-1])
            layout = _kernels.block_layout(
                segment_levels(tree.level_sys, tree.child, np.append(bounds[:-1], 0), lens),
                lens, np.concatenate(([root], tree.child[bounds[1:-1] - 1, 0, 0], [root])))
            for x in (0.2, 0.45, 0.8):
                *blocks, direct = _kernels.block_log_sums(layout, v, cat, x)
                worst = max(worst, abs(direct - sum(blocks)) / max(1.0, abs(direct)))
            count += 1
        assert count == 50
        assert worst < 1e-10, f"worst relative gap {worst:.3e}"


def test_criterion_5_measure_exactness():
    with criterion(5, "cell masses exact, total mass 1, cut sets partition mass"):
        cat = make_two_system()
        for seed in (8, 21):
            tree = build_tree(cat, 3, 12, rng=rng_for(seed), node_cap=2_000_000)
            dec = decompose(tree, 12)
            assert abs(dec.masses.sum() - 1.0) < 1e-12
            step = max(1, dec.n_cells // 151)
            for i in range(0, dec.n_cells, step):
                integrated = interval_mass(dec, float(dec.lefts[i]), float(dec.rights[i]))
                assert abs(integrated - float(dec.masses[i])) < 1e-12
        partitions = 0
        for tree in feasible_v2_trees()[:5]:
            for k in (1, 2, 3):
                cs = cut_set(tree, k)
                total = sum(float(tree.generations[l].mprod[i])
                            for l, i in zip(cs.levels.tolist(), cs.node_index.tolist()))
                assert abs(total - 1.0) < 1e-12
                partitions += 1
        assert partitions == 15


def test_criterion_6_bracketing():
    with criterion(6, "counting chain lower <= N_D <= N_N <= upper, no failures"):
        xs = np.geomspace(2.0, 5e4, 16)
        for tree in feasible_v2_trees():
            for k in (1, 2, 3):
                cs = cut_set(tree, k)
                level = min(tree.depth, int(cs.levels.max()) + 3)
                res = bracketing_check(tree, k, center_counts(tree, xs, level))
                assert res.n_fail == 0, f"failures at k={k}: {res.status}"


def test_criterion_7_eigenvalue_bounds():
    with criterion(7, "first eigenvalue and linear count bounds, interlacing"):
        instances = []
        leb = refine_uniform(decompose(build_tree(make_lebesgue(), 1, 0,
                                                  rng=rng_for(1)), 0), 1024)
        instances.append(leb)
        cantor_tree = build_tree(make_cantor(), 1, 8, rng=rng_for(1))
        instances.append(decompose(cantor_tree, 8))
        for tree in feasible_v2_trees()[:3]:
            instances.append(decompose(tree, min(tree.depth, 8)))
        xs = np.geomspace(0.5, 1e6, 40)
        for dec in instances:
            pd = assemble(dec, DIRICHLET)
            pn = assemble(dec, NEUMANN)
            # lambda_1 >= 1/(b-a) on the unit interval: no eigenvalue below 1
            assert inertia_counts(pd, [np.nextafter(1.0, 0.0)])[0] == 0
            cd = inertia_counts(pd, xs)
            cn = inertia_counts(pn, xs)
            assert (cd <= 0.25 * xs).all()  # (b-a)/4 kernel bound
            assert ((cn - cd) >= 0).all() and ((cn - cd) <= 2).all()


def test_criterion_8_oracle_equivalence():
    with criterion(8, "inertia counts equal dense eigensolves exactly"):
        rng = np.random.default_rng(2024)
        from vvcantor import Pencil

        for _ in range(100):
            n = int(rng.integers(1, 9))
            pen = Pencil(kd=rng.uniform(-2, 2, n), ko=rng.uniform(-1, 1, max(n - 1, 0)),
                         md=rng.uniform(1, 2, n), mo=rng.uniform(-0.25, 0.25, max(n - 1, 0)))
            eigs = dense_eigenvalues(pen)
            shifts = np.sort(rng.uniform(eigs.min() - 1, eigs.max() + 1, 20))
            assert np.array_equal(inertia_counts(pen, shifts),
                                  dense_counts(pen, shifts))


def test_criterion_9_cut_set_chain():
    with criterion(9, "exp(-k) eta^y chain holds exactly on every cut set"):
        cantor = make_cantor()
        eta_c = scale_extrema(cantor).eta
        tree = build_tree(cantor, 1, 10, rng=rng_for(1))
        for k in range(1, 9):
            cs = cut_set(tree, k)
            thr = math.exp(-float(k))
            assert (cs.products <= thr).all()
            assert (cs.products >= thr * eta_c ** cs.max_gap).all()
        cat = make_two_system()
        eta_m = scale_extrema(cat).eta
        for tree in feasible_v2_trees():
            for k in (1, 2, 3):
                cs = cut_set(tree, k)
                thr = math.exp(-float(k))
                assert (cs.products <= thr).all()
                assert (cs.products >= thr * eta_m ** cs.max_gap).all()
