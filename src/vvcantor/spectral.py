"""Spectral exponents: exact roots, Monte Carlo estimates, empirical slopes,
and the bracketing / cut-set verification suites.

The exponent of a construction is the unique positive root of a strictly
decreasing function f. Every γ method is an evaluator: ``f(x) -> (value,
se)`` plus the ``method``, ``blocks`` and ``master_seed`` that
``solve_gamma`` reports. For one type per level f has the closed form
``sum_j p_j log sum_i (r_i m_i)^x`` (se 0, no blocks); in general f is
estimated by averaging log block sums over independently seeded neck
blocks. Blocks are sampled once per evaluator and reused for every x
(common random numbers), so the estimate is a deterministic, exactly
decreasing function of x and the bisection below never sees sampling
noise; noise enters only through the reported confidence interval.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Callable

import numpy as np

from . import _kernels
from .catalog import Catalog, map_table, scale_extrema
from .condense import condensed_counts
from .errors import (DepthExhaustedError, InsufficientDataError, NeckTimeoutError,
                     NoisyRootError, TreeTooLargeError)
from .rng import Xoshiro256StarStarLanes, stream_seeds
from .vtree import (DEFAULT_NODE_CAP, LevelDraws, VTree, cut_set, neck_mask,
                    neck_subtree)
# Not called here since the Monte Carlo lanes and the condensed counts;
# perfbench/tracing.py still wraps these names in vvcantor.spectral and its
# self-check expects them.
from .measure import decompose  # noqa: F401
from .pencil import assemble, inertia_counts, refine_uniform  # noqa: F401
from .vtree import sample_environment  # noqa: F401

# Stream ids (reproducibility contract): the main tree uses stream 0, Monte
# Carlo block b uses stream 1 + b.
TREE_STREAM = 0
MC_BLOCK_STREAM_BASE = 1

DEFAULT_ENV_CAP = 100_000
SIGN_Z = 3.0  # standard errors: a Monte Carlo f's sure sign and its CI half-width
MAX_BLOCK_GROWTH = 16  # solve_gamma's cap on the growth of its block count


# ---------------------------------------------------------------------------
# Exact evaluators

def f_exact_homogeneous(catalog: Catalog, x: float) -> float:
    """sum_j p_j log sum_i (r_i m_i)^x; strictly decreasing in x > 0."""
    if x <= 0:
        raise ValueError("x must be positive")
    total = 0.0
    for p, sys_ in zip(catalog.index_probs, catalog.systems):
        s = sum((m.ratio * w) ** x for m, w in zip(sys_.maps, sys_.weights))
        total += p * math.log(s)
    return total


def _recursive_f(catalog: Catalog, x: float) -> float:
    return sum(
        p * sum((m.ratio * w) ** x for m, w in zip(sys_.maps, sys_.weights))
        for p, sys_ in zip(catalog.index_probs, catalog.systems)) - 1.0


@dataclass(frozen=True)
class ClosedForm:
    """An f known in closed form: se 0, and no blocks to grow or report."""
    fn: Callable[[float], float]
    method: str
    blocks = None
    master_seed = None

    def f(self, x: float) -> tuple[float, float]:
        return self.fn(x), 0.0


# ---------------------------------------------------------------------------
# Monte Carlo evaluator

def _draw_blocks(catalog: Catalog, v_types: int, master_seed: int, first: int,
                 count: int) -> tuple:
    """``block_layout`` arguments of the neck blocks ``first + k``, k <
    ``count``: entries, lengths and roots.

    Block b draws from stream ``MC_BLOCK_STREAM_BASE + b``: its root type
    ``(u*V)``, then ``LevelDraws`` levels until a neck, whose level is its
    length. All blocks are drawn in one pass of lockstep lanes, and each
    level's rows are kept lanes-last, as drawn. The entries are a generator
    of one ``(blocks, level_sys, child)`` per level, the blocks longer than
    the level, so no lane ids are kept; it hands on transposed views,
    (lanes, V) and (lanes, V, W), as ``block_layout`` reads them, and drops
    each level once it has handed it on.

    Raises ``TreeTooLargeError`` once the rows of the lanes still running
    (level times lanes) pass ``vtree.DEFAULT_NODE_CAP``, naming the level
    and the lowest running block, and ``NeckTimeoutError`` for the lowest
    block that saw no neck within ``DEFAULT_ENV_CAP`` levels; every lower
    block has necked by then."""
    draw = LevelDraws(catalog, v_types)
    lane = first + np.arange(count)
    rng = Xoshiro256StarStarLanes(stream_seeds(master_seed, MC_BLOCK_STREAM_BASE + lane))
    roots = (rng.uniforms([None])[0] * v_types).astype(np.int64)
    lens, rows, level = np.zeros(count, np.int64), deque(), 0
    while lane.shape[0]:
        if level == DEFAULT_ENV_CAP:
            raise NeckTimeoutError(f"block {lane[0]} saw no neck within {level} levels")
        level += 1
        sys_, child, real = draw(rng)
        rows.append((sys_, child))
        neck = neck_mask(child.transpose(2, 0, 1), real.transpose(2, 0, 1))
        if neck.any():
            lens[lane[neck] - first] = level
            running = ~neck
            lane = lane[running]
            rng.keep(running)
        if lane.shape[0] * level > DEFAULT_NODE_CAP:
            raise TreeTooLargeError(
                f"{lane.shape[0]} Monte Carlo blocks from block {lane[0]} still run at "
                f"level {level}, past {DEFAULT_NODE_CAP} rows")

    def levels():
        for p in range(len(rows)):
            level_sys, child = rows.popleft()
            yield first + np.flatnonzero(lens > p), level_sys.T, child.transpose(2, 0, 1)

    return levels(), lens, roots


class MonteCarloNeckEvaluator:
    """Estimates f(x) from independently seeded neck blocks.

    Block b draws its root type and environments from the stream
    ``MC_BLOCK_STREAM_BASE + b`` until the first neck environment, in the
    draw order of ``vtree.LevelDraws``. ``_draw_blocks`` draws the blocks of
    one call in one pass of lockstep lanes, one per block, recording each
    block's length as it necks, and ``_kernels.block_layout`` takes the
    lengths, reads the rows once and orders the blocks longest first: the
    blocks still running at a level are then a prefix of that order, so
    each DP step of ``log_sums`` works on slices of its state and reused
    buffers, and sums a row of fewer than 8 types left to right, as
    ``numpy.sum`` does (pairwise from 8 on). The rows stay lanes-last from
    the draw to the DP, blocks on the contiguous axis, and each (block,
    type) sum still adds its products type by type, slots ascending, so the
    log-sums do not depend on the storage order. The layout is the evaluator's
    only copy of the drawn rows, shared by all x (common random numbers);
    the log-sums of the last x are kept until ``extend``.
    ``NeckTimeoutError`` names the lowest block that saw no neck within
    ``DEFAULT_ENV_CAP`` levels, the one drawing the blocks one by one would
    fail on, unless the rows of the running lanes pass
    ``vtree.DEFAULT_NODE_CAP`` first: that is a ``TreeTooLargeError``.
    """

    method = "monte-carlo-neck"

    def __init__(self, catalog: Catalog, v_types: int, blocks: int, master_seed: int):
        if blocks < 2:
            raise ValueError("at least 2 blocks are required")
        self.catalog = catalog
        self.v_types = v_types
        self.master_seed = master_seed
        self._layout = _kernels.block_layout(
            *_draw_blocks(catalog, v_types, master_seed, 0, blocks))
        self._last = (None, None)  # the last x and its read-only log-sums

    @property
    def blocks(self) -> int:
        return self._layout.order.shape[0]

    @property
    def neck_waits(self) -> np.ndarray:
        """First neck level per block."""
        return self._layout.lens

    def extend(self, extra: int) -> None:
        """Sample additional blocks; existing blocks are untouched."""
        levels, lens, roots = _draw_blocks(self.catalog, self.v_types, self.master_seed,
                                           self.blocks, extra)
        layout = self._layout
        self._layout = _kernels.block_layout(
            chain(layout.entries(), levels), np.concatenate((layout.lens, lens)),
            np.concatenate((layout.roots, roots)))
        self._last = (None, None)

    # -- evaluation ----------------------------------------------------------

    def log_sums(self, x: float) -> np.ndarray:
        """Per-block log-sums at x, read-only."""
        if self._last[0] != x:
            ls = _kernels.block_log_sums(self._layout, self.v_types,
                                         map_table(self.catalog), x)
            ls.setflags(write=False)
            self._last = (x, ls)
        return self._last[1]

    def f(self, x: float) -> tuple[float, float]:
        """Estimate of f(x) with its standard error."""
        if x <= 0:
            raise ValueError("x must be positive")
        ls = self.log_sums(x)
        return float(ls.mean()), float(ls.std(ddof=1) / math.sqrt(ls.shape[0]))

    def f_by_root_type(self, x: float) -> dict[int, float]:
        """Conditional block means given the root type (diagnostic)."""
        ls, roots = self.log_sums(x), self._layout.roots
        return {int(t): float(ls[roots == t].mean()) for t in np.unique(roots)}


# ---------------------------------------------------------------------------
# Root solving

@dataclass
class FEval:
    x: float
    value: float
    se: float


@dataclass
class EmpiricalFit:
    slope: float
    intercept: float
    residual: float
    n_points: int
    window: tuple[float, float]


@dataclass
class ExponentReport:
    gamma: float
    method: str
    f_evaluations: list[FEval]
    trace: list[dict]
    blocks: int | None = None
    seed: int | None = None
    ci: tuple[float, float] | None = None
    empirical: EmpiricalFit | None = None


def solve_gamma(evaluator, tolerance: float = 1e-3) -> ExponentReport:
    """Root of a strictly decreasing f by bracket search from x = 1
    (doubling or halving) and bisection.

    ``evaluator`` follows the module's protocol. Common random numbers make a
    Monte Carlo f deterministic, so only the bracket endpoints are checked
    for sign ambiguity: while |f| <= ``SIGN_Z`` * se there, the block count
    is doubled by ``extend`` up to ``MAX_BLOCK_GROWTH`` times the initial
    count before giving up with ``NoisyRootError``; an f with se 0 never
    extends. An evaluator with blocks gets a confidence interval, ``SIGN_Z``
    standard errors at the root through a secant slope. It keys on
    ``blocks``, not on se: the alike blocks of one system at v = 1 have se
    0 or rounding, and their interval has no width.
    """
    evals: list[FEval] = []
    initial_blocks = evaluator.blocks

    def feval(x: float) -> tuple[float, float]:
        v, se = evaluator.f(x)
        evals.append(FEval(x, v, se))
        return v, se

    def resolved(x: float) -> float:
        """Value at x, growing the block count while the sign is ambiguous."""
        v, se = feval(x)
        while se > 0.0 and abs(v) <= SIGN_Z * se:
            if evaluator.blocks >= initial_blocks * MAX_BLOCK_GROWTH:
                raise NoisyRootError(f"sign of f({x}) ambiguous at {evaluator.blocks} blocks")
            evaluator.extend(evaluator.blocks)
            v, se = feval(x)
        return v

    # Bracket from 1: doubling while f > 0, else halving while f <= 0.
    sign = 1.0 if resolved(1.0) > 0 else -1.0
    x = 1.0
    for _ in range(200):
        prev, x = x, x * 2.0 ** sign
        if sign * resolved(x) < 0:
            break
    else:
        raise AssertionError("no sign change found from x = 1")
    lo, hi = min(prev, x), max(prev, x)

    trace = [{"lo": lo, "hi": hi, "mid": None, "f_mid": None}]
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        vm, _ = feval(mid)
        if vm > 0:
            lo = mid
        else:
            hi = mid
        trace.append({"lo": lo, "hi": hi, "mid": mid, "f_mid": vm})
    gamma = 0.5 * (lo + hi)

    ci = None
    if evaluator.blocks is not None:
        delta = max(10.0 * tolerance, 0.02)
        x_right = gamma + delta
        x_left = max(gamma - delta, gamma / 2.0)
        v_right, _ = feval(x_right)
        v_left, _ = feval(x_left)
        slope = (v_right - v_left) / (x_right - x_left)
        _, se_root = feval(gamma)
        half = SIGN_Z * se_root / max(abs(slope), 1e-300)
        ci = (gamma - half, gamma + half)

    return ExponentReport(gamma=gamma, method=evaluator.method, f_evaluations=evals,
                          trace=trace, blocks=evaluator.blocks,
                          seed=evaluator.master_seed, ci=ci)


def solve_gamma_recursive(catalog: Catalog) -> float:
    """Root of sum_j p_j sum_i (r_i m_i)^gamma = 1 (the fully random
    construction's exponent; a comparison oracle for large type counts)."""
    evaluator = ClosedForm(partial(_recursive_f, catalog), "recursive-oracle")
    return solve_gamma(evaluator, 1e-10).gamma


def gamma_exact_homogeneous(catalog: Catalog) -> ExponentReport:
    """Exact exponent of the one-type-per-level construction."""
    method = "exact-selfsimilar" if catalog.n_systems == 1 else "exact-homogeneous"
    return solve_gamma(ClosedForm(partial(f_exact_homogeneous, catalog), method), 1e-10)


# ---------------------------------------------------------------------------
# Empirical slope

def empirical_exponent(samples, window: tuple[float, float]) -> EmpiricalFit:
    """Least-squares slope of log N against log x inside the window.

    ``samples`` is an (xs, counts) pair. Requires at least 8 in-window
    samples with count >= 1 and at least two distinct counts; otherwise
    raises InsufficientDataError.
    """
    xs, counts = np.asarray(samples[0], float), np.asarray(samples[1], float)
    lo, hi = window
    mask = (xs >= lo) & (xs <= hi) & (counts >= 1)
    xs, counts = xs[mask], counts[mask]
    if xs.shape[0] < 8:
        raise InsufficientDataError(
            f"only {xs.shape[0]} usable samples in window [{lo}, {hi}]")
    if np.unique(counts).shape[0] < 2:
        raise InsufficientDataError("all in-window counts are identical")
    lx, ln = np.log(xs), np.log(counts)
    design = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(design, ln, rcond=None)
    resid = ln - design @ coef
    return EmpiricalFit(slope=float(coef[0]), intercept=float(coef[1]),
                        residual=float(np.sqrt(np.mean(resid ** 2))),
                        n_points=int(xs.shape[0]), window=(float(lo), float(hi)))


# ---------------------------------------------------------------------------
# Bracketing check

@dataclass
class BracketingResult:
    """Lower/upper sums around the center counting functions on a grid.

    Per grid point the status is "ok" (chain holds), "warn" (total violation
    of one count at an isolated point; rounding can tie an eigenvalue with
    a rescaled shift) or "fail". A warning next to another warning is a
    failure, so a run of adjacent warnings fails whole.
    """

    k: int
    level: int
    splits: int
    x: np.ndarray
    lower: np.ndarray
    center_dirichlet: np.ndarray
    center_neumann: np.ndarray
    upper: np.ndarray
    status: list[str] = field(init=False)

    def __post_init__(self):
        d, n = self.center_dirichlet, self.center_neumann
        viol = (np.maximum(0, np.subtract(self.lower, d)) + np.maximum(0, np.subtract(d, n))
                + np.maximum(0, np.subtract(n, self.upper)))
        warn = viol == 1
        beside = np.zeros_like(warn)  # a warning on either side
        beside[1:] |= warn[:-1]
        beside[:-1] |= warn[1:]
        self.status = ["fail" if v > 1 or (w and b) else ("warn" if w else "ok")
                       for v, w, b in zip(viol.tolist(), warn.tolist(), beside.tolist())]

    @property
    def n_warn(self) -> int:
        return sum(s == "warn" for s in self.status)

    @property
    def n_fail(self) -> int:
        return sum(s == "fail" for s in self.status)


def center_counts(tree: VTree, xs, level: int, splits: int = 1) -> BracketingResult:
    """The k = 0 bracketing result: the center Dirichlet and Neumann counts
    of ``tree`` at ``level`` (plus ``splits`` uniform splits) at the sorted
    shifts. The 0-th cut set is the root alone with product 1, so lower =
    N_D and upper = N_N; one result serves ``bracketing_check`` for every k."""
    xs = np.sort(np.asarray(xs, dtype=np.float64))
    nd, nn = condensed_counts(tree, level, splits, xs)
    return BracketingResult(k=0, level=level, splits=splits, x=xs, lower=nd,
                            center_dirichlet=nd, center_neumann=nn, upper=nn)


def bracketing_check(tree: VTree, k: int, center: BracketingResult) -> BracketingResult:
    """Verify lower <= N_D <= N_N <= upper at matched resolution.

    ``center`` is ``center_counts``' k = 0 result, whose level, splits,
    shifts and center counts are reused; for k = 0 it is the answer. Every
    cut-set member at neck level l contributes the counting functions of
    the shared subtree, discretized at level ``level - l`` (plus the same
    uniform splits as the center), evaluated at its rescaled shifts and
    counted from the subtree's table alone. With
    this resolution matching the member meshes are exactly the center mesh
    restricted to the member cells, so the chain holds up to rounding ties.
    Members with the same product have the same counts, so each distinct
    product of a level is counted once and weighted by its members.
    """
    if k == 0:
        return center
    level, splits, xs = center.level, center.splits, center.x
    cs = cut_set(tree, k)
    max_level = int(cs.levels.max())
    if level < max_level:
        raise DepthExhaustedError(
            f"level {level} is shallower than the deepest cut-set member ({max_level})")

    lower, upper = np.zeros((2, xs.shape[0]), np.int64)
    for l in np.unique(cs.levels).tolist():
        prods, members = np.unique(cs.products[cs.levels == l], return_counts=True)
        sub_d, sub_n = condensed_counts(neck_subtree(tree, l), level - l, splits,
                                        np.outer(prods, xs).ravel())
        lower += members @ sub_d.reshape(prods.shape[0], -1)
        upper += members @ sub_n.reshape(prods.shape[0], -1)
    return BracketingResult(k=k, level=level, splits=splits, x=xs, lower=lower,
                            center_dirichlet=center.center_dirichlet,
                            center_neumann=center.center_neumann, upper=upper)


# ---------------------------------------------------------------------------
# Cut-set statistics

@dataclass
class CutsetStatsRow:
    k: int
    size: int                 # number of members
    harmonic_scale: float     # members / sum of member products
    max_gap: int              # largest neck-to-neck distance among members
    min_product: float
    max_product: float
    chain_lower_ok: bool      # min product >= exp(-k) * eta^max_gap
    chain_upper_ok: bool      # max product <= exp(-k)
    scale_lower_ok: bool      # harmonic scale >= exp(k)
    nd_at_scale: int | None = None
    ratio_nd_over_size: float | None = None
    nd_at_k_scale: int | None = None
    ratio_size_over_nd: float | None = None


def cutset_stats_check(tree: VTree, ks, level: int,
                       splits: int = 1) -> list[CutsetStatsRow]:
    """Exact product-chain checks per cut set plus counting diagnostics,
    with N_D counted on the Dirichlet pencil of ``level`` (and ``splits``).

    The count ratios (existential constants in the underlying growth
    estimates) are reported for inspection only; the second uses exponent 1
    on the k factor as a convention.
    """
    eta = scale_extrema(tree.catalog).eta
    rows = []
    for k in ks:
        cs = cut_set(tree, k)
        mn, mx = float(cs.products.min()), float(cs.products.max())
        ek = math.exp(-float(k))
        rows.append(CutsetStatsRow(
            k=k, size=cs.size, harmonic_scale=cs.harmonic_scale, max_gap=cs.max_gap,
            min_product=mn, max_product=mx,
            chain_lower_ok=bool(mn >= ek * eta ** cs.max_gap),
            chain_upper_ok=bool(mx <= ek),
            scale_lower_ok=bool(cs.harmonic_scale >= math.exp(float(k))),
        ))
    # One batched count: N_D at every harmonic scale, then at k times it.
    scaled = [r for r in rows if r.k >= 1]
    counts = condensed_counts(tree, level, splits,
                              [r.harmonic_scale for r in rows]
                              + [r.k * r.harmonic_scale for r in scaled])[0].tolist()
    for row, nd_t in zip(rows, counts[:len(rows)]):
        row.nd_at_scale = nd_t
        row.ratio_nd_over_size = nd_t / row.size
    for row, nd_kt in zip(scaled, counts[len(rows):]):
        row.nd_at_k_scale = nd_kt
        row.ratio_size_over_nd = (row.size / nd_kt) if nd_kt else None
    return rows
