"""Spectral exponents: exact roots, Monte Carlo estimates, empirical slopes,
and the bracketing / cut-set verification suites.

The exponent of a construction is the unique positive root of a strictly
decreasing function f. For one type per level f has the closed form
``sum_j p_j log sum_i (r_i m_i)^x``; in general f is estimated by averaging
log block sums over independently seeded neck blocks. Blocks are sampled
once per evaluator and reused for every x (common random numbers), so the
estimate is a deterministic, exactly decreasing function of x and the
bisection below never sees sampling noise; noise enters only through the
reported confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _recursive_mean(catalog: Catalog, x: float) -> float:
    return sum(
        p * sum((m.ratio * w) ** x for m, w in zip(sys_.maps, sys_.weights))
        for p, sys_ in zip(catalog.index_probs, catalog.systems))


# ---------------------------------------------------------------------------
# Monte Carlo evaluator

def _draw_blocks(catalog: Catalog, v_types: int, master_seed: int, first: int,
                 count: int) -> tuple[list, np.ndarray, np.ndarray]:
    """Rows, lens and roots of the neck blocks ``first + k``, k < ``count``.

    Block b draws from stream ``MC_BLOCK_STREAM_BASE + b``: its root type
    ``(u*V)``, then ``LevelDraws`` levels until a neck. All blocks are drawn
    in one pass of lockstep lanes; each level appends one ``block_log_sums``
    entry ``(blocks, level_sys, child)`` for the lanes that drew it.

    Raises ``TreeTooLargeError`` once the rows of the lanes still running
    (level times lanes) pass ``vtree.DEFAULT_NODE_CAP``, naming the level
    and the lowest running block, and ``NeckTimeoutError`` for the lowest
    block that saw no neck within ``DEFAULT_ENV_CAP`` levels; every lower
    block has necked by then."""
    draw = LevelDraws(catalog, v_types)
    lane = first + np.arange(count)
    rng = Xoshiro256StarStarLanes(stream_seeds(master_seed, MC_BLOCK_STREAM_BASE + lane))
    roots = (rng.uniforms([None])[0] * v_types).astype(np.int64)
    lens, rows, level = np.zeros(count, np.int64), [], 0
    while lane.shape[0]:
        if level == DEFAULT_ENV_CAP:
            raise NeckTimeoutError(f"block {lane[0]} saw no neck within {level} levels")
        level += 1
        sys_, child, real = draw(rng)
        rows.append((lane, sys_, child))
        neck = neck_mask(child, real)
        if neck.any():
            lens[lane[neck] - first] = level
            running = ~neck
            lane = lane[running]
            rng.keep(running)
        if lane.shape[0] * level > DEFAULT_NODE_CAP:
            raise TreeTooLargeError(
                f"{lane.shape[0]} Monte Carlo blocks from block {lane[0]} still run at "
                f"level {level}, past {DEFAULT_NODE_CAP} rows")
    return rows, lens, roots


class MonteCarloNeckEvaluator:
    """Estimates f(x) from independently seeded neck blocks.

    Block b draws its root type and environments from the stream
    ``MC_BLOCK_STREAM_BASE + b`` until the first neck environment, in the
    draw order of ``vtree.LevelDraws``. ``_draw_blocks`` draws the blocks of
    one call in one pass of lockstep lanes, one per block, and the DP reads
    their levels in the order they were drawn. They are shared by all x
    (common random numbers); the log-sums of the last x are kept until
    ``extend``. ``NeckTimeoutError`` names the lowest block that saw no
    neck within ``DEFAULT_ENV_CAP`` levels, the one drawing the blocks one
    by one would fail on, unless the rows of the running lanes pass
    ``vtree.DEFAULT_NODE_CAP`` first: that is a ``TreeTooLargeError``.
    """

    def __init__(self, catalog: Catalog, v_types: int, blocks: int, master_seed: int):
        if blocks < 2:
            raise ValueError("at least 2 blocks are required")
        self.catalog = catalog
        self.v_types = v_types
        self.master_seed = master_seed
        self._rows, self._lens, self._roots = _draw_blocks(
            catalog, v_types, master_seed, 0, blocks)
        self._last = (None, None)  # the last x and its read-only log-sums

    @property
    def blocks(self) -> int:
        return self._lens.shape[0]

    @property
    def neck_waits(self) -> np.ndarray:
        """First neck level per block."""
        return self._lens.copy()

    def extend(self, extra: int) -> None:
        """Sample additional blocks; existing blocks are untouched."""
        rows, lens, roots = _draw_blocks(self.catalog, self.v_types,
                                         self.master_seed, self.blocks, extra)
        self._rows += rows
        self._lens = np.concatenate((self._lens, lens))
        self._roots = np.concatenate((self._roots, roots))
        self._last = (None, None)

    # -- evaluation ----------------------------------------------------------

    def log_sums(self, x: float) -> np.ndarray:
        """Per-block log-sums at x, read-only."""
        if self._last[0] != x:
            ls = _kernels.block_log_sums(self._rows, self._roots, self.v_types,
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
        ls = self.log_sums(x)
        roots = self._roots
        return {int(t): float(ls[roots == t].mean())
                for t in np.unique(roots)}


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


def solve_gamma(evaluator, tolerance: float | None = None, *,
                method: str | None = None) -> ExponentReport:
    """Root of a strictly decreasing f by doubling bracket search from x = 1
    and bisection.

    ``evaluator`` is either a plain callable x -> f(x) (exact, default
    tolerance 1e-10) or a MonteCarloNeckEvaluator (default tolerance 1e-3).
    For Monte Carlo, common random numbers make the estimate deterministic,
    so only the bracket endpoints are checked for sign ambiguity: if
    |f| <= ``SIGN_Z`` * SE there, the block count is grown up to
    ``MAX_BLOCK_GROWTH`` times the initial count before giving up with
    ``NoisyRootError``. The reported confidence interval, ``SIGN_Z`` standard
    errors at the root through a secant slope, usually dominates the
    bisection tolerance.
    """
    is_mc = hasattr(evaluator, "f")
    if tolerance is None:
        tolerance = 1e-3 if is_mc else 1e-10
    evals: list[FEval] = []
    initial_blocks = evaluator.blocks if is_mc else None

    def feval(x: float) -> tuple[float, float]:
        v, se = evaluator.f(x) if is_mc else (evaluator(x), 0.0)
        evals.append(FEval(x, v, se))
        return v, se

    def resolved(x: float) -> float:
        """Value at x, growing the block count while the sign is ambiguous."""
        v, se = feval(x)
        while is_mc and se > 0.0 and abs(v) <= SIGN_Z * se:
            if evaluator.blocks >= initial_blocks * MAX_BLOCK_GROWTH:
                raise NoisyRootError(f"sign of f({x}) ambiguous at {evaluator.blocks} blocks")
            evaluator.extend(evaluator.blocks)
            v, se = feval(x)
        return v

    # Bracket by doubling/halving from 1.
    v = resolved(1.0)
    if v > 0:
        lo, hi = 1.0, 2.0
        for _ in range(200):
            if resolved(hi) < 0:
                break
            lo, hi = hi, hi * 2.0
        else:
            raise AssertionError("no sign change found above 1")
    else:
        lo, hi = 0.5, 1.0
        for _ in range(200):
            if resolved(lo) > 0:
                break
            lo, hi = lo / 2.0, lo
        else:
            raise AssertionError("no sign change found below 1")

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
    if is_mc:
        delta = max(10.0 * tolerance, 0.02)
        x_right = gamma + delta
        x_left = max(gamma - delta, gamma / 2.0)
        v_right, _ = feval(x_right)
        v_left, _ = feval(x_left)
        slope = (v_right - v_left) / (x_right - x_left)
        _, se_root = feval(gamma)
        half = SIGN_Z * se_root / max(abs(slope), 1e-300)
        ci = (gamma - half, gamma + half)

    if method is None:
        method = "monte-carlo-neck" if is_mc else "exact"
    return ExponentReport(gamma=gamma, method=method, f_evaluations=evals,
                          trace=trace,
                          blocks=evaluator.blocks if is_mc else None,
                          seed=getattr(evaluator, "master_seed", None),
                          ci=ci)


def solve_gamma_recursive(catalog: Catalog, tolerance: float = 1e-10) -> float:
    """Root of sum_j p_j sum_i (r_i m_i)^gamma = 1 (the fully random
    construction's exponent; a comparison oracle for large type counts)."""
    report = solve_gamma(lambda x: _recursive_mean(catalog, x) - 1.0,
                         tolerance, method="recursive-oracle")
    return report.gamma


def gamma_exact_homogeneous(catalog: Catalog, tolerance: float = 1e-10) -> ExponentReport:
    """Exact exponent of the one-type-per-level construction."""
    method = "exact-selfsimilar" if catalog.n_systems == 1 else "exact-homogeneous"
    return solve_gamma(lambda x: f_exact_homogeneous(catalog, x),
                       tolerance, method=method)


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

    @property
    def ok(self) -> bool:
        return self.n_fail == 0


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
            f"level {level} is shallower than the deepest cut-set member ({max_level})",
            extra_depth_hint=max_level - level)

    lower, upper = np.zeros((2, xs.shape[0]), np.int64)
    for l in np.unique(cs.levels).tolist():
        prods, members = np.unique(cs.products[cs.levels == l], return_counts=True)
        sub_d, sub_n = condensed_counts(neck_subtree(tree, l, 0), level - l, splits,
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
