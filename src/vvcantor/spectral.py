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
from .assembly import DIRICHLET, NEUMANN, assemble, refine_uniform
from .catalog import Catalog, map_table, scale_extrema
from .errors import InsufficientDataError, NeckTimeoutError, NoisyRootError
from .eigensolve import inertia_counts
from .measure import decompose
from .rng import Xoshiro256StarStarLanes, stream_seeds
from .vtree import LevelDraws, VTree, cut_set, neck_mask, neck_subtree
# Not called here since the Monte Carlo lanes; perfbench/tracing.py still
# wraps vvcantor.spectral.sample_environment and its self-check expects it.
from .vtree import sample_environment  # noqa: F401

# Stream ids (reproducibility contract): the main tree uses stream 0, Monte
# Carlo block b uses stream 1 + b.
TREE_STREAM = 0
MC_BLOCK_STREAM_BASE = 1

DEFAULT_ENV_CAP = 100_000
_ROW_BUDGET = 1 << 20  # rows held for Monte Carlo lanes still running


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

class _BlockDraws:
    """Neck blocks ``first + k`` for k in ``range(count)``, drawn in lockstep
    lanes into ``rows``: one ``block_log_sums`` entry ``(k, level_sys,
    child)`` per level, in ``LevelDraws``' dtype, sharing ``k`` until a neck.

    Lane k draws from stream ``MC_BLOCK_STREAM_BASE + first + k``: the root
    type ``(u*V)``, then one ``LevelDraws`` level at a time until a neck."""

    def __init__(self, catalog: Catalog, v_types: int, master_seed: int,
                 first: int, count: int, env_cap: int):
        self.draw = LevelDraws(catalog, v_types)
        self.master_seed = master_seed
        self.first = first
        self.env_cap = env_cap
        self.lens = np.zeros(count, np.int64)
        self.roots = np.zeros(count, np.int64)
        self.rows = []

    def run(self, ks: np.ndarray) -> np.ndarray:
        """Draw blocks ``ks`` (ascending) until each necks.

        Whenever the rows held for running lanes pass ``_ROW_BUDGET`` at
        level l, all but the lowest ``_ROW_BUDGET // (8 l)`` running blocks
        are shed: their rows are dropped and they are returned, to be drawn
        again from their seeds. A block shed at level l runs past it, so
        the next pass sheds again early unless far fewer lanes are kept.
        At least ``_ROW_BUDGET // env_cap`` lanes are kept, and that many
        cannot pass the budget.

        Raises ``NeckTimeoutError`` for the lowest block that saw no neck
        within ``env_cap`` levels; every lower block has necked by then."""
        floor = max(1, _ROW_BUDGET // self.env_cap)
        rng = Xoshiro256StarStarLanes(
            stream_seeds(self.master_seed, MC_BLOCK_STREAM_BASE + self.first + ks))
        self.roots[ks] = rng.uniforms([None])[0] * self.draw.v_types
        lane, shed, held = ks, ks[:0], len(self.rows)
        for level in range(1, self.env_cap + 1):
            sys_, child, real = self.draw(rng)
            self.rows.append((lane, sys_, child))
            neck = neck_mask(child, real)
            if neck.any():
                self.lens[lane[neck]] = level
                running = ~neck
                lane = lane[running]
                if not lane.shape[0]:
                    return shed
                rng.keep(running)
            if lane.shape[0] > floor and lane.shape[0] * level > _ROW_BUDGET:
                keep = max(floor, _ROW_BUDGET // (8 * level))
                lane, shed = lane[:keep], np.concatenate((lane[keep:], shed))
                rng.keep(slice(keep))
                self.rows[held:] = [(k[m], s[m], c[m]) for k, s, c in self.rows[held:]
                                    for m in [(k < shed[0]) | (self.lens[k] > 0)]]
        raise NeckTimeoutError(f"block {self.first + int(lane[0])} saw no neck "
                               f"within {self.env_cap} levels")


class MonteCarloNeckEvaluator:
    """Estimates f(x) from independently seeded neck blocks.

    Block b draws its root type and environments from the stream
    ``MC_BLOCK_STREAM_BASE + b`` until the first neck environment, in the
    draw order of ``vtree.LevelDraws``. All requested blocks are drawn at
    once in lockstep ``Xoshiro256StarStarLanes``, one lane per block, and
    the DP reads their levels in the order they were drawn; they are
    sampled once and shared by all x (common random numbers).
    ``NeckTimeoutError`` names the lowest block that saw no neck within
    ``env_cap`` levels, the one drawing the blocks one by one would fail on.
    """

    def __init__(self, catalog: Catalog, v_types: int, blocks: int,
                 master_seed: int, env_cap: int = DEFAULT_ENV_CAP):
        if blocks < 2:
            raise ValueError("at least 2 blocks are required")
        self.catalog = catalog
        self.v_types = v_types
        self.master_seed = master_seed
        self.env_cap = env_cap
        self._rows, self._lens, self._roots = self._simulate(0, blocks)

    # -- simulation ---------------------------------------------------------

    def _simulate(self, first: int, count: int) -> tuple[list, np.ndarray, np.ndarray]:
        """Rows, lens and roots of blocks ``first .. first + count - 1``.
        Each pass draws every block not yet drawn, so the blocks a pass
        sheds to stay within ``_ROW_BUDGET`` are drawn by the next."""
        draws = _BlockDraws(self.catalog, self.v_types, self.master_seed,
                            first, count, self.env_cap)
        todo = np.arange(count)
        while todo.size:
            todo = draws.run(todo)
        return draws.rows, draws.lens, draws.roots

    @property
    def blocks(self) -> int:
        return self._lens.shape[0]

    @property
    def neck_waits(self) -> np.ndarray:
        """First neck level per block."""
        return self._lens.copy()

    def extend(self, extra: int) -> None:
        """Sample additional blocks; existing blocks are untouched."""
        first = self.blocks
        rows, lens, roots = self._simulate(first, extra)
        self._rows += [(first + k, s, c) for k, s, c in rows]
        self._lens = np.concatenate((self._lens, lens))
        self._roots = np.concatenate((self._roots, roots))

    # -- evaluation ----------------------------------------------------------

    def log_sums(self, x: float) -> np.ndarray:
        return _kernels.block_log_sums(self._rows, self._roots, self.v_types,
                                       map_table(self.catalog), x)

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
                method: str | None = None, z: float = 3.0,
                max_growth: int = 16) -> ExponentReport:
    """Root of a strictly decreasing f by doubling bracket search from x = 1
    and bisection.

    ``evaluator`` is either a plain callable x -> f(x) (exact, default
    tolerance 1e-10) or a MonteCarloNeckEvaluator (default tolerance 1e-3).
    For Monte Carlo, common random numbers make the estimate deterministic,
    so only the bracket endpoints are checked for sign ambiguity: if
    |f| <= z * SE there, the block count is grown up to ``max_growth`` times
    the initial count before giving up with ``NoisyRootError``. The reported
    confidence interval propagates the standard error at the root through a
    secant slope and usually dominates the bisection tolerance.
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
        while is_mc and se > 0.0 and abs(v) <= z * se:
            if evaluator.blocks >= initial_blocks * max_growth:
                half = z * se
                raise NoisyRootError(
                    f"sign of f({x}) ambiguous at {evaluator.blocks} blocks",
                    ci=(x - half, x + half))
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
        half = z * se_root / max(abs(slope), 1e-300)
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
    a rescaled shift) or "fail". Adjacent warnings escalate to failures.
    """

    k: int
    level: int
    splits: int
    x: np.ndarray
    lower: np.ndarray
    center_dirichlet: np.ndarray
    center_neumann: np.ndarray
    upper: np.ndarray
    status: list[str] = field(default_factory=list)

    @property
    def n_warn(self) -> int:
        return sum(s == "warn" for s in self.status)

    @property
    def n_fail(self) -> int:
        return sum(s == "fail" for s in self.status)

    @property
    def ok(self) -> bool:
        return self.n_fail == 0


@dataclass
class CenterCounts:
    """N_D and N_N of the center pencils at ascending shifts ``x``."""

    level: int
    splits: int
    x: np.ndarray
    dirichlet: np.ndarray
    neumann: np.ndarray


def center_counts(tree: VTree, xs, level: int, splits: int = 1) -> CenterCounts:
    """Count the center Dirichlet and Neumann pencils of ``tree`` at
    ``level`` (plus ``splits`` uniform splits) at the sorted shifts; one
    result serves ``bracketing_check`` for every k."""
    xs = np.sort(np.asarray(xs, dtype=np.float64))
    center = refine_uniform(decompose(tree, level), splits)
    return CenterCounts(level=level, splits=splits, x=xs,
                        dirichlet=inertia_counts(assemble(center, DIRICHLET), xs),
                        neumann=inertia_counts(assemble(center, NEUMANN), xs))


def bracketing_check(tree: VTree, k: int, center: CenterCounts) -> BracketingResult:
    """Verify lower <= N_D <= N_N <= upper at matched resolution.

    The center counts come from ``center_counts``. Every cut-set member at
    neck level l contributes the counting functions of the shared subtree,
    discretized at level ``level - l`` (plus the same uniform splits as the
    center), evaluated at its rescaled shifts. With this resolution matching
    the member meshes are exactly the center mesh restricted to the member
    cells, so the chain holds up to rounding ties.
    """
    level, splits, xs = center.level, center.splits, center.x
    center_d, center_n = center.dirichlet, center.neumann
    cs = cut_set(tree, k)
    max_level = int(cs.levels.max())
    if level < max_level:
        raise ValueError(
            f"level {level} is shallower than the deepest cut-set member ({max_level})")

    lower = np.zeros(xs.shape[0], np.int64)
    upper = np.zeros(xs.shape[0], np.int64)
    for l in np.unique(cs.levels):
        sub = neck_subtree(tree, int(l), level - int(l))
        sdec = refine_uniform(decompose(sub, level - int(l)), splits)
        spd = assemble(sdec, DIRICHLET)
        spn = assemble(sdec, NEUMANN)
        prods = cs.products[cs.levels == l]
        args = (prods[:, None] * xs[None, :]).ravel()
        lower += inertia_counts(spd, args).reshape(prods.shape[0], -1).sum(axis=0)
        upper += inertia_counts(spn, args).reshape(prods.shape[0], -1).sum(axis=0)

    status = []
    for i in range(xs.shape[0]):
        viol = (max(0, int(lower[i]) - int(center_d[i]))
                + max(0, int(center_d[i]) - int(center_n[i]))
                + max(0, int(center_n[i]) - int(upper[i])))
        status.append("ok" if viol == 0 else ("warn" if viol <= 1 else "fail"))
    for i in range(1, len(status)):  # warnings must be isolated
        if status[i] == "warn" and status[i - 1] == "warn":
            status[i] = status[i - 1] = "fail"

    return BracketingResult(k=k, level=level, splits=splits, x=xs,
                            lower=lower, center_dirichlet=center_d,
                            center_neumann=center_n, upper=upper, status=status)


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
    pencil = assemble(refine_uniform(decompose(tree, level), splits), DIRICHLET)
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
    counts = inertia_counts(pencil, [r.harmonic_scale for r in rows]
                            + [r.k * r.harmonic_scale for r in scaled]).tolist()
    for row, nd_t in zip(rows, counts[:len(rows)]):
        row.nd_at_scale = nd_t
        row.ratio_nd_over_size = nd_t / row.size
    for row, nd_kt in zip(scaled, counts[len(rows):]):
        row.nd_at_k_scale = nd_kt
        row.ratio_size_over_nd = (row.size / nd_kt) if nd_kt else None
    return rows
