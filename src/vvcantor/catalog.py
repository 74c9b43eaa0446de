"""Catalogs of weighted affine iterated function systems on an interval.

A catalog holds finitely many systems, each a left-to-right ordered family
of affine contractions of the base interval together with a probability
weight per map, plus a probability vector used to pick systems at random.
Validation reports violations as data instead of raising, so callers can
surface every problem in a config at once.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyCatalogError

WEIGHT_TOL = 1e-12
ENDPOINT_REL_TOL = 1e-12


@dataclass(frozen=True)
class ContractionMap:
    """Affine map x -> ratio * x + offset with ratio in (0, 1)."""

    ratio: float
    offset: float

    def __call__(self, x: float) -> float:
        return self.ratio * x + self.offset


@dataclass(frozen=True)
class WeightedIFS:
    """Ordered contraction maps with one probability weight per map."""

    maps: tuple[ContractionMap, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    @property
    def size(self) -> int:
        return len(self.maps)


@dataclass(frozen=True)
class Catalog:
    """Finite indexed family of weighted systems on [lower, upper]."""

    lower: float
    upper: float
    systems: tuple[WeightedIFS, ...]
    index_probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "systems", tuple(self.systems))
        object.__setattr__(self, "index_probs", tuple(float(p) for p in self.index_probs))

    @property
    def n_systems(self) -> int:
        return len(self.systems)


@dataclass(frozen=True)
class ScaleExtrema:
    """Cached minima/maxima of ratios and weights over the whole catalog."""

    r_inf: float
    r_sup: float
    m_inf: float
    m_sup: float
    eta: float  # r_inf * m_inf


@dataclass
class Violation:
    system: int | None
    message: str

    def __str__(self) -> str:
        where = "catalog" if self.system is None else f"system {self.system}"
        return f"{where}: {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, system: int | None, message: str) -> None:
        self.violations.append(Violation(system, message))

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


@functools.lru_cache(maxsize=256)
def scale_extrema(catalog: Catalog) -> ScaleExtrema:
    """Exact extrema of map ratios and weights, plus eta = r_inf * m_inf."""
    if not catalog.systems or any(not s.maps for s in catalog.systems):
        raise EmptyCatalogError("catalog has no systems or a system without maps")
    ratios = [m.ratio for s in catalog.systems for m in s.maps]
    weights = [w for s in catalog.systems for w in s.weights]
    r_inf, r_sup = min(ratios), max(ratios)
    m_inf, m_sup = min(weights), max(weights)
    return ScaleExtrema(r_inf, r_sup, m_inf, m_sup, r_inf * m_inf)


@functools.lru_cache(maxsize=256)
def map_table(catalog: Catalog) -> np.ndarray:
    """(n_systems, width, 3) array of each map's (ratio, weight, offset),
    zero past a system's maps (a real map's ratio is positive). Read-only,
    since the cached array is shared."""
    table = np.zeros((catalog.n_systems, max(s.size for s in catalog.systems), 3))
    for j, s in enumerate(catalog.systems):
        table[j, :s.size] = [(m.ratio, w, m.offset) for m, w in zip(s.maps, s.weights)]
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=256)
def real_slots(catalog: Catalog) -> np.ndarray:
    """(n_systems, width) mask of the ``map_table`` slots that hold a map.
    Read-only, since the cached array is shared."""
    real = map_table(catalog)[..., 0] > 0.0
    real.setflags(write=False)
    return real


def validate_catalog(catalog: Catalog) -> ValidationReport:
    """Check every structural invariant; violations are data, not faults."""
    rep = ValidationReport()
    a, b = catalog.lower, catalog.upper
    if not a < b:
        rep.add(None, f"base interval is degenerate: [{a}, {b}]")
        return rep
    tol = ENDPOINT_REL_TOL * (b - a)

    if not catalog.systems:
        rep.add(None, "catalog has no systems")
    if len(catalog.index_probs) != len(catalog.systems):
        rep.add(None, "index distribution length does not match system count")
    else:
        if not all(p >= 0 for p in catalog.index_probs):
            rep.add(None, "index distribution has negative or NaN entries")
        if catalog.index_probs and not abs(sum(catalog.index_probs) - 1.0) <= WEIGHT_TOL:
            rep.add(None, f"index distribution sums to {sum(catalog.index_probs)!r}, not 1")

    for j, sys_ in enumerate(catalog.systems):
        if sys_.size < 2:
            rep.add(j, f"at least 2 maps required, got {sys_.size}")
        if len(sys_.weights) != sys_.size:
            rep.add(j, "weight vector length does not match map count")
            continue
        for i, m in enumerate(sys_.maps):
            if not 0.0 < m.ratio < 1.0:
                rep.add(j, f"map {i}: ratio {m.ratio!r} outside (0, 1)")
            if not (m(a) >= a - tol and m(b) <= b + tol):
                rep.add(j, f"map {i}: image [{m(a)!r}, {m(b)!r}] leaves the base interval")
        for i, w in enumerate(sys_.weights):
            if not 0.0 < w < 1.0:
                rep.add(j, f"weight {i}: {w!r} outside (0, 1)")
        if not abs(sum(sys_.weights) - 1.0) <= WEIGHT_TOL:
            rep.add(j, f"weights sum to {sum(sys_.weights)!r}, not 1")
        if any(not 0.0 < m.ratio < 1.0 for m in sys_.maps):
            continue  # ordering checks are meaningless with bad ratios
        if not abs(sys_.maps[0](a) - a) <= tol:
            rep.add(j, f"leftmost image starts at {sys_.maps[0](a)!r}, not at {a!r}")
        if not abs(sys_.maps[-1](b) - b) <= tol:
            rep.add(j, f"rightmost image ends at {sys_.maps[-1](b)!r}, not at {b!r}")
        for i in range(sys_.size - 1):
            right_i = sys_.maps[i](b)
            left_next = sys_.maps[i + 1](a)
            if not right_i <= left_next:
                rep.add(j, f"cells overlap: map {i} ends at {right_i!r} past map {i + 1} start {left_next!r}")
    return rep


# ---------------------------------------------------------------------------
# JSON-facing construction

def json_object(value, name: str) -> dict:
    """``value`` if it is a JSON object; any other shape is a config error
    naming the part that is wrong."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def json_number(value, name: str) -> float:
    """``value`` as a float if it is a finite JSON number; a boolean, string,
    null, NaN, infinity or int past the float range is a config error."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def json_int(value, name: str, lo: int, hi: int) -> int:
    """``value`` if it is a JSON integer in ``[lo, hi]``; a float, string
    or boolean is a config error, never rounded or parsed."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}]")
    return value


def catalog_from_dict(doc: dict) -> Catalog:
    """Build a catalog from a parsed config document (strict keys)."""
    allowed = {"interval", "systems", "index_distribution"}
    unknown = set(json_object(doc, "catalog")) - allowed
    if unknown:
        raise ValueError(f"unknown catalog fields: {sorted(unknown)}")
    interval = doc.get("interval", [0.0, 1.0])
    if len(interval) != 2:
        raise ValueError("interval must be [lower, upper]")
    lower, upper = (json_number(x, f"interval {k}") for k, x in enumerate(interval))
    systems = []
    for j, sd in enumerate(doc.get("systems", [])):
        unknown = set(json_object(sd, f"system {j}")) - {"maps", "weights"}
        if unknown:
            raise ValueError(f"system {j}: unknown fields {sorted(unknown)}")
        maps = []
        for i, md in enumerate(sd.get("maps", [])):
            unknown = set(json_object(md, f"system {j} map {i}")) - {"r", "c"}
            if unknown:
                raise ValueError(f"system {j}: unknown map fields {sorted(unknown)}")
            maps.append(ContractionMap(*(json_number(md.get(key), f"system {j} map {i} {key}")
                                         for key in ("r", "c"))))
        weights = (json_number(w, f"system {j} weight {i}")
                   for i, w in enumerate(sd.get("weights", [])))
        systems.append(WeightedIFS(tuple(maps), tuple(weights)))
    probs = doc.get("index_distribution")
    if probs is None:
        probs = [1.0 / len(systems)] * len(systems) if systems else []
    probs = (json_number(p, f"index_distribution {j}") for j, p in enumerate(probs))
    return Catalog(lower, upper, tuple(systems), tuple(probs))


def catalog_to_dict(catalog: Catalog) -> dict:
    return {
        "interval": [catalog.lower, catalog.upper],
        "systems": [
            {
                "maps": [{"r": m.ratio, "c": m.offset} for m in s.maps],
                "weights": list(s.weights),
            }
            for s in catalog.systems
        ],
        "index_distribution": list(catalog.index_probs),
    }
