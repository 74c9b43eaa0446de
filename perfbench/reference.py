"""A fixed piece of work, independent of vvcantor, timed beside the passes
to follow the host's speed.

On a shared host the same pass takes 15-30% longer in some minutes than in
others, and this routine slows with it. ``norm_wall_s`` divides each pass by
the reference time measured around it, which takes most of that drift out
while leaving every change to the program in (see README.md, Steadiness).
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import numpy as np

# About the routine's median time on the host of README.md in a quiet
# spell, so that norm_wall_s reads as seconds on a host that fast.
NOMINAL_S = 0.06
REPEATS = 2


def _once(path: Path) -> float:
    """JSON lines, float CSV rows and a numpy row recurrence: the kinds of
    work that tree writing, measure CSVs and Sturm counts do."""
    rng = random.Random(12345)
    start = time.perf_counter()
    with open(path, "w") as fp:
        for i in range(15_000):
            fp.write(json.dumps({"path": [i & 1, i & 3, i & 7, i & 15], "type": i % 2,
                                 "system": None, "r_product": rng.random(),
                                 "m_product": rng.random()}, sort_keys=True))
            fp.write("\n")
        for _ in range(7_500):
            fp.write(",".join(f"{rng.random():.17g}" for _ in range(4)) + "\n")
    path.unlink()
    xs = np.linspace(0.0, 1.0, 2048)
    d = np.ones_like(xs)
    for i in range(1_500):
        d = (2.5 + i * 1e-5) - xs - 0.25 / d
    return time.perf_counter() - start


def sample(work: Path) -> list[float]:
    """``REPEATS`` timings of the routine, writing its scratch file in ``work``."""
    return [_once(work / "reference.txt") for _ in range(REPEATS)]
