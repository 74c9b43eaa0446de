"""Layer spans recorded from outside the package.

``Tracer.install`` replaces each public function at the place where the CLI
or another package module looks it up (``vvcantor.cli.assemble``,
``vvcantor.spectral.inertia_counts``, ...) with a wrapper that opens a span,
so the spans follow the CLI's real call sequence without any edit to the
package. Spans are aggregated in memory by call path; ``report`` turns them
into per-layer self times and counters when the run ends.

Span names are ``<module>.<function>``, the names in-program spans can take
over unchanged. ``vtree.sample_environment`` includes the ``rng`` draws it
makes: the generator's methods are too fine-grained to wrap.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute path) -> span name. A function the package looks up in
# several modules is patched at each of them.
SPANS = {
    ("vvcantor.cli", "main"): "cli.main",
    ("vvcantor.cli", "validate_catalog"): "catalog.validate_catalog",
    ("vvcantor.cli", "build_tree"): "vtree.build_tree",
    ("vvcantor.vtree", "build_tree"): "vtree.build_tree",
    ("vvcantor.vtree", "sample_environment"): "vtree.sample_environment",
    ("vvcantor.spectral", "sample_environment"): "vtree.sample_environment",
    ("vvcantor.spectral", "cut_set"): "vtree.cut_set",
    ("vvcantor.spectral", "neck_subtree"): "vtree.neck_subtree",
    ("vvcantor.cli", "tree_to_jsonl"): "vtree.tree_to_jsonl",
    ("vvcantor.cli", "environments_to_obj"): "vtree.environments_to_obj",
    ("vvcantor.cli", "decompose"): "measure.decompose",
    ("vvcantor.spectral", "decompose"): "measure.decompose",
    ("vvcantor.cli", "cells_to_csv"): "measure.cells_to_csv",
    ("vvcantor.cli", "gaps_to_csv"): "measure.gaps_to_csv",
    ("vvcantor.cli", "refine_uniform"): "assembly.refine_uniform",
    ("vvcantor.spectral", "refine_uniform"): "assembly.refine_uniform",
    ("vvcantor.cli", "assemble"): "assembly.assemble",
    ("vvcantor.spectral", "assemble"): "assembly.assemble",
    ("vvcantor.cli", "pencil_to_csv"): "assembly.pencil_to_csv",
    ("vvcantor.cli", "inertia_counts"): "eigensolve.inertia_counts",
    ("vvcantor.spectral", "inertia_counts"): "eigensolve.inertia_counts",
    ("vvcantor.cli", "counting_to_csv"): "eigensolve.counting_to_csv",
    ("vvcantor.cli", "gamma_exact_homogeneous"): "spectral.gamma_exact_homogeneous",
    ("vvcantor.cli", "solve_gamma_recursive"): "spectral.solve_gamma_recursive",
    ("vvcantor.cli", "solve_gamma"): "spectral.solve_gamma",
    ("vvcantor.cli", "empirical_exponent"): "spectral.empirical_exponent",
    ("vvcantor.cli", "bracketing_check"): "spectral.bracketing_check",
    ("vvcantor.cli", "cutset_stats_check"): "spectral.cutset_stats_check",
    ("vvcantor.spectral", "MonteCarloNeckEvaluator.__init__"): "spectral.mc_simulate",
    ("vvcantor.spectral", "MonteCarloNeckEvaluator.extend"): "spectral.mc_simulate",
    ("vvcantor.spectral", "MonteCarloNeckEvaluator.log_sums"): "spectral.log_sums",
}


def _inertia(args, kwargs, result):
    dim, shifts = args[0].dim, int(result.shape[0])
    return {"eigensolve.shifts": shifts, "eigensolve.row_steps": dim,
            "eigensolve.row_shifts": dim * shifts}


# Attribute path -> counters computed from (args, kwargs, result) of a call.
COUNTERS = {
    "inertia_counts": _inertia,
    "assemble": lambda a, k, r: {"assembly.pencils": 1, "assembly.rows": r.dim},
    "build_tree": lambda a, k, r: {"vtree.nodes": r.node_count},
    "decompose": lambda a, k, r: {"measure.cells": r.n_cells},
    # MonteCarloNeckEvaluator(catalog, v_types, blocks, ...) and .extend(extra)
    "MonteCarloNeckEvaluator.__init__": lambda a, k, r: {"spectral.mc_blocks": a[0].blocks},
    "MonteCarloNeckEvaluator.extend": lambda a, k, r: {
        "spectral.mc_blocks": a[1] if len(a) > 1 else k["extra"]},
}


class Tracer:
    """Aggregates spans by call path: path -> [calls, total s, self s]."""

    def __init__(self):
        self.paths: dict[tuple[str, ...], list] = {}
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []   # [name, start, child seconds]
        self._patched: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, child = self._stack.pop()
        total = time.perf_counter() - start
        path = tuple(frame[0] for frame in self._stack) + (name,)
        entry = self.paths.setdefault(path, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += total
        entry[2] += total - child
        if self._stack:
            self._stack[-1][2] += total

    def count(self, name: str, n: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    self.count(key, n)
            return result
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        for (module, attr), name in SPANS.items():
            try:
                owner = importlib.import_module(module)
                *parents, leaf = attr.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(original, name, COUNTERS.get(attr)))
            self._patched.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        return sum(e[2] for p, e in self.paths.items() if p[-1] == name)

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(e[0] for p, e in self.paths.items()
                   if p[-1] == name and (parent is None or p[-2:-1] == (parent,)))

    def report(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass over the workload's cases."""
        s, c = self.self_seconds, self.counters.get
        calls = self.calls("eigensolve.inertia_counts")
        values = {
            "eigensolve.inertia_counts_s": s("eigensolve.inertia_counts"),
            "eigensolve.calls": calls,
            "eigensolve.shifts": c("eigensolve.shifts", 0),
            "eigensolve.row_steps": c("eigensolve.row_steps", 0),
            "eigensolve.row_shifts": c("eigensolve.row_shifts", 0),
            "assembly.assemble_s": s("assembly.assemble"),
            "assembly.pencils": c("assembly.pencils", 0),
            "assembly.rows": c("assembly.rows", 0),
            "assembly.pencil_to_csv_s": s("assembly.pencil_to_csv"),
            "vtree.build_tree_s": s("vtree.build_tree"),
            "vtree.nodes": c("vtree.nodes", 0),
            "vtree.cut_set_s": s("vtree.cut_set"),
            "vtree.neck_subtree_s": s("vtree.neck_subtree"),
            "vtree.sample_environment_s": s("vtree.sample_environment"),
            "vtree.environments": self.calls("vtree.sample_environment"),
            "vtree.tree_to_jsonl_s": s("vtree.tree_to_jsonl"),
            "measure.decompose_s": s("measure.decompose"),
            "measure.cells": c("measure.cells", 0),
            "measure.csv_s": s("measure.cells_to_csv") + s("measure.gaps_to_csv"),
            "spectral.mc_simulate_s": s("spectral.mc_simulate"),
            "spectral.mc_blocks": c("spectral.mc_blocks", 0),
            "spectral.mc_levels": self.calls("vtree.sample_environment",
                                             parent="spectral.mc_simulate"),
            "spectral.log_sums_s": s("spectral.log_sums"),
            "spectral.log_sums_calls": self.calls("spectral.log_sums"),
            "spectral.solve_gamma_s": s("spectral.solve_gamma"),
            "spectral.bracketing_check_s": s("spectral.bracketing_check"),
            "spectral.cutset_stats_check_s": s("spectral.cutset_stats_check"),
            "spectral.empirical_exponent_s": s("spectral.empirical_exponent"),
            "catalog.validate_s": s("catalog.validate_catalog"),
            "cli.self_s": s("cli.main"),
        }
        values = {k: v / passes for k, v in values.items()}
        values["eigensolve.shifts_per_call"] = (
            c("eigensolve.shifts", 0) / calls if calls else 0.0)
        return values

    def call_paths(self) -> list[dict]:
        """Every call path in first-seen order, for the run record."""
        return [{"path": "/".join(p), "calls": e[0], "total_s": e[1], "self_s": e[2]}
                for p, e in self.paths.items()]
