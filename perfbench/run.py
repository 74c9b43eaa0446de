#!/usr/bin/env python3
"""Pipeline benchmark for vvcantor: one workload through ``vvcantor.cli.main``
in this process, with every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (set-up time, the time the CLI
takes for a pass over every case scaled by the host's speed, peak resident
memory). ``--trace 1`` first runs one untraced pass, then wraps the
package's public functions (see ``tracing.py``) and prints per-layer self
times and counters per pass. The last line of standard output is one JSON
object; the lines before it give the host, the load of every case,
per-subcommand medians, the raw pass and reference times and any failed
check. A run record with the rejected generator seeds and the traced call
paths is written under ``.perfbench_run/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the package's hot loops are
# single-threaded and a BLAS pool would only add scheduling noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("spectral", "montecarlo", "export"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_record() -> dict:
    import numpy
    import vvcantor

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    backend = getattr(vvcantor, "current_backend", None)
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "numba_imports": has_numba,
            "backend": backend() if backend else "missing"}


def summary(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    text = f"median {statistics.median(values):.4f} s over n={len(values)}"
    q = int(100 * (1 - 10 / len(values)))
    if q >= 50:
        tail = statistics.quantiles(values, n=100)[q - 1]
        text += f", p{q} {tail:.4f} s"
    return text


class Runner:
    """Runs CLI calls, checks their outputs and keeps the tallies."""

    def __init__(self, work: Path, expected: dict | None):
        self.work = work
        self.expected = expected or {}
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict = {}
        self.realized: dict = {}

    def write_config(self, case) -> Path:
        config = self.work / f"{case.name}.json"
        # A new file, not a truncated one: some file systems flush a file
        # to disk when it is truncated and rewritten.
        config.unlink(missing_ok=True)
        config.write_text(json.dumps(case.doc))
        return config

    def call(self, case, subcommand: str) -> float:
        """Seconds spent in ``vvcantor.cli.main``; checking is not timed."""
        import vvcantor.cli
        import checks

        config = self.work / f"{case.name}.json"
        if not config.exists():
            self.write_config(case)
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = vvcantor.cli.main([subcommand, "--config", str(config),
                                      "--out", str(out), "--threads", "1"])
            problems = [] if code == 0 else [f"exit code {code}"]
        except Exception as exc:  # a crash is a failed case, not a failed run
            problems = [f"raised {type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - start
        if not problems:
            expected = self.expected.get(case.name, {}).get(subcommand)
            problems = checks.check(subcommand, out, case.load, expected)
        if problems:
            self.failures.append(f"{case.name} {subcommand}: {'; '.join(problems)}")
        elif subcommand not in self.digests.setdefault(case.name, {}):
            self.digests[case.name][subcommand] = checks.digests(subcommand, out)
            self.realized.setdefault(case.name, {}).update(checks.realized(subcommand, out))
        shutil.rmtree(out, ignore_errors=True)
        return seconds

    def run_pass(self, cases, times: dict[str, list[float]],
                 refs: list[float] | None = None) -> float:
        """Seconds the CLI spent on one call of every subcommand of every
        case. With ``refs``, the reference routine is timed before each call
        and its samples are appended there."""
        total = 0.0
        for case in cases:
            for sub in case.subcommands:
                if refs is not None:
                    refs += reference.sample(self.work)
                seconds = self.call(case, sub)
                times.setdefault(sub, []).append(seconds)
                total += seconds
        return total

    def run_for(self, cases, seconds: float, times) -> tuple[list[float], list[float]]:
        """Passes over every case while another one, as long as the last,
        fits in ``seconds`` (at least one pass), with the reference routine
        timed before every call and after the last, so that its samples
        spread over the run as the calls do. Returns the seconds of each
        pass and of each reference sample."""
        start = time.perf_counter()
        passes, refs = [], []
        while True:
            begun = time.perf_counter()
            passes.append(self.run_pass(cases, times, refs))
            now = time.perf_counter()
            if now + (now - begun) - start > seconds:
                return passes, refs + reference.sample(self.work)


def setup(args, runner: Runner, env: dict):
    """Generates the plan once, then repeats the timed set-up: imports in a
    fresh interpreter, writing the configs and one warm-up call per
    subcommand on tiny configs of the default seed. Returns the plan, the
    generation's seconds and each repeat's seconds.

    Generation is not timed: how many candidate tree seeds it tries depends
    on the workload seed, so timing it would measure the seed, not the
    program."""
    import workloads

    start = time.perf_counter()
    plan = workloads.PLANS[args.workload](args.seed, workloads.FULL)
    plan_seconds = time.perf_counter() - start
    warm = workloads.PLANS[args.workload](DEFAULT_SEED, workloads.TINY)
    for case in warm.cases:
        case.name = f"warmup-{case.name}"
    seconds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import vvcantor.cli"], env=env, check=True)
        for case in plan.cases + warm.cases:
            runner.write_config(case)
        for case in warm.cases:
            for sub in case.subcommands:
                runner.call(case, sub)
        seconds.append(time.perf_counter() - start)
    return plan, plan_seconds, seconds


def layer_metrics(tracer, passes: int, untraced_times: dict) -> dict:
    """Per-layer metrics of the traced passes, plus each subcommand's
    untraced per-call median from the untraced first pass."""
    import checks

    metrics = {}
    for name, value in tracer.report(passes).items():
        unit = ("s" if name.endswith("_s") else
                "shifts/call" if name.endswith("_per_call") else "count")
        metrics[name] = (value, unit)
    for sub in checks.OUTPUTS:
        values = untraced_times.get(sub)
        metrics[f"cli.{sub}_s"] = (statistics.median(values) if values else 0.0, "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vvcantor" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else [])))

    import tracing

    expected = None
    if args.seed == DEFAULT_SEED and DIGESTS.exists():
        expected = json.loads(DIGESTS.read_text()).get(args.workload)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = RUN_DIR / tag
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, expected)
    try:
        plan, plan_seconds, setup_seconds = setup(args, runner, env)
        times: dict[str, list[float]] = {}
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "host": host_record(), "plan_s": plan_seconds,
                  "setup_s": setup_seconds,
                  "cases": [{"name": c.name, "subcommands": c.subcommands,
                             "config": c.doc, "load": c.load} for c in plan.cases],
                  "rejected": plan.rejected}
        if args.trace:
            untraced = runner.run_pass(plan.cases, times)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                passes, refs = runner.run_for(plan.cases, args.seconds, {})
            finally:
                tracer.uninstall()
            traced = statistics.median(passes)
            metrics = layer_metrics(tracer, len(passes), times)
            metrics["trace.wall_s"] = (traced, "s")
            metrics["trace.untraced_wall_s"] = (untraced, "s")
            metrics["trace.overhead_frac"] = (traced / untraced - 1, "ratio")
            record["call_paths"] = tracer.call_paths()
            record["missing_spans"] = tracer.missing
        else:
            passes, refs = runner.run_for(plan.cases, args.seconds, times)
            metrics = {
                "setup_s": (statistics.median(setup_seconds), "s"),
                "norm_wall_s": (statistics.median(passes) / statistics.median(refs)
                                * reference.NOMINAL_S, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024, "MB"),
            }
        record.update(passes_s=passes, reference_s=refs, call_s=times,
                      realized=runner.realized, digests=runner.digests,
                      failures=runner.failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (RUN_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"host: {json.dumps(record['host'])}")
    for case in plan.cases:
        print(f"case {case.name}: load {json.dumps(case.load)} "
              f"realized {json.dumps(runner.realized.get(case.name, {}))}")
    kinds = [r["kind"] for r in plan.rejected]
    print(f"plan generated in {plan_seconds:.3f} s; rejected {len(kinds)} tree seeds "
          f"(listed in the record): {kinds.count('window')} outside the size window, "
          f"{kinds.count('cut_sets')} with incomplete cut sets, "
          f"{kinds.count('caps')} over the sub-pencil caps")
    for sub, values in times.items():
        print(f"{sub}_s: {summary(values)}")
    print(f"wall_s: {summary(passes)}; reference: {summary(refs)} "
          f"(nominal {reference.NOMINAL_S} s)")
    print(f"passes: {len(passes)}; failed_frac {len(runner.failures)}/{runner.attempted}")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    if args.trace:
        print("note: rng draws are timed inside vtree.sample_environment")
        for name in record["missing_spans"]:
            print(f"note: {name} is missing; its span reads 0")
    print(f"record: {RUN_DIR.name}/{tag}.json")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
