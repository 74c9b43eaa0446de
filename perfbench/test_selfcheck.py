"""Self-checks of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, monkeypatch, capsys) -> dict:
    monkeypatch.setattr(workloads, "FULL", workloads.TINY)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out.strip().splitlines()[-1])


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_spec(workload, trace, monkeypatch, capsys):
    result = _run(workload, trace, monkeypatch, capsys)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def _runner_and_case(tmp_path, workload="spectral"):
    plan = workloads.PLANS[workload](3, workloads.TINY)
    return run.Runner(tmp_path, None), plan.cases[0]


def test_clean_tiny_case_passes(tmp_path):
    runner, case = _runner_and_case(tmp_path)
    for sub in case.subcommands:
        runner.call(case, sub)
    assert runner.failures == [] and runner.attempted == 3


def test_corrupted_counts_fail(tmp_path, monkeypatch):
    import vvcantor.cli

    original = vvcantor.cli.counting_to_csv

    def corrupt(fp, xs, counts_d, counts_n, *rest):
        original(fp, xs, counts_d, counts_d + 3, *rest)

    monkeypatch.setattr(vvcantor.cli, "counting_to_csv", corrupt)
    runner, case = _runner_and_case(tmp_path)
    runner.call(case, "count")
    assert len(runner.failures) == 1 and "N_N - N_D" in runner.failures[0]


def test_failed_bracketing_fails(tmp_path, monkeypatch):
    import vvcantor.cli

    original = vvcantor.cli.bracketing_check

    def corrupt(*args, **kwargs):
        result = original(*args, **kwargs)
        result.status[0] = "fail"
        return result

    monkeypatch.setattr(vvcantor.cli, "bracketing_check", corrupt)
    runner, case = _runner_and_case(tmp_path)
    runner.call(case, "bracket")
    assert len(runner.failures) == 1 and "bracketing fails" in runner.failures[0]


def test_changed_digest_fails(tmp_path):
    runner, case = _runner_and_case(tmp_path, "export")
    runner.expected = {case.name: {"measure": {"cells.csv": "0" * 64}}}
    runner.call(case, "measure")
    assert runner.failures == [f"{case.name} measure: cells.csv digest changed"]


def test_crash_counts_as_failed_case(tmp_path, monkeypatch):
    import vvcantor.cli

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(vvcantor.cli, "decompose", boom)
    runner, case = _runner_and_case(tmp_path, "export")
    runner.call(case, "measure")
    assert len(runner.failures) == 1 and "RuntimeError" in runner.failures[0]


def test_missing_function_is_reported_not_fatal(monkeypatch):
    import tracing

    monkeypatch.setitem(tracing.SPANS, ("vvcantor.cli", "no_such_function"), "cli.gone")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["vvcantor.cli.no_such_function"]


def test_missing_backend_is_recorded_not_fatal(monkeypatch):
    import vvcantor

    monkeypatch.delattr(vvcantor, "current_backend", raising=False)
    assert run.host_record()["backend"] == "missing"
