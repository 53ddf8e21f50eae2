"""Fast checks of the benchmark itself, on toy-sized workloads."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ordersplit import cli, engine, harness  # noqa: E402

TOY_CELLS = workloads.CellWorkload(
    "toy-cells", "toy", l=8, cells=[(2, 1), (3, 2)], order_mode="exact", pool=4)
TOY_FACTOR = workloads.FactorWorkload(
    "toy-factor", "toy", l=12, n=3, e_max=2, instances=2, engine_seeds=2)
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _declared(section):
    return [(m["name"], m["unit"]) for m in BENCHMARK[section]]


@pytest.mark.parametrize("trace, section",
                         [(False, "end_to_end"), (True, "per_layer")])
def test_printed_metrics_match_benchmark_json(tmp_path, trace, section):
    result, _ = run.run_workload(TOY_CELLS, 1, 0.05, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert printed == _declared(section)


def test_workloads_match_benchmark_json():
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert declared == {w.name: w.why for w in workloads.WORKLOADS.values()}


def _cli_output(factors, complete):
    return json.dumps({"N": "0", "factors": [{"p": str(p), "e": e}
                                             for p, e in factors],
                       "complete": complete, "iterations": 1})


def test_verifier_judges_factorizations():
    truth = ((3, 1), (5, 2))
    judge = workloads.judge_factor_output
    assert judge(truth, 0, _cli_output(truth, True)).ok
    assert judge(truth, 0, _cli_output([(15, 1), (5, 1)], True)).wrong
    assert judge(truth, 0, _cli_output([(3, 1), (5, 1)], True)).wrong
    partial = judge(truth, 2, _cli_output([(3, 1)], False))
    assert not partial.ok and not partial.wrong
    assert judge(truth, 2, _cli_output([(7, 1)], False)).wrong
    assert not judge(truth, 64, "").ok


def test_wrong_factorization_fails_the_run(tmp_path, monkeypatch):
    def lying_main(argv):
        n = int(argv[argv.index("--N") + 1])
        print(_cli_output([(n, 1)], True))  # claims N is prime
        return 0

    monkeypatch.setattr(cli, "main", lying_main)
    result, report = run.run_workload(TOY_FACTOR, 1, 0.05, False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert report["problems"]


def _failing_report(successes):
    return harness.CellReport(
        l=8, n=2, e_max=1, c=1, k_policy="auto", B_s=10**6, trials=1,
        complete_successes=successes, mean_iterations=1.0,
        mean_gcd_calls=1.0, empirical_failure_rate=1.0 - successes,
        theoretical_bound=0.05, unlucky_events_observed=0,
        wall_time_seconds=0.0)


def test_cell_check_applies_the_failure_bound():
    inputs = [workloads.CellInput(8, ((2, 1, i),)) for i in range(40)]
    passing = [(i, workloads.Outcome(ok=True, reports=(_failing_report(1),)))
               for i in range(40)]
    assert TOY_CELLS.check(inputs, passing) == []
    failing = [(i, workloads.Outcome(ok=False, reports=(_failing_report(0),)))
               for i in range(40)]
    assert TOY_CELLS.check(inputs, failing)


@pytest.mark.parametrize("workload", [TOY_CELLS, TOY_FACTOR])
def test_an_op_that_raises_fails_the_run(tmp_path, monkeypatch, workload):
    warm = workload.make_inputs(1)[0]
    original = workload.run

    def broken(inp):  # set-up's warm-up op still runs
        if inp != warm:
            raise RuntimeError("broken")
        return original(inp)

    monkeypatch.setattr(workload, "run", broken)
    result, report = run.run_workload(workload, 1, 0.05, False, tmp_path)
    assert not result["correct"] and result["failed"] >= 1
    assert "raised" in report["problems"][0]


@pytest.mark.parametrize("code, stdout", [
    (64, ""),                                  # a usage error
    (2, None),                                 # incomplete on every input
])
def test_factor_errors_and_incomplete_results_fail_the_run(
        tmp_path, monkeypatch, code, stdout):
    def main(argv):
        print(stdout if stdout is not None else _cli_output([], False))
        return code

    monkeypatch.setattr(cli, "main", main)
    result, report = run.run_workload(TOY_FACTOR, 1, 0.05, False, tmp_path)
    assert not result["correct"]
    assert report["problems"]


def test_run_seconds_matches_benchmark_json():
    assert run.RUN_SECONDS == BENCHMARK["run_seconds"]


@pytest.mark.parametrize("workload", [TOY_CELLS, TOY_FACTOR])
def test_same_seed_reproduces_the_inputs(workload):
    def digest(seed):
        return workloads.inputs_sha256(workload, workload.make_inputs(seed))
    assert digest(7) == digest(7) != digest(8)


@pytest.mark.parametrize("workload", [TOY_CELLS, TOY_FACTOR])
def test_traced_self_times_fit_in_each_op(workload):
    inputs = workload.make_inputs(1)
    tracer = tracing.Tracer()
    run.traced_replay(workload, inputs, [0, 1, 0], tracer)
    self_ns = tracer.self_ns()
    assert min(self_ns) >= 0
    roots = [i for i, span in enumerate(tracer.spans)
             if span[0] == tracing.OP_SPAN]
    assert len(roots) == 3
    for root in roots:
        op_id = tracer.spans[root][4]
        wall = tracer.spans[root][2] - tracer.spans[root][1]
        inner = sum(t for i, (span, t) in enumerate(zip(tracer.spans, self_ns))
                    if span[4] == op_id and i != root)
        assert 0 < inner <= wall


def test_tracer_restores_originals_and_reports_absent_targets():
    originals = (engine.recover_factors, harness.recover_factors,
                 engine.FactorSet.add_factor, cli.factor_with_order)
    targets = tracing.TARGETS + (
        ("engine.gone", "ordersplit.engine", "no_such_function", None),)
    tracer = tracing.Tracer(targets)
    tracer.install()
    try:
        assert harness.recover_factors is not originals[1]
        assert cli.factor_with_order is not originals[3]
    finally:
        tracer.restore()
    assert tracer.absent == ["engine.gone"]
    assert (engine.recover_factors, harness.recover_factors,
            engine.FactorSet.add_factor, cli.factor_with_order) == originals
