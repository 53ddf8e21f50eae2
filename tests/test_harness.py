import csv
import dataclasses
import json
import math

import pytest

from ordersplit import cli, harness
from ordersplit.harness import (
    CSV_COLUMNS,
    CellReport,
    ExperimentConfig,
    cell_passes,
    run_cell,
    run_grid,
    shor_baseline_splits,
    write_csv,
    write_json,
)
from ordersplit.oracle import InfeasibleParametersError


def _config(**overrides):
    base = dict(l_values=(10,), n_values=(2,), emax_values=(1,),
                c=1, k=None, B_s=10**4, trials_per_cell=30, seed=1234,
                order_mode="exact")
    base.update(overrides)
    return ExperimentConfig(**base)


def _strip_timing(report: CellReport) -> dict:
    d = report.to_dict()
    d.pop("wall_time_seconds")
    return d


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _config(trials_per_cell=0)
        with pytest.raises(ValueError):
            _config(order_mode="quantum")
        with pytest.raises(ValueError):
            _config(k=0)
        with pytest.raises(ValueError):
            _config(B_s=1)
        with pytest.raises(ValueError, match="c must be >= 1"):
            _config(c=0)

    def test_smoothness_bound_limit_names_c(self):
        # the longest N has 10 * 2 * 1 = 20 bits, so c may reach 5 * 10^6
        _config(c=5 * 10**6)
        with pytest.raises(ValueError, match="c=5000001"):
            _config(c=5 * 10**6 + 1)
        with pytest.raises(ValueError, match="c=1000000"):
            _config(c=10**6, n_values=(2, 5), emax_values=(3, 1))
        _config(c=10**9, l_values=())  # an empty grid runs no trial
        _config(c=10**9, n_values=(-2,), emax_values=(-1,))  # nor this one

    def test_dict_round_trip(self):
        config = _config(k=3)
        data = dataclasses.asdict(config)  # as JSON gives it: lists
        for key in ("l_values", "n_values", "emax_values"):
            data[key] = list(data[key])
        assert ExperimentConfig.from_dict(data) == config

    def test_list_grids_become_tuples(self):
        config = ExperimentConfig(l_values=[8], n_values=[2],
                                  emax_values=[1])
        assert config == ExperimentConfig((8,), (2,), (1,))  # [8] != (8,)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"l_values": [8], "n_values": [2],
                                        "emax_values": [1], "bogus": 1})

    def test_k_policy_string(self):
        assert _config().k_policy == "auto"
        assert _config(k=7).k_policy == "7"


class TestRunCell:
    def test_small_cell_all_successes(self):
        report = run_cell(10, 2, 1, _config())
        assert report.trials == 30
        assert report.complete_successes == 30
        assert report.empirical_failure_rate == 0.0
        assert report.mean_iterations >= 1.0
        assert report.theoretical_bound > 0

    def test_deterministic_for_fixed_seed(self):
        config = _config(trials_per_cell=20)
        a = run_cell(10, 2, 1, config)
        b = run_cell(10, 2, 1, config)
        # wall time is the only field allowed to differ between reruns
        assert _strip_timing(a) == _strip_timing(b)

    def test_different_seeds_differ(self):
        a = run_cell(10, 2, 1, _config(trials_per_cell=50, k=1))
        b = run_cell(10, 2, 1, _config(trials_per_cell=50, k=1, seed=999))
        assert _strip_timing(a) != _strip_timing(b)

    def test_simulated_mode(self):
        report = run_cell(10, 2, 1, _config(order_mode="simulate"))
        assert report.complete_successes == report.trials

    def test_smallest_cell_is_always_143(self):
        # l=4 admits exactly the primes 11 and 13, so every trial factors
        # N=143 and must succeed
        report = run_cell(4, 2, 1, _config(trials_per_cell=25))
        assert report.complete_successes == 25
        assert report.empirical_failure_rate == 0.0

    def test_exact_mode_refuses_large_primes(self, monkeypatch):
        monkeypatch.setattr(harness, "generate_instance", None)  # no draw
        with pytest.raises(InfeasibleParametersError, match="64 bits"):
            run_cell(128, 2, 1, _config())
        with pytest.raises(InfeasibleParametersError, match="64 bits"):
            shor_baseline_splits(1024, 1, 1)

    def test_infeasible_cell_raises(self):
        with pytest.raises(InfeasibleParametersError):
            run_cell(3, 5, 1, _config())

    def test_failure_callback_fires_under_starved_k(self):
        failures = []
        config = _config(trials_per_cell=60, k=1)
        report = run_cell(10, 2, 1, config, on_failure=failures.append)
        assert len(failures) == report.trials - report.complete_successes
        for trial in failures:
            assert trial.missed_primes >= 0
            assert trial.instance.modulus % 2 == 1

    def test_failed_trials_replay_in_isolation(self):
        failures = []
        config = _config(trials_per_cell=60, k=1)
        run_cell(10, 2, 1, config, on_failure=failures.append)
        assert failures
        for trial in failures:
            assert not trial.verified
            assert harness._run_trial(trial.cell, config, trial.trial) \
                == trial

    # values from the run_cell that kept a list of bit lengths and a
    # failure dict: folding each Trial as it ends must not move a number
    @pytest.mark.parametrize("cell, overrides, expected", [
        ((10, 2, 1), dict(trials_per_cell=60, k=1), dict(
            k_policy="1", B_s=10000, trials=60, complete_successes=46,
            mean_iterations=1.0, mean_gcd_calls=3.6666666666666665,
            empirical_failure_rate=0.23333333333333328,
            theoretical_bound=0.5271481819351995,
            unlucky_events_observed=0)),
        ((16, 3, 2), dict(order_mode="simulate", k=2, trials_per_cell=40),
         dict(k_policy="2", B_s=10000, trials=40, complete_successes=39,
              mean_iterations=1.275, mean_gcd_calls=4.925,
              empirical_failure_rate=0.025000000000000022,
              theoretical_bound=0.7632713165101886,
              unlucky_events_observed=0)),
    ])
    def test_fixed_k_report_pinned(self, cell, overrides, expected):
        report = _strip_timing(run_cell(*cell, _config(**overrides)))
        l, n, e_max = cell
        assert report == dict(l=l, n=n, e_max=e_max, c=1, **expected)

    def test_fixed_k_failure_rate_within_bound(self):
        config = _config(trials_per_cell=400, k=1)
        report = run_cell(10, 2, 1, config)
        assert cell_passes(report)


class TestShorBaseline:
    def test_split_fraction_large(self):
        trials = 400
        fraction = shor_baseline_splits(10, trials, seed=7) / trials
        sigma = math.sqrt(0.75 * 0.25 / trials)
        assert fraction >= 0.75 - 3 * sigma

    def test_deterministic(self):
        assert shor_baseline_splits(10, 50, seed=3) == 42
        assert shor_baseline_splits(10, 50, seed=3) == 42

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            shor_baseline_splits(10, 0, seed=1)

    def test_matches_cli_splits(self, capsys):
        assert cli.main(["baseline", "--l", "12", "--trials", "50",
                         "--seed", "9"]) == cli.EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        assert printed["splits"] == shor_baseline_splits(12, 50, 9) == 43


class TestRunGrid:
    def test_empty_grid(self):
        reports, skipped = run_grid(_config(l_values=()))
        assert reports == []
        assert all(map(cell_passes, reports)) is True
        assert skipped == []

    def test_single_cell_matches_run_cell(self):
        config = _config(trials_per_cell=15)
        reports, _ = run_grid(config)
        direct = run_cell(10, 2, 1, config)
        assert len(reports) == 1
        assert _strip_timing(reports[0]) == _strip_timing(direct)
        assert all(map(cell_passes, reports))

    def test_desk_grid_all_cells_succeed(self):
        config = _config(l_values=(8, 16, 24), n_values=(2, 3, 5),
                         emax_values=(1, 2), trials_per_cell=200)
        reports, _ = run_grid(config)
        assert len(reports) == 18
        for report in reports:
            assert report.complete_successes == report.trials, report
        assert all(map(cell_passes, reports))

    def test_infeasible_cells_skipped(self):
        config = _config(l_values=(3,), n_values=(2, 5), trials_per_cell=5)
        reports, skipped = run_grid(config)
        assert len(reports) == 1  # l=3, n=2 feasible; n=5 is not
        assert len(skipped) == 1
        assert skipped[0]["n"] == 5


class TestReportEmission:
    def test_csv_schema(self, tmp_path):
        reports, _ = run_grid(_config(trials_per_cell=5))
        path = tmp_path / "cells.csv"
        write_csv(reports, path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0].keys()) == CSV_COLUMNS
        assert rows[0]["l"] == "10"
        assert rows[0]["k_policy"] == "auto"
        assert float(rows[0]["failure_rate"]) == 0.0
        assert rows[0]["unlucky_events_observed"] == \
            str(reports[0].unlucky_events_observed)

    def test_json_schema(self, tmp_path):
        reports, _ = run_grid(_config(trials_per_cell=5))
        path = tmp_path / "cells.json"
        write_json(reports, path)
        with open(path) as handle:
            data = json.load(handle)
        assert isinstance(data, list) and len(data) == 1
        field_names = {f.name for f in dataclasses.fields(CellReport)}
        assert set(data[0]) == field_names


class TestCellPasses:
    def test_bound_above_one_always_passes(self):
        report = CellReport(l=8, n=5, e_max=1, c=1, k_policy="1", B_s=100,
                            trials=100, complete_successes=0,
                            mean_iterations=1.0, mean_gcd_calls=1.0,
                            empirical_failure_rate=1.0,
                            theoretical_bound=5.0,
                            unlucky_events_observed=0,
                            wall_time_seconds=0.0)
        assert cell_passes(report)

    def test_over_bound_fails(self):
        report = CellReport(l=8, n=2, e_max=1, c=1, k_policy="50", B_s=100,
                            trials=10000, complete_successes=5000,
                            mean_iterations=1.0, mean_gcd_calls=1.0,
                            empirical_failure_rate=0.5,
                            theoretical_bound=0.01,
                            unlucky_events_observed=0,
                            wall_time_seconds=0.0)
        assert not cell_passes(report)
