import csv
import dataclasses
import json
import math

import pytest

from ordersplit.harness import (
    CSV_COLUMNS,
    CellReport,
    ExperimentConfig,
    cell_passes,
    run_cell,
    run_grid,
    run_shor_baseline_cell,
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

    def test_dict_round_trip(self):
        config = _config(k=3)
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again == config

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

    def test_exact_mode_refuses_large_primes(self):
        with pytest.raises(InfeasibleParametersError):
            run_cell(128, 2, 1, _config())

    def test_infeasible_cell_raises(self):
        with pytest.raises(InfeasibleParametersError):
            run_cell(3, 5, 1, _config())

    def test_failure_callback_fires_under_starved_k(self):
        failures = []
        config = _config(trials_per_cell=60, k=1)
        report = run_cell(10, 2, 1, config, on_failure=failures.append)
        assert len(failures) == report.trials - report.complete_successes
        for detail in failures:
            assert detail["missed_primes"] >= 0
            assert detail["instance"].modulus % 2 == 1

    def test_fixed_k_failure_rate_within_bound(self):
        config = _config(trials_per_cell=400, k=1)
        report = run_cell(10, 2, 1, config)
        assert cell_passes(report)


class TestShorBaseline:
    def test_split_fraction_large(self):
        report = run_shor_baseline_cell(10, 400, seed=7)
        fraction = report.complete_successes / report.trials
        sigma = math.sqrt(0.75 * 0.25 / report.trials)
        assert fraction >= 0.75 - 3 * sigma
        assert report.theoretical_bound == 0.25

    def test_deterministic(self):
        a = run_shor_baseline_cell(10, 50, seed=3)
        b = run_shor_baseline_cell(10, 50, seed=3)
        assert _strip_timing(a) == _strip_timing(b)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            run_shor_baseline_cell(10, 0, seed=1)


class TestRunGrid:
    def test_empty_grid(self):
        reports, summary = run_grid(_config(l_values=()))
        assert reports == []
        assert summary["cells"] == 0
        assert summary["all_within_bound"] is True

    def test_single_cell_matches_run_cell(self):
        config = _config(trials_per_cell=15)
        reports, summary = run_grid(config)
        direct = run_cell(10, 2, 1, config)
        assert len(reports) == 1
        assert _strip_timing(reports[0]) == _strip_timing(direct)
        assert summary["all_within_bound"]

    def test_desk_grid_all_cells_succeed(self):
        config = _config(l_values=(8, 16, 24), n_values=(2, 3, 5),
                         emax_values=(1, 2), trials_per_cell=200)
        reports, summary = run_grid(config)
        assert len(reports) == 18
        for report in reports:
            assert report.complete_successes == report.trials, report
        assert summary["all_within_bound"]

    def test_infeasible_cells_skipped(self):
        config = _config(l_values=(3,), n_values=(2, 5), trials_per_cell=5)
        reports, summary = run_grid(config)
        assert len(reports) == 1  # l=3, n=2 feasible; n=5 is not
        assert len(summary["skipped"]) == 1
        assert summary["skipped"][0]["n"] == 5


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
