import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordersplit
from ordersplit import cli
from ordersplit.cli import (
    EXIT_INCOMPLETE,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFactorCommand:
    def test_factor_15(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--N", "15", "--r", "4",
                               "--seed", "1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["N"] == "15"
        assert data["factors"] == [{"p": "3", "e": 1}, {"p": "5", "e": 1}]
        assert data["complete"] is True

    def test_factor_30_trial_division_only(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--N", "30", "--r", "4",
                               "--seed", "1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["factors"] == [{"p": "2", "e": 1}, {"p": "3", "e": 1},
                                   {"p": "5", "e": 1}]
        assert data["iterations"] == 0

    def test_factor_49_perfect_power(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--N", "49", "--r", "1",
                               "--seed", "1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["factors"] == [{"p": "7", "e": 2}]

    def test_factor_prime(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--N", "101", "--r", "1",
                               "--seed", "1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["factors"] == [{"p": "101", "e": 1}]
        assert data["complete"] is True

    def test_hex_input(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--N", "0xF", "--r", "4",
                               "--seed", "1")
        assert code == EXIT_OK
        assert json.loads(out)["N"] == "15"

    def test_parse_failure(self, capsys):
        code, _, err = run_cli(capsys, "factor", "--N", "fifteen", "--r", "4")
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize("text", ["1" + "0" * 4400, hex(10**4400)],
                             ids=["decimal", "hex"])
    def test_n_past_int_str_digit_limit(self, capsys, monkeypatch, text):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no int/str digit limit")
        calls = []
        monkeypatch.setattr(cli, "factor_with_order",
                            lambda *a, **kw: calls.append(a))
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # CPython's default
        try:
            code, out, err = run_cli(capsys, "factor", "--N", text,
                                     "--r", "2")
        finally:
            sys.set_int_max_str_digits(previous)
        assert code == EXIT_USAGE
        assert out == "" and "error" in err
        assert calls == []  # rejected before any factoring

    def test_n_too_small(self, capsys):
        code, _, _ = run_cli(capsys, "factor", "--N", "2", "--r", "1")
        assert code == EXIT_USAGE

    def test_bad_k(self, capsys):
        code, _, _ = run_cli(capsys, "factor", "--N", "15", "--r", "4",
                             "--k", "sometimes")
        assert code == EXIT_USAGE

    def test_fixed_k_and_no_nprime_opt(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--N", "143", "--r", "60",
                               "--k", "16", "--no-nprime-opt", "--seed", "5")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["factors"] == [{"p": "11", "e": 1}, {"p": "13", "e": 1}]

    def test_incomplete_exit_code(self, capsys):
        # a useless r with a single iteration on a 22-digit semiprime core
        n = str(1000003 * 1000033)
        code, out, _ = run_cli(capsys, "factor", "--N", n, "--r", "1",
                               "--k", "1", "--seed", "1")
        data = json.loads(out)
        if not data["complete"]:
            assert code == EXIT_INCOMPLETE
        else:
            assert code == EXIT_OK

    def test_env_seed_determinism(self, capsys, monkeypatch):
        monkeypatch.setenv("ORDER_SPLIT_SEED", "42")
        code_a, out_a, _ = run_cli(capsys, "factor", "--N", "143", "--r", "60")
        code_b, out_b, _ = run_cli(capsys, "factor", "--N", "143", "--r", "60")
        assert code_a == code_b == EXIT_OK
        assert out_a == out_b

    def test_flag_beats_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("ORDER_SPLIT_SEED", "not-an-integer")
        code, out, _ = run_cli(capsys, "factor", "--N", "15", "--r", "4",
                               "--seed", "1")
        assert code == EXIT_OK

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("ORDER_SPLIT_SEED", "not-an-integer")
        code, _, err = run_cli(capsys, "factor", "--N", "15", "--r", "4")
        assert code == EXIT_USAGE
        assert "ORDER_SPLIT_SEED" in err


class TestSimulateCommand:
    def test_exact_mode_4bit(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--l", "4", "--n", "2",
                               "--emax", "1", "--seed", "7")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["instance"]["N"] == "143"
        assert data["exact"] is True
        g, r = int(data["g"]), int(data["r"])
        assert pow(g, r, 143) == 1

    def test_heuristic_mode_flags_inexact(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--l", "8", "--n", "2",
                               "--emax", "1", "--mode", "heuristic",
                               "--Bs", "2", "--seed", "7")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["exact"] is False
        n = int(data["instance"]["N"])
        assert pow(int(data["g"]), int(data["r"]), n) == 1

    def test_deterministic_output(self, capsys):
        args = ("simulate", "--l", "10", "--n", "2", "--emax", "2",
                "--seed", "123")
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b

    def test_infeasible(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--l", "3", "--n", "9",
                               "--emax", "1", "--seed", "1")
        assert code == EXIT_INFEASIBLE
        assert "error" in err


class TestExperimentCommand:
    def test_runs_grid_and_writes_reports(self, capsys, tmp_path):
        config = {
            "l_values": [8, 10], "n_values": [2], "emax_values": [1],
            "trials_per_cell": 10, "seed": 5, "order_mode": "exact",
            "B_s": 1000,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "experiment", "--config",
                               str(config_path), "--out", str(out_dir))
        assert code == EXIT_OK
        assert (out_dir / "experiment_results.csv").exists()
        assert (out_dir / "experiment_results.json").exists()
        assert "cell l=8 n=2 e_max=1" in out
        data = json.loads((out_dir / "experiment_results.json").read_text())
        assert len(data) == 2

    def test_zero_trials_rejected(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "l_values": [8], "n_values": [2], "emax_values": [1],
            "trials_per_cell": 0}))
        code, _, err = run_cli(capsys, "experiment", "--config",
                               str(config_path))
        assert code == EXIT_USAGE
        assert "error" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "experiment", "--config",
                             str(tmp_path / "nope.json"))
        assert code == EXIT_USAGE

    def test_unknown_config_key(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "l_values": [8], "n_values": [2], "emax_values": [1],
            "color": "blue"}))
        code, _, _ = run_cli(capsys, "experiment", "--config",
                             str(config_path))
        assert code == EXIT_USAGE


class TestBaselineCommand:
    def test_baseline_reports_fraction(self, capsys):
        code, out, _ = run_cli(capsys, "baseline", "--l", "10", "--trials",
                               "100", "--seed", "3")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["trials"] == 100
        assert 0.0 <= data["split_fraction"] <= 1.0
        assert data["split_fraction"] >= 0.5

    def test_zero_trials(self, capsys):
        code, _, _ = run_cli(capsys, "baseline", "--l", "10", "--trials", "0")
        assert code == EXIT_USAGE


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "conjure")
        assert code == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "factor", "--N", "15", "--r", "4",
                             "--frobnicate")
        assert code == EXIT_USAGE

    def test_no_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == EXIT_USAGE

    def test_module_entry_point(self):
        src = str(Path(ordersplit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        ok = subprocess.run(
            [sys.executable, "-m", "ordersplit.cli", "factor", "--N", "15",
             "--r", "4", "--seed", "1"],
            capture_output=True, text=True, env=env, timeout=60)
        assert ok.returncode == EXIT_OK
        assert json.loads(ok.stdout)["N"] == "15"
        bad = subprocess.run([sys.executable, "-m", "ordersplit.cli"],
                             capture_output=True, text=True, env=env,
                             timeout=60)
        assert bad.returncode == EXIT_USAGE
