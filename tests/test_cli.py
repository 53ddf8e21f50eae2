import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordersplit
from ordersplit import cli, harness
from ordersplit.cli import (
    EXIT_INCOMPLETE,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from ordersplit.engine import factor_with_order


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

    def test_c_above_the_sieve_limit(self, capsys, refuse_large_sieves):
        # the engine would sieve to c * bitlen(N) = 3,703,704 * 27 > 10^8
        code, out, err = run_cli(capsys, "factor", "--N", str(10007 * 10009),
                                 "--r", "4", "--c", "3703704", "--seed", "1")
        assert code == EXIT_USAGE
        assert "--c" in err and "Traceback" not in err
        assert out == ""

    def test_fixed_k(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--N", "143", "--r", "60",
                               "--k", "16", "--seed", "5")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["factors"] == [{"p": "11", "e": 1}, {"p": "13", "e": 1}]

    @pytest.mark.parametrize("flag", [["--tau", "2"], ["--no-nprime-opt"]],
                             ids=["tau", "no-nprime-opt"])
    def test_removed_flags_are_usage_errors(self, capsys, flag):
        code, out, _ = run_cli(capsys, "factor", "--N", "143", "--r", "60",
                               *flag)
        assert code == EXIT_USAGE
        assert out == ""

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


@pytest.fixture
def digit_limit():
    """sys.set_int_max_str_digits, with the limit restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int/str digit limit before Python 3.10.7")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


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

    def test_smoothness_bound_above_the_limit(self, capsys):
        # rejected before any sieving: a 10^12 sieve would not fit in memory
        code, out, err = run_cli(capsys, "simulate", "--l", "20", "--n", "2",
                                 "--emax", "1", "--mode", "heuristic",
                                 "--Bs", "1000000000000", "--seed", "1")
        assert code == EXIT_USAGE
        assert "--Bs" in err and "Traceback" not in err
        assert out == ""

    def test_n_within_the_int_str_digit_limit(self, capsys, monkeypatch,
                                              digit_limit):
        # an N of at most l * n * e_max bits has at most
        # floor(bits * log10 2) + 1 digits: 636 for 2112 bits, 646 for 2144
        digit_limit(640)
        code, out, _ = run_cli(capsys, "simulate", "--l", "16", "--n", "2",
                               "--emax", "66", "--mode", "heuristic",
                               "--seed", "1")
        assert code == EXIT_OK
        assert int(json.loads(out)["instance"]["N"]).bit_length() <= 2112

        def no_draw(*args):
            raise AssertionError("an instance was drawn")
        monkeypatch.setattr(cli, "generate_instance", no_draw)
        code, out, err = run_cli(capsys, "simulate", "--l", "16", "--n", "2",
                                 "--emax", "67", "--mode", "heuristic",
                                 "--seed", "1")
        assert code == EXIT_USAGE and out == ""
        assert all(flag in err for flag in ("--l", "--n", "--emax"))
        digit_limit(sys.int_info.default_max_str_digits)
        for mode in ("exact", "heuristic"):
            code, out, err = run_cli(capsys, "simulate", "--l", "16", "--n",
                                     "2", "--emax", "800", "--mode", mode,
                                     "--seed", "1")
            assert code == EXIT_USAGE and out == ""
            assert "Traceback" not in err


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

    @pytest.mark.parametrize("field, value", [
        ("B_s", 1e6),
        ("c", 1.5),
        ("trials_per_cell", 2.0),
        ("l_values", "16"),
        ("l_values", [8.7]),
        ("k", True),
    ])
    def test_mistyped_numeric_field(self, capsys, tmp_path, field, value):
        config = {"l_values": [8], "n_values": [2], "emax_values": [1],
                  "trials_per_cell": 2, "B_s": 1000, field: value}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "experiment", "--config",
                                 str(config_path), "--out",
                                 str(tmp_path / "out"))
        assert code == EXIT_USAGE
        assert field in err and "Traceback" not in err
        assert out == ""

    def test_smoothness_bound_above_the_limit(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "l_values": [20], "n_values": [2], "emax_values": [1],
            "trials_per_cell": 1, "B_s": 10**12}))
        code, out, err = run_cli(capsys, "experiment", "--config",
                                 str(config_path), "--out",
                                 str(tmp_path / "out"))
        assert code == EXIT_USAGE
        assert "B_s" in err and "Traceback" not in err
        assert out == ""

    def test_exponent_growth_above_the_sieve_limit(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "l_values": [8], "n_values": [2], "emax_values": [1],
            "trials_per_cell": 1, "c": 10**8, "order_mode": "exact"}))
        code, out, err = run_cli(capsys, "experiment", "--config",
                                 str(config_path), "--out",
                                 str(tmp_path / "out"))
        assert code == EXIT_USAGE
        assert "c=100000000" in err and "Traceback" not in err
        assert out == ""

    def test_infeasible_cell_is_skipped(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "l_values": [3], "n_values": [5], "emax_values": [1],
            "trials_per_cell": 1}))
        code, out, _ = run_cli(capsys, "experiment", "--config",
                               str(config_path), "--out",
                               str(tmp_path / "out"))
        assert code == EXIT_OK
        assert ("cell l=3 n=5 e_max=1: skipped (only 2 odd 3-bit primes "
                "exist, need 5)") in out

    def test_config_not_an_object(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps([1, 2]))
        code, _, err = run_cli(capsys, "experiment", "--config",
                               str(config_path))
        assert code == EXIT_USAGE
        assert "JSON object" in err

    @staticmethod
    def _one_cell_config(tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "l_values": [8], "n_values": [2], "emax_values": [1],
            "trials_per_cell": 2, "seed": 1, "order_mode": "exact"}))
        return config_path

    def test_out_is_a_file(self, capsys, tmp_path, monkeypatch):
        def no_trials(config):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(cli, "run_grid", no_trials)
        not_a_dir = tmp_path / "reports"
        not_a_dir.write_text("")
        code, out, err = run_cli(capsys, "experiment", "--config",
                                 str(self._one_cell_config(tmp_path)),
                                 "--out", str(not_a_dir))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("ordersplit experiment: error: ")
        assert err.count("\n") == 1

    def test_report_path_not_writable(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        (out_dir / "experiment_results.csv").mkdir(parents=True)
        code, _, err = run_cli(capsys, "experiment", "--config",
                               str(self._one_cell_config(tmp_path)),
                               "--out", str(out_dir))
        assert code == EXIT_USAGE
        assert err.startswith("ordersplit experiment: error: ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestBaselineCommand:
    def test_baseline_reports_fraction(self, capsys):
        code, out, _ = run_cli(capsys, "baseline", "--l", "10", "--trials",
                               "100", "--seed", "3")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["trials"] == 100
        assert 0.0 <= data["split_fraction"] <= 1.0
        assert data["split_fraction"] >= 0.5

    def test_unseeded_run_prints_its_seed(self, capsys):
        code, out, _ = run_cli(capsys, "baseline", "--l", "8", "--trials", "3")
        assert code == EXIT_OK
        first = json.loads(out)
        assert isinstance(first["seed"], int)
        code, out, _ = run_cli(capsys, "baseline", "--l", "8", "--trials",
                               "3", "--seed", str(first["seed"]))
        assert code == EXIT_OK
        assert json.loads(out) == first

    def test_zero_trials(self, capsys):
        code, _, _ = run_cli(capsys, "baseline", "--l", "10", "--trials", "0")
        assert code == EXIT_USAGE


class TestIntegerFlags:
    def test_hex_order(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--N", "15", "--r", "0x3c",
                               "--seed", "1")
        assert code == EXIT_OK
        assert json.loads(out)["complete"] is True

    @pytest.mark.parametrize("flag, argv", [
        ("--r", ["factor", "--N", "15", "--r", "0"]),
        ("--c", ["factor", "--N", "15", "--r", "4", "--c", "0"]),
        ("--Bs", ["simulate", "--l", "8", "--n", "2", "--emax", "1",
                  "--mode", "heuristic", "--Bs", "1"]),
        ("--l", ["baseline", "--l", "2", "--trials", "1"]),
    ], ids=["r", "c", "Bs", "l"])
    def test_out_of_range_is_a_usage_error(self, capsys, flag, argv):
        code, out, err = run_cli(capsys, *argv, "--seed", "1")
        assert code == EXIT_USAGE
        assert out == "" and f"argument {flag}: must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["baseline", "--l", "65", "--trials", "1"],
        ["simulate", "--l", "65", "--n", "2", "--emax", "1"],
        ["baseline", "--l", "1024", "--trials", "1"],
        ["simulate", "--l", "1024", "--n", "2", "--emax", "1"],
    ], ids=["baseline", "simulate", "baseline-1024", "simulate-1024"])
    def test_exact_order_past_64_bits_is_infeasible(self, capsys,
                                                    monkeypatch, argv):
        # refused before any instance is drawn
        monkeypatch.setattr(cli, "generate_instance", None)
        monkeypatch.setattr(harness, "generate_instance", None)
        code, out, err = run_cli(capsys, *argv, "--seed", "1")
        assert code == EXIT_INFEASIBLE
        assert out == "" and "64 bits" in err


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

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_share_no_parsed_state(self, capsys, monkeypatch):
        seen_k = []

        def spy(n, r, **kwargs):
            seen_k.append(kwargs["k"])
            return factor_with_order(n, r, **kwargs)

        monkeypatch.setattr(cli, "factor_with_order", spy)
        for extra in (["--k", "3"], []):
            code, _, _ = run_cli(capsys, "factor", "--N", "143", "--r", "60",
                                 "--seed", "1", *extra)
            assert code == EXIT_OK
        assert seen_k == [3, None]
        code, out, _ = run_cli(capsys, "factor", "--N", "15", "--frobnicate")
        assert code == EXIT_USAGE
        assert out == ""

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
