"""Command-line front end: factor, simulate, experiment, baseline.

Exit codes: 0 success, 2 incomplete factorization, 64 usage error,
65 infeasible parameters. All big integers in JSON output are decimal
strings. The seed comes from --seed, or from the ORDER_SPLIT_SEED
environment variable when the flag is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

from ordersplit.engine import factor_with_order
from ordersplit.harness import (
    ExperimentConfig,
    cell_passes,
    run_grid,
    run_shor_baseline_cell,
    write_csv,
    write_json,
)
from ordersplit.oracle import (
    InfeasibleParametersError,
    exact_order,
    generate_instance,
    sample_unit,
    simulate_order,
)

EXIT_OK = 0
EXIT_INCOMPLETE = 2
EXIT_USAGE = 64
EXIT_INFEASIBLE = 65

SEED_ENV_VAR = "ORDER_SPLIT_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse which reports usage problems with exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_integer(text: str) -> int:
    """Decimal, or hexadecimal with a 0x prefix."""
    text = text.strip()
    if text.lower().startswith("0x"):
        return int(text, 16)
    return int(text, 10)


def _parse_k(text: str):
    if text == "auto":
        return None
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("--k takes an integer or 'auto'")
    if k < 1:
        raise argparse.ArgumentTypeError("--k must be >= 1")
    return k


def _resolve_seed(flag_value):
    if flag_value is not None:
        return flag_value
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")


def _make_rng(seed) -> random.Random:
    return random.Random(seed) if seed is not None else random.Random()


def build_parser() -> _Parser:
    parser = _Parser(prog="ordersplit",
                     description="Factor integers completely from the "
                                 "multiplicative order of one random unit.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_factor = sub.add_parser("factor", help="factor N given an order r")
    p_factor.add_argument("--N", required=True,
                          help="integer to factor (decimal, or 0x-hex)")
    p_factor.add_argument("--r", required=True,
                          help="positive multiple of the order of a unit "
                               "mod N (decimal)")
    p_factor.add_argument("--c", type=int, default=1,
                          help="smoothness multiplier for the grown "
                               "exponent (default 1)")
    p_factor.add_argument("--k", type=_parse_k, default=None,
                          help="fixed iteration count, or 'auto' to run "
                               "until complete (default auto)")
    p_factor.add_argument("--tau", type=int, default=1,
                          help="failure-budget exponent feeding the "
                               "iteration floor in auto mode (default 1)")
    p_factor.add_argument("--seed", type=int, default=None)
    p_factor.add_argument("--no-nprime-opt", action="store_true",
                          help="keep all arithmetic modulo N instead of "
                               "the unfactored cofactor")

    p_sim = sub.add_parser("simulate",
                           help="generate an instance and find one order")
    p_sim.add_argument("--l", type=int, required=True,
                       help="prime bit length")
    p_sim.add_argument("--n", type=int, required=True,
                       help="number of distinct primes")
    p_sim.add_argument("--emax", type=int, required=True,
                       help="maximum prime-power exponent")
    p_sim.add_argument("--Bs", type=int, default=10**6,
                       help="smoothness bound for heuristic order finding "
                            "(default 1000000)")
    p_sim.add_argument("--mode", choices=("exact", "heuristic"),
                       default="exact")
    p_sim.add_argument("--seed", type=int, default=None)

    p_exp = sub.add_parser("experiment", help="run a Monte-Carlo grid")
    p_exp.add_argument("--config", required=True,
                       help="JSON file mirroring the experiment config")
    p_exp.add_argument("--out", default=".",
                       help="directory for the CSV/JSON reports (default .)")

    p_base = sub.add_parser("baseline",
                            help="classic even-order split success rate on "
                                 "random semiprimes")
    p_base.add_argument("--l", type=int, required=True)
    p_base.add_argument("--trials", type=int, required=True)
    p_base.add_argument("--seed", type=int, default=None)
    return parser


def cmd_factor(args) -> int:
    try:
        n = _parse_integer(args.N)
        n_text = str(n)  # a hex N past the int/str digit limit fails here
        r = _parse_integer(args.r)
        if n < 3:
            raise ValueError("N must be >= 3")
        if r < 1:
            raise ValueError("r must be >= 1")
        if args.c < 1:
            raise ValueError("--c must be >= 1")
        if args.tau < 1:
            raise ValueError("--tau must be >= 1")
        seed = _resolve_seed(args.seed)
    except ValueError as exc:
        print(f"ordersplit factor: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rng = _make_rng(seed)
    outcome = factor_with_order(
        n, r, c=args.c, k=args.k, tau=args.tau, rng=rng,
        use_reduced_modulus=not args.no_nprime_opt)
    print(json.dumps({
        "N": n_text,
        "factors": [{"p": str(p), "e": e} for p, e in outcome.factors],
        "complete": outcome.complete,
        "iterations": outcome.iterations,
    }))
    return EXIT_OK if outcome.complete else EXIT_INCOMPLETE


def cmd_simulate(args) -> int:
    try:
        seed = _resolve_seed(args.seed)
        if args.Bs < 2:
            raise ValueError("--Bs must be >= 2")
    except ValueError as exc:
        print(f"ordersplit simulate: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rng = _make_rng(seed)
    try:
        instance = generate_instance(args.l, args.n, args.emax, rng)
        if args.mode == "exact":
            g = sample_unit(instance.modulus, rng, exclude_one=True)
            result = exact_order(instance, g)
        else:
            result = simulate_order(instance, args.Bs, rng)
    except InfeasibleParametersError as exc:
        print(f"ordersplit simulate: error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(json.dumps({
        "instance": instance.to_json_dict(),
        "g": str(result.element),
        "r": str(result.order),
        "exact": result.exact,
    }))
    return EXIT_OK


def cmd_experiment(args) -> int:
    try:
        with open(args.config) as handle:
            data = json.load(handle)
        config = ExperimentConfig.from_dict(data)
    except (OSError, ValueError, TypeError) as exc:
        print(f"ordersplit experiment: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports, summary = run_grid(config)
    for report in reports:
        status = "ok" if cell_passes(report) else "OVER BOUND"
        print(f"cell l={report.l} n={report.n} e_max={report.e_max}: "
              f"{report.complete_successes}/{report.trials} complete, "
              f"failure {report.empirical_failure_rate:.4f} vs bound "
              f"{report.theoretical_bound:.4f} [{status}]")
    for skip in summary["skipped"]:
        print(f"cell l={skip['l']} n={skip['n']} e_max={skip['e_max']}: "
              f"skipped ({skip['reason']})")
    write_csv(reports, out_dir / "experiment_results.csv")
    write_json(reports, out_dir / "experiment_results.json")
    print(f"wrote {out_dir / 'experiment_results.csv'} and "
          f"{out_dir / 'experiment_results.json'}")
    return EXIT_OK if summary["all_within_bound"] else EXIT_INCOMPLETE


def cmd_baseline(args) -> int:
    try:
        if args.trials < 1 or args.l < 3:
            raise ValueError("need --trials >= 1 and --l >= 3")
        seed = _resolve_seed(args.seed)
    except ValueError as exc:
        print(f"ordersplit baseline: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if seed is None:
        seed = random.randrange(2**63)
    try:
        report = run_shor_baseline_cell(args.l, args.trials, seed)
    except InfeasibleParametersError as exc:
        print(f"ordersplit baseline: error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(json.dumps({
        "l": report.l,
        "trials": report.trials,
        "splits": report.complete_successes,
        "split_fraction": report.complete_successes / report.trials,
        "seed": seed,
    }))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    handlers = {
        "factor": cmd_factor,
        "simulate": cmd_simulate,
        "experiment": cmd_experiment,
        "baseline": cmd_baseline,
    }
    return handlers[args.command](args)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
