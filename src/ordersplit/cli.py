"""Command-line front end: factor, simulate, experiment, baseline.

Exit codes: 0 success, 2 incomplete factorization, 64 usage error,
65 infeasible parameters. All big integers in JSON output are decimal
strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from pathlib import Path

from ordersplit.engine import factor_with_order
from ordersplit.harness import (
    ExperimentConfig,
    cell_passes,
    run_grid,
    shor_baseline_splits,
    write_csv,
    write_json,
)
from ordersplit.ntcore import MAX_SIEVE_BOUND
from ordersplit.oracle import (
    InfeasibleParametersError,
    check_exact_order_bits,
    exact_order,
    generate_instance,
    sample_unit,
    simulate_order,
)

EXIT_OK = 0
EXIT_INCOMPLETE = 2
EXIT_USAGE = 64
EXIT_INFEASIBLE = 65


class _Parser(argparse.ArgumentParser):
    """argparse which reports usage problems with exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _UsageError(Exception):
    """A usage error no flag type can see; main exits 64 on it."""


def _integer(low: int, high: int | None = None):
    """argparse type for an integer flag in [low, high], written in decimal
    or as 0x-hex."""
    def parse(text: str) -> int:
        text = text.strip()
        try:
            value = int(text, 16 if text.lower().startswith("0x") else 10)
            str(value)  # a hex value past the int/str digit limit fails here
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        if value < low or high is not None and value > high:
            span = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {span}, got {value}")
        return value
    return parse


def _parse_k(text: str):
    return None if text == "auto" else _integer(1)(text)


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on the first call and shared by later ones:
    each parse fills a fresh namespace, so no call sees another's flags."""
    parser = _Parser(prog="ordersplit",
                     description="Factor integers completely from the "
                                 "multiplicative order of one random unit.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_factor = sub.add_parser("factor", help="factor N given an order r")
    p_factor.set_defaults(run=cmd_factor)
    p_factor.add_argument("--N", type=_integer(3), required=True,
                          help="integer to factor (decimal, or 0x-hex)")
    p_factor.add_argument("--r", type=_integer(1), required=True,
                          help="positive multiple of the order of a unit "
                               "mod N (decimal, or 0x-hex)")
    p_factor.add_argument("--c", type=_integer(1), default=1,
                          help="smoothness multiplier for the grown "
                               "exponent, with c * bitlen(N) at most "
                               f"{MAX_SIEVE_BOUND} (default 1)")
    p_factor.add_argument("--k", type=_parse_k, default=None,
                          help="fixed iteration count, or 'auto' to run "
                               "until complete (default auto)")
    p_factor.add_argument("--seed", type=int, default=None)

    p_sim = sub.add_parser("simulate",
                           help="generate an instance and find one order")
    p_sim.set_defaults(run=cmd_simulate)
    p_sim.add_argument("--l", type=_integer(3), required=True,
                       help="prime bit length")
    p_sim.add_argument("--n", type=int, required=True,
                       help="number of distinct primes")
    p_sim.add_argument("--emax", type=int, required=True,
                       help="maximum prime-power exponent")
    p_sim.add_argument("--Bs", type=_integer(2, MAX_SIEVE_BOUND),
                       default=10**6,
                       help="smoothness bound for heuristic order finding, "
                            f"at most {MAX_SIEVE_BOUND} (default 1000000)")
    p_sim.add_argument("--mode", choices=("exact", "heuristic"),
                       default="exact")
    p_sim.add_argument("--seed", type=int, default=None)

    p_exp = sub.add_parser("experiment", help="run a Monte-Carlo grid")
    p_exp.set_defaults(run=cmd_experiment)
    p_exp.add_argument("--config", required=True,
                       help="JSON file mirroring the experiment config")
    p_exp.add_argument("--out", default=".",
                       help="directory for the CSV/JSON reports (default .)")

    p_base = sub.add_parser("baseline",
                            help="classic even-order split success rate on "
                                 "random semiprimes")
    p_base.set_defaults(run=cmd_baseline)
    p_base.add_argument("--l", type=_integer(3), required=True)
    p_base.add_argument("--trials", type=_integer(1), required=True)
    p_base.add_argument("--seed", type=int, default=None)
    return parser


def cmd_factor(args) -> int:
    if args.c * args.N.bit_length() > MAX_SIEVE_BOUND:
        # c * bitlen(N) is the sieve bound of the grown exponent
        raise _UsageError(f"--c times the bit length of N must be at most "
                          f"{MAX_SIEVE_BOUND}, got {args.c} * "
                          f"{args.N.bit_length()}")
    outcome = factor_with_order(args.N, args.r, c=args.c, k=args.k,
                                rng=random.Random(args.seed))
    print(json.dumps({
        "N": str(args.N),
        "factors": [{"p": str(p), "e": e}
                    for p, e in outcome.factorization.pairs],
        "complete": outcome.complete,
        "iterations": outcome.iterations,
    }))
    return EXIT_OK if outcome.complete else EXIT_INCOMPLETE


def cmd_simulate(args) -> int:
    if args.mode == "exact":
        check_exact_order_bits(args.l)
    # N has at most l * n * e_max bits; printing it must not pass the
    # int/str digit limit (0: none; absent before Python 3.10.7)
    bits = args.l * max(args.n, 0) * max(args.emax, 0)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and math.floor(bits * math.log10(2)) + 1 > limit:
        raise _UsageError(
            f"--l * --n * --emax = {bits} is too large: an N of that many "
            f"bits could have more than {limit} decimal digits, the "
            f"int/str conversion limit")
    rng = random.Random(args.seed)
    instance = generate_instance(args.l, args.n, args.emax, rng)
    if args.mode == "exact":
        g = sample_unit(instance.modulus, rng, exclude_one=True)
        result = exact_order(instance, g)
    else:
        result = simulate_order(instance, args.Bs, rng)
    print(json.dumps({
        "instance": instance.to_json_dict(),
        "g": str(result.element),
        "r": str(result.order),
        "exact": result.exact,
    }))
    return EXIT_OK


def cmd_experiment(args) -> int:
    out_dir = Path(args.out)
    try:
        with open(args.config) as handle:
            data = json.load(handle)
        config = ExperimentConfig.from_dict(data)
        out_dir.mkdir(parents=True, exist_ok=True)  # before any trial
    except (OSError, ValueError, TypeError) as exc:
        raise _UsageError(exc)
    reports, skipped = run_grid(config)
    for report in reports:
        status = "ok" if cell_passes(report) else "OVER BOUND"
        print(f"cell l={report.l} n={report.n} e_max={report.e_max}: "
              f"{report.complete_successes}/{report.trials} complete, "
              f"failure {report.empirical_failure_rate:.4f} vs bound "
              f"{report.theoretical_bound:.4f} [{status}]")
    for skip in skipped:
        print(f"cell l={skip['l']} n={skip['n']} e_max={skip['e_max']}: "
              f"skipped ({skip['reason']})")
    try:
        write_csv(reports, out_dir / "experiment_results.csv")
        write_json(reports, out_dir / "experiment_results.json")
    except OSError as exc:
        raise _UsageError(exc)
    print(f"wrote {out_dir / 'experiment_results.csv'} and "
          f"{out_dir / 'experiment_results.json'}")
    return EXIT_OK if all(map(cell_passes, reports)) else EXIT_INCOMPLETE


def cmd_baseline(args) -> int:
    seed = random.randrange(2**63) if args.seed is None else args.seed
    splits = shor_baseline_splits(args.l, args.trials, seed)
    print(json.dumps({
        "l": args.l,
        "trials": args.trials,
        "splits": splits,
        "split_fraction": splits / args.trials,
        "seed": seed,
    }))
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command. The only place that turns a usage error (64) or
    infeasible parameters (65) into an exit code; argparse's own errors
    exit 64 through _Parser.error."""
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    except (_UsageError, InfeasibleParametersError) as exc:
        print(f"ordersplit {args.command}: error: {exc}", file=sys.stderr)
        return (EXIT_USAGE if isinstance(exc, _UsageError)
                else EXIT_INFEASIBLE)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
