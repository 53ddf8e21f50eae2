"""The benchmark's workloads: input generation, one op, and verification.

Inputs come from the workload seed alone, so a seed always yields the same
inputs; ``inputs_sha256`` fingerprints them. Ops call the package through
module attributes (``harness.run_cell``, ``cli.main``) so that the tracer's
wrappers are seen. Every op result is checked against the instance's ground
truth.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
import types
from dataclasses import dataclass

from ordersplit import cli, engine, harness, oracle

EXIT_OK, EXIT_INCOMPLETE = 0, 2


@dataclass(frozen=True)
class Outcome:
    """Result of one op: verified complete, or a claim that contradicts the
    ground truth (``wrong``), or an error such as an unexpected exit code,
    or none of these (an incomplete result)."""

    ok: bool
    wrong: bool = False
    error: str | None = None
    reports: tuple = ()  # the CellReports of harness trials


def rate_problem(what: str, failures: int, trials: int, bound: float):
    """None if ``failures`` of ``trials`` is within the paper's ``bound``
    plus the 3-sigma binomial slack of ``harness.cell_passes``, else a
    description of the excess."""
    rate = failures / trials
    if harness.cell_passes(types.SimpleNamespace(
            trials=trials, theoretical_bound=bound,
            empirical_failure_rate=rate)):
        return None
    return (f"{what}: failure rate {rate:.4f} over {trials} trials exceeds "
            f"bound {bound:.4f} + 3 sigma")


def derive_seed(seed: int, *parts) -> int:
    """64-bit seed for one part of a workload, from the workload seed."""
    tag = "|".join(str(p) for p in ("perfbench", seed, *parts))
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "big")


def inputs_sha256(workload, inputs) -> str:
    digest = hashlib.sha256()
    for inp in inputs:
        digest.update(repr(workload.fingerprint(inp)).encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class CellInput:
    """One op: a trial seed for each (n, e_max) cell at prime size l."""

    l: int
    trials: tuple[tuple[int, int, int], ...]  # (n, e_max, seed)


class CellWorkload:
    """One seeded trial per cell per op, through ``harness.run_cell``.

    run_cell derives each trial's instance and order from (cell, seed), so
    the (l, n, e_max, seed) list fixes every (N, r) an op sees. An op that
    sweeps all cells has one latency distribution, where single trials of
    cells with different costs would put the median between clusters.
    """

    def __init__(self, name, why, l, cells, order_mode, pool, B_s=10**6):
        self.name, self.why = name, why
        self.l, self.cells, self.order_mode = l, tuple(cells), order_mode
        self.pool, self.B_s = pool, B_s

    def make_inputs(self, seed: int) -> list[CellInput]:
        return [CellInput(self.l, tuple(
                    (n, e_max, derive_seed(seed, self.name, i, n, e_max))
                    for n, e_max in self.cells))
                for i in range(self.pool)]

    def warm_inputs(self, inputs):
        return inputs[:1]

    def fingerprint(self, inp: CellInput):
        return (inp.l, inp.trials, self.order_mode, self.B_s)

    def run(self, inp: CellInput) -> Outcome:
        reports = tuple(
            harness.run_cell(inp.l, n, e_max, harness.ExperimentConfig(
                (inp.l,), (n,), (e_max,), k=None, B_s=self.B_s,
                trials_per_cell=1, seed=seed, order_mode=self.order_mode))
            for n, e_max, seed in inp.trials)
        return Outcome(ok=all(r.complete_successes == r.trials
                              for r in reports), reports=reports)

    def check(self, inputs, records) -> list[str]:
        """Per cell, the failure rate over the distinct trials run must stay
        within the paper's bound plus the harness's 3-sigma slack.

        ``records`` holds (input index, outcome) for the ops that returned.
        The cell bound is the mean of the per-trial bounds run_cell reports.
        """
        first = {}
        for index, outcome in records:
            first.setdefault(index, outcome)
        reports: dict[tuple[int, int], list] = {}
        for outcome in first.values():
            for report in outcome.reports:
                reports.setdefault((report.n, report.e_max), []).append(report)
        problems = []
        for (n, e_max), group in sorted(reports.items()):
            failures = sum(r.trials - r.complete_successes for r in group)
            problem = rate_problem(
                f"cell n={n} e_max={e_max}", failures,
                sum(r.trials for r in group),
                statistics.fmean(r.theoretical_bound for r in group))
            if problem:
                problems.append(problem)
        return problems


@dataclass(frozen=True)
class FactorInput:
    argv: tuple[str, ...]
    truth: tuple[tuple[int, int], ...]  # sorted (prime, exponent) pairs


def judge_factor_output(truth, exit_code: int, stdout: str) -> Outcome:
    """Compare ``ordersplit factor`` output with the ground truth.

    Exit 0 must list exactly the true prime powers. Exit 2 (incomplete) may
    list only true prime powers. Any other exit code is an error.
    """
    if exit_code not in (EXIT_OK, EXIT_INCOMPLETE):
        return Outcome(ok=False, error=f"exit code {exit_code}")
    report = json.loads(stdout.strip().splitlines()[-1])
    claimed = tuple(sorted((int(f["p"]), int(f["e"]))
                           for f in report["factors"]))
    if exit_code == EXIT_OK or report["complete"]:
        wrong = claimed != truth
        return Outcome(ok=not wrong, wrong=wrong)
    return Outcome(ok=False, wrong=not set(claimed) <= set(truth))


class FactorWorkload:
    """``ordersplit factor`` in-process on moduli with known factorization.

    Set-up draws ``instances`` moduli with generate_instance and an order
    for each with simulate_order; each modulus is then factored under
    ``engine_seeds`` engine seeds. No oracle work runs in an op.
    """

    def __init__(self, name, why, l, n, e_max, instances, engine_seeds,
                 B_s=10**6):
        self.name, self.why = name, why
        self.l, self.n, self.e_max = l, n, e_max
        self.instances, self.engine_seeds, self.B_s = instances, engine_seeds, B_s

    def make_inputs(self, seed: int) -> list[FactorInput]:
        rng = random.Random(derive_seed(seed, self.name))
        inputs = []
        for i in range(self.instances):
            instance = oracle.generate_instance(self.l, self.n, self.e_max, rng)
            order = oracle.simulate_order(instance, self.B_s, rng).order
            truth = tuple(sorted(zip(instance.primes, instance.exponents)))
            for j in range(self.engine_seeds):
                engine_seed = derive_seed(seed, self.name, i, j)
                argv = ("factor", "--N", str(instance.modulus), "--r",
                        str(order), "--seed", str(engine_seed))
                inputs.append(FactorInput(argv, truth))
        return inputs

    def warm_inputs(self, inputs):
        return inputs[:1]

    def fingerprint(self, inp: FactorInput):
        return inp.argv

    def run(self, inp: FactorInput) -> Outcome:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(inp.argv))
        return judge_factor_output(inp.truth, code, out.getvalue())

    def check(self, inputs, records) -> list[str]:
        """No wrong claim and no error in any op; over the distinct inputs
        run, the incomplete rate must stay within the paper's bound plus
        3 sigma, as for a harness cell.

        ``records`` holds (input index, outcome) for the ops that returned.
        The bound is the mean of ``theoretical_failure_bound`` over the
        inputs, at the iteration cap the CLI's default ``--k auto`` uses.
        """
        problems = []
        for index in sorted({i for i, o in records if o.wrong}):
            problems.append(f"wrong factorization claimed for input {index} "
                            f"(engine seed {inputs[index].argv[-1]})")
        errors = sorted({(i, o.error) for i, o in records if o.error})
        for index, error in errors:
            problems.append(f"input {index}: {error}")
        first = {}
        for index, outcome in records:
            first.setdefault(index, outcome)
        if first:
            bound = statistics.fmean(
                _factor_bound(inputs[index]) for index in first)
            problem = rate_problem(
                "incomplete factorizations",
                sum(not o.ok for o in first.values()), len(first), bound)
            if problem:
                problems.append(problem)
        return problems


def _factor_bound(inp: FactorInput) -> float:
    bits = int(inp.argv[inp.argv.index("--N") + 1]).bit_length()
    return engine.theoretical_failure_bound(
        len(inp.truth), bits, 1, engine.default_iteration_cap(bits))


EXACT_CELLS = [(n, e_max) for n in (2, 3, 5) for e_max in (1, 2)]

WORKLOADS = {w.name: w for w in (
    CellWorkload(
        "exact-16",
        "desk-scale exact-order trials, one per (n, e_max) cell; primality "
        "in instance generation and certification dominates",
        l=16, cells=EXACT_CELLS, order_mode="exact", pool=1000),
    CellWorkload(
        "sim-64",
        "simulate-mode trials at l=64, n=3; the simulator's per-prime trial "
        "division dominates, primality is a minority",
        l=64, cells=[(3, 1)], order_mode="simulate", pool=2000),
    FactorWorkload(
        "factor-2048",
        "the CLI factoring 2048-bit moduli: one split, then certification "
        "of two 1024-bit primes; no oracle work in an op",
        l=1024, n=2, e_max=1, instances=2, engine_seeds=4),
    FactorWorkload(
        "factor-many",
        "the CLI on ~1,040-bit N with eight prime powers: many splits, so "
        "perfect-power reduction and factor-set refinement carry the work",
        l=64, n=8, e_max=3, instances=64, engine_seeds=1),
)}
