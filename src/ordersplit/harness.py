"""Monte-Carlo experiment harness.

Runs seeded grids over (prime bit length, number of primes, max exponent),
factoring every generated instance from a single (exact or simulated) order
and comparing the empirical complete-factorization failure rate per cell
against the theoretical bound. Reports are deterministic for a fixed seed:
every trial owns a private random stream derived by hashing
(seed, cell, trial), so cells can be run independently or in parallel
without changing any number.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import logging
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from ordersplit.engine import (
    RecoveryResult,
    default_iteration_cap,
    recover_factors,
    shor_split,
    theoretical_failure_bound,
)
from ordersplit.ntcore import MAX_SIEVE_BOUND
from ordersplit.oracle import (
    InfeasibleParametersError,
    Instance,
    OrderResult,
    check_exact_order_bits,
    exact_order,
    generate_instance,
    sample_unit,
    simulate_order,
)

__all__ = [
    "ExperimentConfig",
    "CellReport",
    "Trial",
    "run_cell",
    "shor_baseline_splits",
    "run_grid",
    "cell_passes",
    "write_csv",
    "write_json",
    "CSV_COLUMNS",
]

logger = logging.getLogger(__name__)

CSV_COLUMNS = [
    "l", "n", "e_max", "c", "k_policy", "B_s", "trials", "successes",
    "failure_rate", "theoretical_bound", "mean_iterations",
    "mean_gcd_calls", "unlucky_events_observed", "wall_time_s",
]
# the CellReport fields of the CSV columns named otherwise
_CSV_FIELDS = {"successes": "complete_successes",
               "failure_rate": "empirical_failure_rate",
               "wall_time_s": "wall_time_seconds"}


_GRID_FIELDS = ("l_values", "n_values", "emax_values")


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition plus the shared algorithm parameters."""

    l_values: tuple[int, ...]
    n_values: tuple[int, ...]
    emax_values: tuple[int, ...]
    c: int = 1
    k: int | None = None  # None: run to completion under the engine's cap
    B_s: int = 10**6
    trials_per_cell: int = 200
    seed: int = 0
    order_mode: str = "simulate"  # "exact" | "simulate"

    def __post_init__(self):
        for key in _GRID_FIELDS:
            if isinstance(getattr(self, key), list):
                object.__setattr__(self, key, tuple(getattr(self, key)))
            values = getattr(self, key)
            if not isinstance(values, tuple) or not all(map(_is_int, values)):
                raise ValueError(f"{key} must be a list of integers, "
                                 f"got {values!r}")
        for key in ("c", "k", "B_s", "trials_per_cell", "seed"):
            value = getattr(self, key)
            if not (_is_int(value) or key == "k" and value is None):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if self.trials_per_cell < 1:
            raise ValueError("trials_per_cell must be >= 1")
        if self.c < 1:
            raise ValueError("c must be >= 1")
        # no N in the grid is longer than l * n * e_max bits; an empty or
        # negative grid list runs no trial
        m_prime = self.c * math.prod(max((0, *getattr(self, key)))
                                     for key in _GRID_FIELDS)
        if m_prime > MAX_SIEVE_BOUND:
            raise ValueError(
                f"c={self.c} is too large: the smoothness bound c * max(l) "
                f"* max(n) * max(e_max) = {m_prime} exceeds {MAX_SIEVE_BOUND}")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1 when fixed")
        if not 2 <= self.B_s <= MAX_SIEVE_BOUND:
            raise ValueError(f"B_s must be in [2, {MAX_SIEVE_BOUND}], "
                             f"got {self.B_s}")
        if self.order_mode not in ("exact", "simulate"):
            raise ValueError("order_mode must be 'exact' or 'simulate'")

    @property
    def k_policy(self) -> str:
        return "auto" if self.k is None else str(self.k)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object, "
                             f"got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        return cls(**data)


@dataclass(frozen=True, slots=True)
class CellReport:
    """Aggregated results for one grid cell."""

    l: int
    n: int
    e_max: int
    c: int
    k_policy: str
    B_s: int
    trials: int
    complete_successes: int
    mean_iterations: float
    mean_gcd_calls: float
    empirical_failure_rate: float
    theoretical_bound: float
    unlucky_events_observed: int
    wall_time_seconds: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_row(self) -> dict:
        return {col: getattr(self, _CSV_FIELDS.get(col, col))
                for col in CSV_COLUMNS}


def _trial_rng(seed: int, cell, trial: int) -> random.Random:
    """Private stream for one trial: SHA-256 over (seed, cell, trial)."""
    tag = "|".join(str(part) for part in (seed, *cell, trial))
    digest = hashlib.sha256(tag.encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


@dataclass(frozen=True, slots=True)
class Trial:
    """One seeded trial of a cell, its ground-truth verdict, and how many
    instance primes p have p - 1 not dividing the grown exponent r'."""

    cell: tuple[int, int, int]
    trial: int
    instance: Instance
    order: OrderResult
    result: RecoveryResult
    verified: bool
    missed_primes: int


def _run_trial(cell: tuple[int, int, int], config: ExperimentConfig,
               trial: int) -> Trial:
    """Trial number ``trial`` of cell (l, n, e_max), from its own stream.

    A claimed factorization is verified against the instance: the engine's
    own completeness flag is never trusted alone.
    """
    rng = _trial_rng(config.seed, cell, trial)
    instance = generate_instance(*cell, rng)
    if config.order_mode == "exact":
        g = sample_unit(instance.modulus, rng, exclude_one=True)
        order = exact_order(instance, g)
    else:
        order = simulate_order(instance, config.B_s, rng)
    result = recover_factors(instance.modulus, order.order,
                             c=config.c, k=config.k, rng=rng)
    expected = tuple(sorted(zip(instance.primes, instance.exponents)))
    verified = (result.complete and result.factorization.pairs == expected
                and result.factorization.product() == instance.modulus)
    missed = sum(result.guess.r_prime % (p - 1) != 0 for p in instance.primes)
    return Trial(cell, trial, instance, order, result, verified, missed)


def run_cell(l: int, n: int, e_max: int, config: ExperimentConfig,
             on_failure: Callable[[Trial], object] | None = None
             ) -> CellReport:
    """Run trials_per_cell seeded trials for one (l, n, e_max) cell.

    Each trial generates an instance, obtains an order for a random unit
    (exactly, or heuristically with bound B_s), runs the recovery engine
    and verifies the outcome (``_run_trial``), then adds it to the sums.
    Failed trials are logged together with the number of instance primes
    whose p - 1 the grown exponent missed, and passed to ``on_failure``
    when given; ``_run_trial(t.cell, config, t.trial)`` replays one.
    """
    start = time.perf_counter()
    if config.order_mode == "exact":
        check_exact_order_bits(l)
    successes = unlucky_events = sum_iterations = sum_gcd_calls = 0
    sum_bits, min_bits = 0, math.inf
    # under a fixed k a failure is the quantity being measured; under
    # run-to-complete it is an anomaly worth surfacing
    level = logging.DEBUG if config.k is not None else logging.WARNING
    for trial in range(config.trials_per_cell):
        t = _run_trial((l, n, e_max), config, trial)
        successes += t.verified
        unlucky_events += t.missed_primes >= 2
        sum_iterations += t.result.iterations
        sum_gcd_calls += t.result.gcd_calls
        sum_bits += t.instance.bit_length
        min_bits = min(min_bits, t.instance.bit_length)
        if not t.verified:
            logger.log(
                level,
                "trial %d failed for N=%d (primes with p-1 not dividing "
                "r': %d, iterations: %d)", trial, t.instance.modulus,
                t.missed_primes, t.result.iterations)
            if on_failure is not None:
                on_failure(t)
    trials = config.trials_per_cell
    # in auto mode, the smallest cap any trial of the cell ran under
    bound_k = config.k or default_iteration_cap(min_bits)
    bound = theoretical_failure_bound(n, sum_bits / trials, config.c, bound_k)
    return CellReport(
        l=l, n=n, e_max=e_max, c=config.c, k_policy=config.k_policy,
        B_s=config.B_s, trials=trials, complete_successes=successes,
        mean_iterations=sum_iterations / trials,
        mean_gcd_calls=sum_gcd_calls / trials,
        empirical_failure_rate=1.0 - successes / trials,
        theoretical_bound=bound,
        unlucky_events_observed=unlucky_events,
        wall_time_seconds=time.perf_counter() - start,
    )


def shor_baseline_splits(l: int, trials: int, seed: int) -> int:
    """Classic even-order split on random squarefree semiprimes.

    Per trial: draw two distinct l-bit primes, a uniform unit g, compute
    the exact order and attempt gcd(g^(r/2) +- 1, N). Returns how many of
    the trials split N nontrivially.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_exact_order_bits(l)
    splits = 0
    for trial in range(trials):
        rng = _trial_rng(seed, ("shor-baseline", l), trial)
        instance = generate_instance(l, 2, 1, rng)
        g = sample_unit(instance.modulus, rng)
        order = exact_order(instance, g).order
        splits += shor_split(instance.modulus, g, order).factors is not None
    return splits


def cell_passes(report: CellReport) -> bool:
    """One-sided check: failure rate within bound plus 3-sigma binomial slack."""
    b = min(report.theoretical_bound, 1.0)
    slack = 3.0 * math.sqrt(b * (1.0 - b) / report.trials)
    return report.empirical_failure_rate <= report.theoretical_bound + slack


def run_grid(config: ExperimentConfig) -> tuple[list[CellReport], list[dict]]:
    """Run every (l, n, e_max) combination; infeasible cells are skipped.

    Returns the cell reports in grid order and, for each skipped cell, its
    (l, n, e_max) and the reason.
    """
    reports: list[CellReport] = []
    skipped: list[dict] = []
    for l in config.l_values:
        for n in config.n_values:
            for e_max in config.emax_values:
                try:
                    reports.append(run_cell(l, n, e_max, config))
                except InfeasibleParametersError as exc:
                    logger.warning("skipping cell (l=%d, n=%d, e_max=%d): %s",
                                   l, n, e_max, exc)
                    skipped.append(
                        {"l": l, "n": n, "e_max": e_max, "reason": str(exc)})
    return reports, skipped


def write_csv(reports: Sequence[CellReport], path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for report in reports:
            writer.writerow(report.to_row())


def write_json(reports: Sequence[CellReport], path) -> None:
    with open(path, "w") as handle:
        json.dump([report.to_dict() for report in reports], handle, indent=2)
        handle.write("\n")
