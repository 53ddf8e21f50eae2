"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with its
runtime (run pytest with -s or -rA to see them). Criterion 8 is the
long-mode scale check and only runs when ORDERSPLIT_LONG=1 is set.
"""

import math
import os
import random
import time

import pytest

from conftest import smallest_prime_factors, spf_factorize
from ordersplit.engine import (
    choose_k,
    guess_multiple,
    recover_factors,
    theoretical_failure_bound,
)
from ordersplit.harness import (
    ExperimentConfig,
    run_cell,
    shor_baseline_splits,
)
from ordersplit.ntcore import eta, multiplicative_order, primes_up_to
from ordersplit.oracle import (
    _factor_completely,
    exact_order,
    generate_instance,
    sample_unit,
    simulate_order,
)

SEED = 20260809


def _announce(num: int, ok: bool, seconds: float, detail: str):
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'} "
          f"({seconds:.1f}s) {detail}")


def test_criterion_1_complete_factorization_rate():
    """l=16, n in {2,3,5}, e_max in {1,2}, exact oracle, run-to-complete:
    every one of 1002 seeded trials must factor completely; any failure has
    to be traceable to >= 2 primes missed by the grown exponent."""
    start = time.perf_counter()
    failures = []
    total = 0
    successes = 0
    for n in (2, 3, 5):
        for e_max in (1, 2):
            config = ExperimentConfig(
                l_values=(16,), n_values=(n,), emax_values=(e_max,),
                c=1, k=None, trials_per_cell=167, seed=SEED,
                order_mode="exact")
            report = run_cell(16, n, e_max, config,
                              on_failure=failures.append)
            total += report.trials
            successes += report.complete_successes
    for trial in failures:
        # the only sanctioned failure mode: two or more primes whose p-1
        # the grown exponent does not cover
        print(f"  failure trace: N={trial.instance.modulus} "
              f"missed_primes={trial.missed_primes}")
        assert trial.missed_primes >= 2, trial
    elapsed = time.perf_counter() - start
    ok = successes == total and total >= 1000
    _announce(1, ok, elapsed,
              f"complete factorization {successes}/{total} trials")
    assert total >= 1000
    assert successes == total, f"{total - successes} trials incomplete"


def test_criterion_2_failure_bound_envelope():
    """Fixed k=1, n=2, l=16, 10^4 trials: empirical failure rate must stay
    under the theoretical bound plus 3-sigma binomial slack."""
    start = time.perf_counter()
    config = ExperimentConfig(
        l_values=(16,), n_values=(2,), emax_values=(1,),
        c=1, k=1, trials_per_cell=10_000, seed=SEED + 1, order_mode="exact")
    report = run_cell(16, 2, 1, config)
    bound = report.theoretical_bound
    b = min(bound, 1.0)
    slack = 3.0 * math.sqrt(b * (1.0 - b) / report.trials)
    elapsed = time.perf_counter() - start
    ok = report.empirical_failure_rate <= bound + slack
    _announce(2, ok, elapsed,
              f"failure rate {report.empirical_failure_rate:.4f} <= "
              f"bound {bound:.4f} + slack {slack:.4f}")
    assert ok


def test_criterion_3_shor_baseline():
    """Classic even-order split on 10^4 random 16-bit-prime semiprimes:
    nontrivial split fraction >= 1/2 - 3 sigma, and >= 3/4 - 3 sigma."""
    start = time.perf_counter()
    trials = 10_000
    fraction = shor_baseline_splits(16, trials, seed=SEED + 2) / trials
    sigma_half = math.sqrt(0.5 * 0.5 / trials)
    sigma_three_quarters = math.sqrt(0.75 * 0.25 / trials)
    elapsed = time.perf_counter() - start
    ok = (fraction >= 0.5 - 3 * sigma_half
          and fraction >= 0.75 - 3 * sigma_three_quarters)
    _announce(3, ok, elapsed, f"split fraction {fraction:.4f} "
              f"(thresholds {0.5 - 3 * sigma_half:.4f}, "
              f"{0.75 - 3 * sigma_three_quarters:.4f})")
    assert ok


def test_criterion_4_oracle_equivalence_small():
    """Every odd composite N < 10^5: when recovery reports complete, its
    factorization must equal trial division exactly."""
    start = time.perf_counter()
    limit = 10**5
    spf = smallest_prime_factors(limit)
    rng = random.Random(SEED + 3)
    checked = 0
    incomplete = 0
    for n in range(9, limit, 2):
        if spf[n] == n:
            continue  # prime
        ground = spf_factorize(n, spf)
        g = sample_unit(n, rng)
        phi = 1
        for p, e in ground.items():
            phi *= p ** (e - 1) * (p - 1)
        r = multiplicative_order(g, n, sorted(spf_factorize(phi, spf).items()))
        result = recover_factors(n, r, c=1, rng=rng)
        if result.complete:
            assert result.factorization.pairs == tuple(sorted(ground.items())), n
        else:
            incomplete += 1
        checked += 1
    elapsed = time.perf_counter() - start
    _announce(4, True, elapsed,
              f"{checked} odd composites, every complete result exact "
              f"({incomplete} incomplete)")
    assert checked > 40000


def test_criterion_5_grown_exponent_bit_bound():
    """bitlen(r') <= bitlen(r) + sum over primes q <= c*m of
    eta(q, c*m) * ceil(log2 q), exactly, for 1000 random (r, m, c)."""
    start = time.perf_counter()
    rng = random.Random(SEED + 4)
    for _ in range(1000):
        m = rng.randrange(2, 4097)
        c = rng.randrange(1, 5)
        r = rng.randrange(1, 1 << m)
        guess = guess_multiple(r, m, c)
        allowance = sum(eta(q, guess.m_prime) * (q - 1).bit_length()
                        for q in primes_up_to(guess.m_prime))
        assert guess.r_prime.bit_length() <= r.bit_length() + allowance, \
            (r, m, c)
        assert guess.r_prime % r == 0
    elapsed = time.perf_counter() - start
    _announce(5, True, elapsed, "1000 random (r, m, c) draws within the "
                                "bit-length allowance")


def test_criterion_6_simulator_fidelity():
    """l=16, B_s=10^4, 10^4 trials: the heuristic order equals the exact
    order >= 99% of the time, and every mismatch is a proper multiple whose
    quotient factors entirely above B_s."""
    start = time.perf_counter()
    trials = 10_000
    bound = 10**4
    agree = 0
    mismatches = 0
    for trial in range(trials):
        rng = random.Random((SEED + 5) * 10**6 + trial)
        inst = generate_instance(16, 2, 1, rng)
        sim = simulate_order(inst, bound, rng)
        true = exact_order(inst, sim.element).order
        if sim.order == true:
            agree += 1
        else:
            mismatches += 1
            assert sim.order % true == 0, (inst, sim.order, true)
            quotient = sim.order // true
            assert quotient > 1
            for f in _factor_completely(quotient):
                assert f > bound, (quotient, f)
    elapsed = time.perf_counter() - start
    rate = agree / trials
    ok = rate >= 0.99
    _announce(6, ok, elapsed, f"agreement {rate:.4f} "
              f"({mismatches} mismatches, all rough multiples)")
    assert ok


def test_criterion_7_choose_k_guarantee():
    """2^-choose_k(n, tau) * n(n-1)/2 <= n^-tau for all n in [2,100],
    tau in [1,4], verified in exact integer arithmetic."""
    start = time.perf_counter()
    for n in range(2, 101):
        for tau in range(1, 5):
            k = choose_k(n, tau)
            assert n * (n - 1) * n**tau <= 2 ** (k + 1), (n, tau, k)
    elapsed = time.perf_counter() - start
    _announce(7, True, elapsed, "iteration rule holds for n in [2,100], "
                                "tau in [1,4]")


@pytest.mark.skipif(os.environ.get("ORDERSPLIT_LONG") != "1",
                    reason="long-mode scale check; set ORDERSPLIT_LONG=1")
def test_criterion_8_long_mode_scale():
    """One 2048-bit modulus (two 1024-bit primes) factored from a simulated
    order; must finish within minutes."""
    start = time.perf_counter()
    rng = random.Random(SEED + 6)
    inst = generate_instance(1024, 2, 1, rng)
    sim = simulate_order(inst, 10**6, rng)
    result = recover_factors(inst.modulus, sim.order, c=1, rng=rng)
    elapsed = time.perf_counter() - start
    ok = (result.complete
          and result.factorization.pairs
          == tuple(sorted(zip(inst.primes, inst.exponents))))
    _announce(8, ok, elapsed,
              f"2048-bit modulus ({inst.bit_length} bits) factored in "
              f"{result.iterations} iterations")
    assert ok
    assert elapsed < 900, "should complete within minutes"
