import json
import math
import random

import pytest

from conftest import brute_force_order, trial_division_factorization
from ordersplit.ntcore import primes_up_to
from ordersplit.oracle import (
    InfeasibleParametersError,
    Instance,
    _crt,
    _factor_completely,
    _reduce_component_order,
    exact_order,
    generate_instance,
    sample_unit,
    simulate_order,
)


class TestInstance:
    def test_from_parts(self):
        inst = Instance.from_parts([3, 5], [1, 2])
        assert inst.modulus == 75
        assert inst.bit_length == 7

    def test_invariant_violations(self):
        with pytest.raises(ValueError):
            Instance.from_parts([3], [1])  # single prime
        with pytest.raises(ValueError):
            Instance.from_parts([3, 3], [1, 1])  # repeated prime
        with pytest.raises(ValueError):
            Instance.from_parts([2, 5], [1, 1])  # even prime
        with pytest.raises(ValueError):
            Instance.from_parts([3, 5], [0, 1])  # zero exponent
        with pytest.raises(ValueError):
            Instance((3, 5), (1, 1), 16, 5)  # wrong modulus

    def test_json_round_trip(self):
        inst = Instance.from_parts([11, 13], [2, 1])
        again = Instance.from_json(inst.to_json())
        assert again == inst
        data = json.loads(inst.to_json())
        assert data["primes"] == ["11", "13"]
        assert data["exponents"] == [2, 1]
        assert data["N"] == str(11 * 11 * 13)

    def test_json_rejects_inconsistent_modulus(self):
        with pytest.raises(ValueError):
            Instance.from_json(
                '{"primes": ["11", "13"], "exponents": [1, 1], "N": "144"}')

    def test_json_rejects_composite_prime(self):
        with pytest.raises(ValueError):
            Instance.from_json(
                '{"primes": ["9", "13"], "exponents": [1, 1], "N": "117"}')


class TestGenerateInstance:
    def test_only_two_4bit_primes(self):
        for seed in range(10):
            inst = generate_instance(4, 2, 1, random.Random(seed))
            assert set(inst.primes) == {11, 13}
            assert inst.modulus == 143

    def test_only_two_3bit_primes(self):
        inst = generate_instance(3, 2, 1, random.Random(0))
        assert set(inst.primes) == {5, 7}
        assert inst.modulus == 35

    def test_16bit_instances_satisfy_invariants(self):
        for seed in range(20):
            inst = generate_instance(16, 3, 2, random.Random(seed))
            assert 46 <= inst.bit_length <= 96
            assert inst.modulus % 2 == 1
            for p in inst.primes:
                assert p.bit_length() == 16
            assert all(1 <= e <= 2 for e in inst.exponents)
            inst.validate(random.Random(seed))

    def test_infeasible_when_not_enough_primes(self):
        with pytest.raises(InfeasibleParametersError):
            generate_instance(3, 3, 1, random.Random(0))  # only 5 and 7 exist
        with pytest.raises(InfeasibleParametersError):
            generate_instance(4, 3, 1, random.Random(0))  # only 11 and 13

    def test_parameter_validation(self):
        with pytest.raises(InfeasibleParametersError):
            generate_instance(2, 2, 1, random.Random(0))
        with pytest.raises(InfeasibleParametersError):
            generate_instance(8, 1, 1, random.Random(0))
        with pytest.raises(InfeasibleParametersError):
            generate_instance(8, 2, 0, random.Random(0))

    def test_deterministic_under_seed(self):
        a = generate_instance(16, 3, 3, random.Random(99))
        b = generate_instance(16, 3, 3, random.Random(99))
        assert a == b


class TestSampleUnit:
    def test_units_mod_15(self):
        rng = random.Random(1)
        units = {1, 2, 4, 7, 8, 11, 13, 14}
        for _ in range(200):
            assert sample_unit(15, rng) in units

    def test_never_divisible_by_3_mod_9(self):
        rng = random.Random(2)
        for _ in range(200):
            assert sample_unit(9, rng) % 3 != 0

    def test_exclude_one(self):
        rng = random.Random(3)
        for _ in range(200):
            assert sample_unit(9, rng, exclude_one=True) != 1

    def test_uniformity_5_sigma(self):
        rng = random.Random(4)
        draws = 10**5
        counts = {}
        for _ in range(draws):
            u = sample_unit(15, rng)
            counts[u] = counts.get(u, 0) + 1
        p = 1 / 8
        sigma = math.sqrt(p * (1 - p) * draws)
        for u, c in counts.items():
            assert abs(c - draws * p) <= 5 * sigma, (u, c)

    def test_factor_side_channel(self):
        rng = random.Random(5)
        seen = []
        for _ in range(300):
            sample_unit(15, rng, on_factor=seen.append)
        assert seen, "rejections must surface factors for a tiny modulus"
        assert all(d in (3, 5) for d in seen)

    def test_modulus_too_small(self):
        with pytest.raises(ValueError):
            sample_unit(2, random.Random(0))


class TestFactorCompletely:
    def test_small_numbers(self):
        rng = random.Random(6)
        for _ in range(200):
            n = rng.randrange(2, 10**6)
            assert _factor_completely(n) == trial_division_factorization(n)

    def test_large_semiprime(self):
        p, q = 1_000_003, 1_000_033
        assert _factor_completely(p * q) == {p: 1, q: 1}

    def test_prime_power(self):
        assert _factor_completely(3**20) == {3: 20}


class TestExactOrder:
    def test_known_orders(self):
        inst15 = Instance.from_parts([3, 5], [1, 1])
        assert exact_order(inst15, 2).order == 4
        assert exact_order(inst15, 14).order == 2
        inst21 = Instance.from_parts([3, 7], [1, 1])
        assert exact_order(inst21, 2).order == 6

    def test_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(50):
            inst = generate_instance(6, 2, 2, rng)
            g = sample_unit(inst.modulus, rng)
            result = exact_order(inst, g)
            assert result.exact
            assert result.order == brute_force_order(g, inst.modulus)

    def test_order_properties(self):
        rng = random.Random(8)
        for _ in range(30):
            inst = generate_instance(16, 2, 2, rng)
            g = sample_unit(inst.modulus, rng, exclude_one=True)
            r = exact_order(inst, g).order
            assert pow(g, r, inst.modulus) == 1
            for f in trial_division_factorization(r):
                assert pow(g, r // f, inst.modulus) != 1

    def test_not_a_unit(self):
        inst = Instance.from_parts([3, 5], [1, 1])
        with pytest.raises(ValueError):
            exact_order(inst, 5)


def _reduce_by_per_prime_loop(g, prime_power, phi, smooth_bound):
    """The per-prime trial-division loop _reduce_component_order replaced."""
    order = phi
    small = []
    rem = phi
    for f in primes_up_to(smooth_bound):
        if f * f > rem:
            break
        if rem % f == 0:
            small.append(f)
            while rem % f == 0:
                rem //= f
    if 1 < rem <= smooth_bound:
        small.append(rem)
    for f in small:
        while order % f == 0 and pow(g, order // f, prime_power) == 1:
            order //= f
    return order


class TestReduceComponentOrder:
    def test_matches_per_prime_loop_on_seeded_inputs(self):
        rng = random.Random(13)
        for l, n, e_max in ((12, 3, 2), (16, 2, 1), (32, 3, 2), (64, 3, 1)):
            for _ in range(4):
                inst = generate_instance(l, n, e_max, rng)
                for p, e in zip(inst.primes, inst.exponents):
                    pe = p**e
                    g = sample_unit(pe, rng)
                    phi = pe // p * (p - 1)
                    for bound in (2, 10, 1000, 10**6):
                        assert _reduce_component_order(g, pe, phi, bound) == \
                            _reduce_by_per_prime_loop(g, pe, phi, bound)

    def test_component_examples_mod_7(self):
        assert _reduce_component_order(2, 7, 6, 10) == 3
        assert _reduce_component_order(3, 7, 6, 10) == 6

    def test_reduction_stops_above_bound(self):
        # order of 3 mod 1009 divides 1008 = 2^4 * 3^2 * 7; with bound 5 the
        # factor 7 can never be stripped
        r = _reduce_component_order(3, 1009, 1008, 5)
        assert r % 7 == 0 or 1008 % 7 != 0
        true_order = brute_force_order(3, 1009)
        assert r % true_order == 0


class TestCrt:
    def test_reconstruction(self):
        rng = random.Random(9)
        for _ in range(100):
            m1, m2, m3 = 9, 25, 49
            r = [rng.randrange(m) for m in (m1, m2, m3)]
            x = _crt(r, [m1, m2, m3])
            assert x % m1 == r[0] and x % m2 == r[1] and x % m3 == r[2]
            assert 0 <= x < m1 * m2 * m3


class TestSimulateOrder:
    def test_exact_on_15_with_small_bound(self):
        # both component groups have 2-smooth orders, so the heuristic is
        # always exact here
        inst = Instance.from_parts([3, 5], [1, 1])
        for seed in range(30):
            result = simulate_order(inst, 10, random.Random(seed))
            assert not result.exact
            assert result.order == brute_force_order(result.element, 15)

    def test_element_is_unit_and_crt_consistent(self):
        rng = random.Random(10)
        for _ in range(30):
            inst = generate_instance(12, 3, 2, rng)
            result = simulate_order(inst, 100, rng)
            assert math.gcd(result.element, inst.modulus) == 1
            assert pow(result.element, result.order, inst.modulus) == 1

    def test_order_is_multiple_of_exact_with_rough_quotient(self):
        rng = random.Random(11)
        bound = 2  # starved on purpose so proper multiples actually occur
        proper_multiples = 0
        for _ in range(200):
            inst = generate_instance(14, 2, 2, rng)
            sim = simulate_order(inst, bound, rng)
            true = exact_order(inst, sim.element).order
            assert sim.order % true == 0
            quotient = sim.order // true
            if quotient > 1:
                proper_multiples += 1
            for f in trial_division_factorization(quotient):
                assert f > bound, (quotient, f)
        assert proper_multiples > 0, "starved bound must show some excess"

    def test_high_fidelity_at_modest_bound(self):
        rng = random.Random(12)
        trials, agree = 1000, 0
        for _ in range(trials):
            inst = generate_instance(16, 2, 1, rng)
            sim = simulate_order(inst, 10**4, rng)
            if sim.order == exact_order(inst, sim.element).order:
                agree += 1
        assert agree / trials >= 0.99

    def test_bound_validation(self):
        inst = Instance.from_parts([3, 5], [1, 1])
        with pytest.raises(ValueError):
            simulate_order(inst, 1, random.Random(0))
