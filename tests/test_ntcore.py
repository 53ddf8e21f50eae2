import math
import random

import pytest

from conftest import brute_force_order, naive_sieve
from ordersplit.ntcore import (
    _CHUNK,
    eta,
    integer_nth_root,
    is_probable_prime,
    multiplicative_order,
    perfect_power_reduce,
    primes_up_to,
    small_prime_divisors,
)


class TestPrimesUpTo:
    def test_small(self):
        assert primes_up_to(10) == [2, 3, 5, 7]
        assert primes_up_to(1) == []
        assert primes_up_to(0) == []
        assert primes_up_to(2) == [2]

    def test_hundred_has_25(self):
        assert len(primes_up_to(100)) == 25

    def test_agrees_with_trial_division(self):
        assert primes_up_to(10**5) == naive_sieve(10**5)

    def test_negative_bound(self):
        with pytest.raises(ValueError):
            primes_up_to(-1)


def _divisors_by_trial_division(n, bound):
    return [p for p in primes_up_to(bound) if n % p == 0]


class TestSmallPrimeDivisors:
    def test_one_has_none(self):
        for bound in (0, 1, 2, 10**4):
            assert small_prime_divisors(1, bound) == []

    def test_bound_below_two(self):
        for bound in (0, 1):
            assert small_prime_divisors(2 * 3 * 5, bound) == []

    def test_prime_at_and_just_above_bound(self):
        # 9973 is the largest prime below 10^4; past the first chunk it is
        # only found as the leftover once the sweep stops
        for n, p in ((7 * 2**5, 7), (2 * 9973, 9973), (3**4 * 9973, 9973)):
            assert small_prime_divisors(n, p) == \
                _divisors_by_trial_division(n, p)
            assert p in small_prime_divisors(n, p)
            assert p not in small_prime_divisors(n, p - 1)
            assert small_prime_divisors(n, p - 1) == \
                _divisors_by_trial_division(n, p - 1)

    def test_square_of_a_chunks_first_prime(self):
        # after the first chunk exactly q^2 is left, so the sweep must go on
        q = primes_up_to(10**4)[_CHUNK]
        assert small_prime_divisors(2 * q * q, 10**4) == [2, q]

    def test_two_primes_between_1e3_and_1e6(self):
        rng = random.Random(21)
        primes = [p for p in primes_up_to(10**6) if p > 10**3]
        for _ in range(6):  # each new bound sieves afresh
            p, q = sorted(rng.sample(primes, 2))
            n = p * q * rng.randrange(1, 10**3)
            expected = _divisors_by_trial_division(n, 10**6)
            for bound in (10**3, p - 1, p, q - 1, q, 10**6):
                assert small_prime_divisors(n, bound) == \
                    [f for f in expected if f <= bound]

    def test_random_inputs_match_trial_division(self):
        rng = random.Random(22)
        for _ in range(300):
            n = rng.randrange(1, 10**9)
            bound = rng.randrange(0, 5000)
            assert small_prime_divisors(n, bound) == \
                _divisors_by_trial_division(n, bound)

    def test_1024_bit_inputs(self):
        rng = random.Random(23)
        small = primes_up_to(10**6)
        for _ in range(4):
            n = rng.getrandbits(1024) | (1 << 1023)
            n *= math.prod(rng.sample(small, 5))
            assert small_prime_divisors(n, 10**6) == \
                _divisors_by_trial_division(n, 10**6)

    def test_domain(self):
        with pytest.raises(ValueError):
            small_prime_divisors(0, 10)


class TestEta:
    def test_known_values(self):
        assert eta(2, 100) == 6
        assert eta(7, 7) == 1
        assert eta(3, 4) == 1

    def test_bracketing_property(self):
        rng = random.Random(4)
        for _ in range(500):
            q = rng.randrange(2, 1000)
            bound = rng.randrange(q, 10**6)
            e = eta(q, bound)
            assert q**e <= bound < q ** (e + 1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            eta(2, 1)
        with pytest.raises(ValueError):
            eta(1, 10)
        with pytest.raises(ValueError):
            eta(7, 6)


class TestIsProbablePrime:
    def test_edges(self):
        rng = random.Random(5)
        assert not is_probable_prime(0, rng=rng)
        assert not is_probable_prime(1, rng=rng)
        assert is_probable_prime(2, rng=rng)
        assert is_probable_prime(3, rng=rng)
        assert not is_probable_prime(4, rng=rng)

    def test_carmichael_number_is_rejected(self):
        assert not is_probable_prime(561, rng=random.Random(6))  # 3*11*17

    def test_thousandth_prime(self):
        assert is_probable_prime(7919, rng=random.Random(7))

    def test_agrees_with_sieve_below_1e5(self):
        sieve = set(primes_up_to(10**5))
        rng = random.Random(8)
        for z in range(10**5):
            assert is_probable_prime(z, rounds=16, rng=rng) == (z in sieve), z

    def test_rounds_validation(self):
        with pytest.raises(ValueError):
            is_probable_prime(97, rounds=0)

    def test_reproducible_under_seed(self):
        a = [is_probable_prime(n, rng=random.Random(9)) for n in range(2, 50)]
        b = [is_probable_prime(n, rng=random.Random(9)) for n in range(2, 50)]
        assert a == b


class TestIntegerNthRoot:
    def test_small_exhaustive(self):
        for x in range(200):
            for n in range(1, 6):
                r = integer_nth_root(x, n)
                assert r**n <= x, (x, n)
                assert (r + 1) ** n > x, (x, n)

    def test_random_large(self):
        rng = random.Random(10)
        for _ in range(200):
            x = rng.getrandbits(rng.randrange(2, 2048))
            n = rng.randrange(1, 40)
            r = integer_nth_root(x, n)
            assert r**n <= x and (r + 1) ** n > x

    def test_exact_powers(self):
        assert integer_nth_root(10**30, 10) == 1000
        assert integer_nth_root(2**100, 2) == 2**50

    def test_domain(self):
        with pytest.raises(ValueError):
            integer_nth_root(-1, 2)
        with pytest.raises(ValueError):
            integer_nth_root(5, 0)


class TestPerfectPowerReduce:
    def test_known_values(self):
        assert perfect_power_reduce(27) == (3, 3)
        assert perfect_power_reduce(12) == (12, 1)
        assert perfect_power_reduce(1024) == (2, 10)

    def test_non_powers(self):
        assert perfect_power_reduce(2) == (2, 1)
        assert perfect_power_reduce(3) == (3, 1)
        assert perfect_power_reduce(10) == (10, 1)

    def test_nested_power(self):
        # 64 = 2^6 requires reducing through an intermediate power
        assert perfect_power_reduce(64) == (2, 6)
        assert perfect_power_reduce(6**6) == (6, 6)

    def test_random_prime_powers_recovered(self):
        rng = random.Random(11)
        primes = primes_up_to(10**4)
        for _ in range(300):
            # random prime up to 2^32 by rejection
            while True:
                q = rng.randrange(2, 1 << 32)
                if is_probable_prime(q, rng=rng):
                    break
            e = rng.randrange(1, 11)
            assert perfect_power_reduce(q**e) == (q, e), (q, e)
        # small prime bases as well
        for q in rng.sample(primes, 50):
            e = rng.randrange(1, 11)
            assert perfect_power_reduce(q**e) == (q, e)

    def test_domain(self):
        with pytest.raises(ValueError):
            perfect_power_reduce(1)
        with pytest.raises(ValueError):
            perfect_power_reduce(0)


class TestMultiplicativeOrder:
    def test_identity(self):
        for n in (5, 9, 100, 143):
            assert multiplicative_order(1, n, [(2, 3), (3, 2)]) == 1

    def test_known_values(self):
        assert multiplicative_order(2, 15, [(2, 2)]) == 4
        assert multiplicative_order(2, 7, [(2, 1), (3, 1)]) == 3

    def test_matches_brute_force(self):
        rng = random.Random(12)
        from conftest import trial_division_factorization

        for _ in range(200):
            n = rng.randrange(3, 3000)
            g = rng.randrange(1, n)
            if math.gcd(g, n) != 1:
                continue
            phi_factors = {}
            # factored multiple of the group exponent: use phi(n)
            phi = 1
            for p, e in trial_division_factorization(n).items():
                phi *= p ** (e - 1) * (p - 1)
            phi_factors = trial_division_factorization(phi)
            order = multiplicative_order(g, n, sorted(phi_factors.items()))
            assert order == brute_force_order(g, n)

    def test_order_divides_but_no_proper_divisor_works(self):
        rng = random.Random(13)
        from conftest import trial_division_factorization

        for _ in range(100):
            n = rng.randrange(3, 2000)
            g = rng.randrange(2, n)
            if math.gcd(g, n) != 1:
                continue
            phi = 1
            for p, e in trial_division_factorization(n).items():
                phi *= p ** (e - 1) * (p - 1)
            order = multiplicative_order(
                g, n, sorted(trial_division_factorization(phi).items()))
            assert pow(g, order, n) == 1
            for f in trial_division_factorization(order):
                assert pow(g, order // f, n) != 1

    def test_not_a_unit(self):
        with pytest.raises(ValueError):
            multiplicative_order(6, 15, [(2, 2)])

    def test_uncovered_order(self):
        # 2 has order 4 mod 15; a factored multiple of 3 cannot cover it
        with pytest.raises(ValueError):
            multiplicative_order(2, 15, [(3, 1)])
