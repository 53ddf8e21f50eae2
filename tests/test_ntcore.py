import bisect
import math
import os
import random

import pytest

from conftest import brute_force_order, naive_sieve
from ordersplit import ntcore
from ordersplit.ntcore import (
    _CHUNK,
    MAX_SIEVE_BOUND,
    _prime_chunks,
    _sieve,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    eta,
    integer_nth_root,
    is_probable_prime,
    multiplicative_order,
    perfect_power_reduce,
    primes_up_to,
    smooth_part,
)


class TestPrimesUpTo:
    def test_small(self):
        assert primes_up_to(10) == (2, 3, 5, 7)
        assert primes_up_to(1) == ()
        assert primes_up_to(0) == ()
        assert primes_up_to(2) == (2,)

    def test_hundred_has_25(self):
        assert len(primes_up_to(100)) == 25

    def test_agrees_with_trial_division(self):
        assert primes_up_to(10**5) == tuple(naive_sieve(10**5))

    def test_negative_bound(self):
        with pytest.raises(ValueError):
            primes_up_to(-1)

    def test_bound_above_the_limit(self, refuse_large_sieves):
        for bound in (MAX_SIEVE_BOUND + 1, 10**12):
            with pytest.raises(ValueError, match="at most"):
                primes_up_to(bound)


@pytest.fixture(scope="module")
def trial_division_primes():
    """The primes <= 1009^2 + 1, the largest bound TestSieve checks."""
    return naive_sieve(1009**2 + 1)


class TestSieve:
    """The odd-only sieve against trial division, at every small bound and
    at the bounds where the sieve's arithmetic changes."""

    def test_every_bound_to_3000_and_edge_bounds(self, trial_division_primes):
        squares = [p * p + d for p in (997, 1009) for d in (-1, 0, 1)]
        edges = (65535, 65536, 999983, 10**6, 10**6 + 1, *squares)
        for b in (*range(3001), *edges):
            expected = trial_division_primes[:bisect.bisect_right(
                trial_division_primes, b)]
            assert _sieve(b) == tuple(expected), b

    def test_prime_chunks_at_1e6(self, trial_division_primes):
        reference = trial_division_primes[:bisect.bisect_right(
            trial_division_primes, 10**6)]
        assert _prime_chunks(10**6) == tuple(
            (i, math.prod(reference[i:i + _CHUNK]))
            for i in range(0, len(reference), _CHUNK))

    @pytest.mark.skipif(os.environ.get("ORDERSPLIT_LONG") != "1",
                        reason="long-mode sieve to 10^8; set ORDERSPLIT_LONG=1")
    def test_sieve_at_the_limit_long_mode(self):
        try:
            primes = _sieve(MAX_SIEVE_BOUND)
            assert len(primes) == 5761455  # pi(10^8)
            assert primes[-1] == 99999989
        finally:
            _sieve.cache_clear()


def _smooth_part_by_trial_division(n, bound):
    exponents = {}
    for p in primes_up_to(bound):
        while n % p == 0:
            n //= p
            exponents[p] = exponents.get(p, 0) + 1
    return exponents, n


def _check_smooth_part(n, bound):
    """smooth_part(n, bound) against trial division, and n = m * prod p^e
    with no prime <= bound dividing the cofactor m."""
    exponents, cofactor = smooth_part(n, bound)
    assert (exponents, cofactor) == _smooth_part_by_trial_division(n, bound)
    assert list(exponents) == sorted(exponents)
    assert cofactor * math.prod(p**e for p, e in exponents.items()) == n
    assert all(cofactor % p for p in primes_up_to(bound))
    return exponents


class TestSmallPrimeDivisors:
    """smooth_part: the small prime divisors of n with their exponents,
    and the cofactor they leave."""

    def test_one_has_none(self):
        for bound in (0, 1, 2, 10**4):
            assert smooth_part(1, bound) == ({}, 1)

    def test_bound_above_the_limit(self, refuse_large_sieves):
        for bound in (MAX_SIEVE_BOUND + 1, 10**12):
            with pytest.raises(ValueError, match="at most"):
                smooth_part(10**20 + 39, bound)

    def test_bound_below_two(self):
        for bound in (-1, 0, 1):
            for n in (2 * 3 * 5, 2**3 * 3**2 * 5):
                assert smooth_part(n, bound) == ({}, n)

    def test_prime_at_and_just_above_bound(self):
        # 9973 is the largest prime below 10^4; past the first chunk it is
        # only found as the leftover once the sweep stops
        for n, p in ((7 * 2**5, 7), (2 * 9973, 9973), (3**4 * 9973, 9973)):
            assert p in _check_smooth_part(n, p)
            assert p not in _check_smooth_part(n, p - 1)

    def test_square_of_a_chunks_first_prime(self):
        # after the first chunk exactly q^2 is left, so the sweep must go on
        q = primes_up_to(10**4)[_CHUNK]
        assert smooth_part(2 * q * q, 10**4) == ({2: 1, q: 2}, 1)

    def test_two_primes_between_1e3_and_1e6(self):
        rng = random.Random(21)
        primes = [p for p in primes_up_to(10**6) if p > 10**3]
        for _ in range(6):  # each new bound sieves afresh
            p, q = sorted(rng.sample(primes, 2))
            n = p * q * rng.randrange(1, 10**3)
            for bound in (10**3, p - 1, p, q - 1, q, 10**6):
                _check_smooth_part(n, bound)

    def test_random_inputs_match_trial_division(self):
        rng = random.Random(22)
        for _ in range(300):
            n = rng.randrange(1, 10**9)
            bound = rng.randrange(0, 5000)
            _check_smooth_part(n, bound)

    def test_1024_bit_inputs(self):
        rng = random.Random(23)
        small = primes_up_to(10**6)
        for _ in range(4):
            n = rng.getrandbits(1024) | (1 << 1023)
            n *= math.prod(rng.sample(small, 5))
            _check_smooth_part(n, 10**6)

    def test_sweep_stops_at_a_prime_below_psi_13(self, monkeypatch):
        # what is left is tested only from the fifth chunk on, so only past
        # primes[4 * _CHUNK]^2 ~ 6.7e7: above a bound of 10^6, every prime
        # that stops the sweep lies outside the bound
        primes = primes_up_to(10**6)
        late = primes[5 * _CHUNK]  # in a chunk swept after the first test
        big = next(z for z in range(10**12 + 1, 10**13, 2)
                   if is_probable_prime(z))
        tested = []

        def recording(z):
            tested.append((z, is_probable_prime(z)))
            return tested[-1][1]

        monkeypatch.setattr(ntcore, "is_probable_prime", recording)
        cases = (
            (2 * 3 * big, [big]),          # a prime in (bound, psi_13) left
            (3 * late * big, [big]),       # ... once late splits off
            (7 * late * primes[-1] * big, []),  # composite to the last chunk
            (2 * 5**3 * late, []),         # the p^2 > rem stop comes first
            (7 * (2**89 - 1), []),         # a prime >= psi_13 is not tested
        )
        for n, stops in cases:
            tested.clear()
            _check_smooth_part(n, 10**6)
            assert [z for z, prime in tested if prime] == stops, n
            assert all(z < PSI_13 for z, _ in tested)

    def test_domain(self):
        with pytest.raises(ValueError):
            smooth_part(0, 10)


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


PSI_13 = 3317044064679887385961981  # strong pseudoprime to all bases <= 41
# psi_k, the smallest strong pseudoprime to the first k primes (A014233)
PSI_1_TO_13 = (2047, 1373653, 25326001, 3215031751, 2152302898747,
               3474749660383, 341550071728321, 341550071728321,
               3825123056546413051, 3825123056546413051,
               3825123056546413051, 318665857834031151167461, PSI_13)
BASES_UP_TO_41 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _by_all_13_bases(z):
    """Primality below PSI_13 by strong tests to all 13 bases <= 41."""
    if z < 2:
        return False
    for p in BASES_UP_TO_41:
        if z % p == 0:
            return z == p
    return all(_strong_probable_prime(z, a) for a in BASES_UP_TO_41)


class TestIsProbablePrime:
    def test_edges(self):
        assert not is_probable_prime(0)
        assert not is_probable_prime(1)
        assert is_probable_prime(2)
        assert is_probable_prime(3)
        assert not is_probable_prime(4)

    def test_carmichael_number_is_rejected(self):
        for z in (561, 1105, 1729):  # 3*11*17, 5*13*17, 7*13*19
            assert not is_probable_prime(z), z

    def test_thousandth_prime(self):
        assert is_probable_prime(7919)

    def test_agrees_with_sieve_below_1e6(self):
        sieve = _sieve(10**6)
        primes = set(sieve)
        assert len(sieve) == 78498
        for z in range(10**6):
            assert is_probable_prime(z) == (z in primes), z

    def test_strong_pseudoprimes_are_rejected(self):
        # to base 2; then strong Lucas pseudoprimes (Selfridge parameters)
        for z in (2047, 3215031751, 3825123056546413051,
                  5459, 5777, 10877, 16109, 18971):
            assert not is_probable_prime(z), z

    def test_every_psi_k_is_rejected(self):
        # psi_k fools the first k prime bases, so it needs base k + 1
        for z in PSI_1_TO_13:
            assert not is_probable_prime(z), z

    def test_fewer_bases_agree_with_all_13(self):
        rng = random.Random(14)
        near_psi = {z for psi in PSI_1_TO_13
                    for z in range(psi - 1000 | 1, psi + 1000, 2)}
        bits = (rng.randrange(2, PSI_13.bit_length()) for _ in range(12000))
        odd = {rng.getrandbits(b) | 1 for b in bits}
        candidates = sorted(z for z in near_psi | odd if z < PSI_13)
        assert len(candidates) >= 20000
        for z in candidates:
            assert is_probable_prime(z) == _by_all_13_bases(z), z

    def test_psi_12_and_psi_13_are_rejected(self):
        # psi_12 fools the bases up to 37 and falls to 41; psi_13 fools all
        # 13 bases, so only the Baillie-PSW branch can reject it
        assert not is_probable_prime(318665857834031151167461)
        assert all(_strong_probable_prime(PSI_13, a)
                   for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
        assert not is_probable_prime(PSI_13)

    def test_mersenne_primes_and_a_prime_square(self):
        for e in (89, 127, 521):
            assert is_probable_prime(2**e - 1), e
        assert not is_probable_prime((2**89 - 1) ** 2)

    def test_strong_lucas_test_passes_exactly_primes_and_its_pseudoprimes(self):
        # the first strong Lucas pseudoprimes (OEIS A217255) pass it, and
        # every prime does: this pins the Lucas half of Baillie-PSW
        pseudoprimes = {5459, 5777, 10877, 16109, 18971}
        primes = set(_sieve(20000))
        for z in range(43, 20000, 2):
            if math.isqrt(z) ** 2 == z:
                continue
            expected = z in primes or z in pseudoprimes
            assert _strong_lucas_probable_prime(z) == expected, z

    def test_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(12)
        for _ in range(300):
            bits = rng.randrange(64, 2049)
            z = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            assert is_probable_prime(z) == sympy.isprime(z), z
        # products of two primes of equal size, on both sides of PSI_13
        for bits in (32, 40, 41, 42, 64, 128, 512, 1024):
            p, q = (sympy.nextprime(rng.getrandbits(bits) | (1 << (bits - 1)))
                    for _ in range(2))
            assert is_probable_prime(p) and is_probable_prime(q)
            assert is_probable_prime(p * q) == sympy.isprime(p * q), (p, q)


PSI_4 = PSI_1_TO_13[3]


def _uv_strong_lucas_reference(n):
    """The strong Lucas test with Selfridge's parameters, computed the
    textbook way: U_k, V_k and Q^k per bit of d, where n + 1 = 2^s d."""
    D = 5
    while (j := ntcore._jacobi(D, n)) != -1:
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    m = n + 1
    s = (m & -m).bit_length() - 1
    d = m >> s
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U & 1 else U) // 2 % n
            V = (V + n if V & 1 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _next_prime(z):
    while not is_probable_prime(z):
        z += 1
    return z


def _p_times_2p_minus_1_pseudoprimes(bound):
    """p(2p - 1) in [psi_4, 2^64) for primes p < bound with 2p - 1 prime
    that are strong pseudoprimes to base 2."""
    primes = primes_up_to(2 * bound)
    prime_set = set(primes)
    found = []
    for p in primes[:bisect.bisect_left(primes, bound)]:
        z = p * (2 * p - 1)
        if (2 * p - 1 in prime_set and PSI_4 <= z < 1 << 64
                and _strong_probable_prime(z, 2)):
            found.append(z)
    return found


class TestBailliePSWBelow2To64:
    """Baillie-PSW decides [psi_4, 2^64); its Lucas half is a V-only ladder."""

    def test_ladder_matches_reference_on_small_odd_non_squares(self):
        for z in range(43, 2 * 10**5, 2):
            if math.isqrt(z) ** 2 == z:
                continue
            assert (_strong_lucas_probable_prime(z)
                    == _uv_strong_lucas_reference(z)), z

    def test_ladder_matches_reference_on_random_odd_z(self):
        rng = random.Random(16)
        for _ in range(300):
            bits = round(2 ** rng.uniform(6, 11))  # log-uniform, 64 to 2048
            z = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            assert (_strong_lucas_probable_prime(z)
                    == _uv_strong_lucas_reference(z)), z

    def test_ladder_matches_reference_on_semiprimes(self):
        rng = random.Random(17)
        for bits in (32, 48, 64, 128, 256, 512, 1024):
            p, q = (_next_prime(rng.getrandbits(bits) | (1 << (bits - 1)))
                    for _ in range(2))
            assert _strong_lucas_probable_prime(p), p
            assert _strong_lucas_probable_prime(q), q
            assert (_strong_lucas_probable_prime(p * q)
                    == _uv_strong_lucas_reference(p * q)), (p, q)

    def test_chernick_strong_pseudoprimes_are_rejected(self):
        # (6k+1)(12k+1)(18k+1) with three prime factors is a Carmichael
        # number; those that are strong pseudoprimes to base 2 fall only to
        # the Lucas half
        found = []
        k = 1
        while (z := (6 * k + 1) * (12 * k + 1) * (18 * k + 1)) < 1 << 64:
            if (z >= PSI_4 and all(is_probable_prime(i * k + 1)
                                   for i in (6, 12, 18))
                    and _strong_probable_prime(z, 2)):
                found.append(z)
            k += 1
        assert len(found) == 251 and found[0] == 27278026129
        for z in found:
            assert math.gcd(z, math.prod(BASES_UP_TO_41)) == 1, z
            assert not is_probable_prime(z), z

    def test_p_times_2p_minus_1_strong_pseudoprimes_are_rejected(self):
        found = _p_times_2p_minus_1_pseudoprimes(3 * 10**5)
        assert len(found) == 374 and found[0] == 3237992101
        for z in found:
            assert math.gcd(z, math.prod(BASES_UP_TO_41)) == 1, z
            assert not is_probable_prime(z), z

    @pytest.mark.skipif(os.environ.get("ORDERSPLIT_LONG") != "1",
                        reason="long-mode family check; set ORDERSPLIT_LONG=1")
    def test_long_mode_p_times_2p_minus_1_to_3e6(self):
        found = _p_times_2p_minus_1_pseudoprimes(3 * 10**6)
        assert len(found) == 3210
        for z in found:
            assert not is_probable_prime(z), z

    def test_agrees_with_all_13_bases_around_2_to_64(self):
        for z in range((1 << 64) - 1000, (1 << 64) + 1001):
            assert is_probable_prime(z) == _by_all_13_bases(z), z

    def test_only_psi_4_to_2_to_64_runs_the_lucas_test(self, monkeypatch):
        calls = []

        def counting(n):
            calls.append(n)
            return _uv_strong_lucas_reference(n)

        monkeypatch.setattr(ntcore, "_strong_lucas_probable_prime", counting)
        below_psi_4 = 2**31 - 1
        in_range = 2**64 - 59  # the largest 64-bit prime
        above_2_64 = 2**64 + 13  # the smallest prime above 2^64
        for z in (below_psi_4, in_range, above_2_64):
            assert _by_all_13_bases(z), z
            calls.clear()
            assert is_probable_prime(z)
            assert calls == ([z] if z == in_range else []), z


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


def _newton_only_reduce(z):
    """perfect_power_reduce without the residue sieve: an exact root for
    every prime exponent below the bit length."""
    base, exp = z, 1
    reduced = True
    while reduced:
        reduced = False
        for d in primes_up_to(base.bit_length() - 1):
            root = integer_nth_root(base, d)
            if root**d == base:
                base, exp = root, exp * d
                reduced = True
                break
    return base, exp


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
                if is_probable_prime(q):
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

    def test_agrees_with_newton_only_reference_on_random_z(self):
        rng = random.Random(14)
        for _ in range(2000):
            bits = round(2 ** rng.uniform(1, 11))  # log-uniform, 2 to 2048
            z = rng.randrange(max(2, 1 << (bits - 1)), 1 << bits)
            assert perfect_power_reduce(z) == _newton_only_reduce(z), z

    def test_agrees_with_newton_only_reference_on_powers(self):
        rng = random.Random(15)
        primes = []
        while len(primes) < 4:
            q = rng.randrange(3, 1 << 40)
            if is_probable_prime(q):
                primes.append(q)
        composites = [3 * 5, 2**3 * 7, 101 * 103 * 107, primes[0] * primes[1],
                      primes[2]**2 * primes[3]]
        for y in primes + composites:
            for k in (2, 3, 5, 6, 7, 12, 35, 101):
                assert perfect_power_reduce(y**k) == (y, k), (y, k)
                assert _newton_only_reduce(y**k) == (y, k), (y, k)
        for y in (2, 3):
            for k in range(1, 300):
                assert perfect_power_reduce(y**k) == (y, k), (y, k)

    def test_powers_divisible_by_their_sieve_primes(self):
        # 3, 5, 7 are sieve primes for d = 2; 7, 13 for d = 3; 11, 31
        # for d = 5: z = 0 modulo them must not rule the exponent out
        for y, k in ((3 * 5 * 7, 2), (7 * 13, 3), (11 * 31, 5),
                     (3 * 5 * 7 * 11, 2), (7 * 13 * 19 * 31, 3)):
            q_moduli = {q for q, _ in ntcore._power_residue_moduli(k)}
            assert any(y % q == 0 for q in q_moduli)
            assert perfect_power_reduce(y**k) == (y, k)
            assert perfect_power_reduce(y**(k * 7)) == (y, k * 7)

    def test_exponents_from_a_small_prime_multiplicity(self):
        # 3 | z with v = 1: no power; v prime: only d = v; v composite:
        # its prime divisors; no prime <= 1619 divides z: d from bitlen / 10
        y = 1621 * 1627  # no prime <= 1619 divides y
        assert ntcore._exponents_to_try(3 * y**6) == ()
        assert perfect_power_reduce(3 * y**6) == (3 * y**6, 1)
        assert ntcore._exponents_to_try(3**7 * y**7) == (7,)
        assert perfect_power_reduce(3**7 * y**7) == (3 * y, 7)
        assert perfect_power_reduce(3**14 * y**3) == (3**14 * y**3, 1)
        assert ntcore._exponents_to_try(5**12 * y**12) == (2, 3)
        assert perfect_power_reduce(5**12 * y**12) == (5 * y, 12)
        assert perfect_power_reduce(1619**30) == (1619, 30)
        for base in (1621, 1627, y):
            assert ntcore._exponents_to_try(base**3) == \
                _sieve((base**3).bit_length() // 10)
            for k in (2, 3, 4, 11, 30):
                assert perfect_power_reduce(base**k) == (base, k), (base, k)
                assert perfect_power_reduce(base**k + 2) == (base**k + 2, 1)

    def test_exponents_taken_once_per_call(self, monkeypatch):
        calls = []
        exponents_to_try = ntcore._exponents_to_try

        def spy(z):
            calls.append(z)
            return exponents_to_try(z)

        monkeypatch.setattr(ntcore, "_exponents_to_try", spy)
        for y, k in ((3, 8000), (6, 1024), (7 * 11, 40)):
            calls.clear()
            assert perfect_power_reduce(y**k) == (y, k)
            assert calls == [y**k], (y, k)

    def test_sieve_moduli_are_the_first_primes_one_mod_d(self):
        sieve = set(_sieve(10**6))
        for d in primes_up_to(2047):
            moduli = ntcore._power_residue_moduli(d)
            qs = [q for q, _ in moduli]
            assert len(qs) == 4
            assert all(q in sieve and q % d == 1 for q in qs), d
            assert [e for _, e in moduli] == [(q - 1) // d for q in qs]
            assert qs == [q for q in range(d + 1, qs[-1] + 1, d) if q in sieve]


def _multiplicity_by_division(n, p):
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


class TestMultiplicity:
    def test_matches_division_loop(self):
        cases = [(1, 3), (10, 3), (2**14000, 2), (3**8000, 3)]
        rng = random.Random(24)
        primes = primes_up_to(1619)
        for _ in range(500):
            p = rng.choice(primes)
            m = rng.randrange(1, 1 << 64)  # p may divide m too
            cases.append((p ** rng.randrange(200) * m, p))
        for n, p in cases:
            assert ntcore.multiplicity(n, p) == \
                _multiplicity_by_division(n, p), (n, p)

    def test_domain(self):
        for n, p in ((0, 3), (-9, 3), (9, 1), (9, 0)):
            with pytest.raises(ValueError):
                ntcore.multiplicity(n, p)


class TestMultiplicativeOrder:
    def test_identity(self):
        for n in (5, 9, 100, 143):
            assert multiplicative_order(1, n, [(2, 3), (3, 2)]) == 1

    def test_known_values(self):
        assert multiplicative_order(2, 15, [(2, 2)]) == 4
        assert multiplicative_order(2, 7, [(2, 1), (3, 1)]) == 3

    def test_modulus_below_two_rejected(self):
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            multiplicative_order(1, 1, [])

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
