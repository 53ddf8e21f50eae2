import copy
import json
import math
import os
import random
from collections import Counter

import pytest

from conftest import brute_force_order, trial_division_factorization
from ordersplit import oracle
from ordersplit.harness import _trial_rng
from ordersplit.ntcore import (MAX_SIEVE_BOUND, _sieve, _strong_liar,
                               _strong_probable_prime, is_probable_prime,
                               primes_up_to, smooth_part, split_two_adic)
from ordersplit.oracle import (
    InfeasibleParametersError,
    Instance,
    _factor_completely,
    _passes_strong_tests,
    _reduce_component_order,
    _skip_randrange,
    exact_order,
    generate_instance,
    sample_unit,
    simulate_order,
)


class TestInstance:
    def test_from_parts(self):
        inst = Instance([3, 5], [1, 2])
        assert (inst.primes, inst.exponents) == ((3, 5), (1, 2))
        assert inst.modulus == 75
        assert inst.bit_length == 7

    def test_invariant_violations(self):
        with pytest.raises(ValueError):
            Instance([3], [1])  # single prime
        with pytest.raises(ValueError):
            Instance([3, 3], [1, 1])  # repeated prime
        with pytest.raises(ValueError):
            Instance([2, 5], [1, 1])  # even prime
        with pytest.raises(ValueError):
            Instance([3, 5], [0, 1])  # zero exponent
        with pytest.raises(ValueError):
            Instance((3, 5, 7), (1, 1))  # unequal lengths
        with pytest.raises(TypeError):
            Instance((3, 5), (1, 1), 15)  # the modulus is computed

    def test_json_round_trip(self):
        inst = Instance([11, 13], [2, 1])
        data = json.loads(json.dumps(inst.to_json_dict()))
        assert data["primes"] == ["11", "13"]
        assert data["exponents"] == [2, 1]
        assert data["N"] == str(11 * 11 * 13)


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
            assert all(map(is_probable_prime, inst.primes))

    def test_infeasible_when_not_enough_primes(self):
        with pytest.raises(InfeasibleParametersError):
            generate_instance(3, 3, 1, random.Random(0))  # only 5 and 7 exist
        with pytest.raises(InfeasibleParametersError):
            generate_instance(4, 3, 1, random.Random(0))  # only 11 and 13

    def test_infeasible_past_twenty_bits(self):
        # one prime more than there are 21-bit primes: refused before any
        # draw, where rejection sampling would never end
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(InfeasibleParametersError, match=(
                r"only 73586 odd 21-bit primes exist, need 73587")):
            generate_instance(21, 73_587, 1, rng)
        assert rng.getstate() == state

    def test_odd_prime_count_matches_sieve(self):
        lengths = Counter(p.bit_length() for p in primes_up_to(2**21)[1:])
        for bits in range(3, 22):
            assert oracle._odd_prime_count(bits) == lengths[bits], bits
        assert oracle._odd_prime_count(21) == 73_586

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

    def test_seeded_draws_are_pinned(self):
        # Seeded instances, and the acceptance criteria's fixed seeds, rest
        # on exactly these draws; a change to how the sampler uses rng
        # fails here first.
        rng = random.Random(1)
        inst = generate_instance(16, 3, 2, rng)
        assert inst.primes == (37171, 56957, 39317)
        assert inst.exponents == (1, 1, 2)
        assert rng.random() == 0.7046056278520025
        rng = random.Random(2)
        inst = generate_instance(64, 3, 1, rng)
        assert inst.primes == (17853789038713974721, 16830325204401868543,
                               10701286004744145791)
        assert rng.random() == 0.40416338946274066
        rng = random.Random(3)
        inst = generate_instance(256, 2, 1, rng)
        assert inst.primes == (
            0xeba9d4993fef8d399c0efa1d4711f4df5dad1a184d495e412351252cbee5630f,
            0xff8b260ecf86653b890f1d8d19baabc6c374437f21ef902a734a5d84c6af1c41)
        assert rng.random() == 0.7475301207854406
        # the first trial of criterion 3 (the Shor baseline)
        rng = _trial_rng(20260809 + 2, ("shor-baseline", 16), 0)
        assert generate_instance(16, 2, 1, rng).primes == (45337, 59447)
        assert rng.random() == 0.6439323729680146

    def test_same_draws_as_the_full_test_loop(self):
        _check_same_draws(((16, 5, 2, range(500)), (64, 3, 1, range(100)),
                           (256, 2, 1, range(20)), (512, 2, 1, range(2))))

    @pytest.mark.skipif(os.environ.get("ORDERSPLIT_LONG") != "1",
                        reason="long-mode reference check; "
                               "set ORDERSPLIT_LONG=1")
    def test_same_draws_as_the_full_test_loop_long_mode(self):
        _check_same_draws(((512, 2, 1, range(3)), (1024, 2, 1, range(3))))


def _check_same_draws(cases):
    """generate_instance against _generate_by_full_tests: the same
    instance and the same rng state after it, per (l, n, e_max, seeds)."""
    for l, n, e_max, seeds in cases:
        for seed in seeds:
            rng, ref_rng = random.Random(seed), random.Random(seed)
            assert generate_instance(l, n, e_max, rng) == \
                _generate_by_full_tests(l, n, e_max, ref_rng), (l, seed)
            assert rng.getstate() == ref_rng.getstate(), (l, seed)


def _generate_by_full_tests(l, n, e_max, rng):
    """generate_instance as it was before its strong tests took shortcuts:
    every drawn base is tested in full."""
    primes = []
    while len(primes) < n:
        candidate = (1 << (l - 1)) | rng.getrandbits(l - 1) | 1
        if candidate in primes:
            continue
        if all(_strong_probable_prime(candidate,
                                      rng.randrange(2, candidate - 1))
               for _ in range(64)):
            primes.append(candidate)
    exponents = [rng.randint(1, e_max) for _ in range(n)]
    return Instance(primes, exponents)


class _ScriptedRng:
    """Returns the scripted bases from randrange and records its calls."""

    def __init__(self, bases):
        self.bases, self.calls = list(bases), []

    def randrange(self, start, stop):
        self.calls.append((start, stop))
        return self.bases.pop(0)


def _record_moduli(monkeypatch):
    """The list of moduli that oracle._strong_liar is called with, from now."""
    moduli = []

    def recording(a, d, t, n):
        moduli.append(n)
        return _strong_liar(a, d, t, n)

    monkeypatch.setattr(oracle, "_strong_liar", recording)
    return moduli


class TestPassesStrongTests:
    def test_small_factor_check_passes_and_the_full_test_runs(self,
                                                              monkeypatch):
        # 6025 = 5^2 * 241 has small-factor part s = 1205: 418 is a strong
        # liar for 6025, and 177 passes modulo 1205 and the Euler-Jacobi
        # check but is a witness for 6025. For 6241 = 79^2 (s = 79), 31 is
        # a liar and 2 such a base.
        moduli = _record_moduli(monkeypatch)
        for c, s, liar, hidden_witness in ((6025, 1205, 418, 177),
                                           (6241, 79, 31, 2)):
            moduli.clear()
            rng = _ScriptedRng([liar, hidden_witness])
            assert not _passes_strong_tests(c, rng)
            assert rng.calls == [(2, c - 1)] * 2
            assert moduli == [s, c, s, c]

    def test_a_base_failing_the_euler_jacobi_check_is_a_witness(self,
                                                               monkeypatch):
        # 10405 = 5 * 2081 (s = 5): 102 is a strong liar for 10405, and 3
        # passes modulo 5, but (3/10405) = 1 while 3^5202 = -1 (mod 5), so
        # 3 is no Euler liar and its test modulo 10405 is skipped
        moduli = _record_moduli(monkeypatch)
        rng = _ScriptedRng([102, 3])
        assert not _strong_probable_prime(10405, 3)
        assert not _passes_strong_tests(10405, rng)
        assert rng.calls == [(2, 10404)] * 2
        assert moduli == [5, 10405, 5]

    def test_the_euler_jacobi_check_keeps_every_strong_liar(self):
        # A strong liar a for c is an Euler liar, a^((c-1)/2) = (a/c)
        # (mod c) (Pomerance, Selfridge & Wagstaff 1980), so also modulo s.
        # For every odd composite c < 6000 with a proper small-factor part
        # s and every base that passes modulo s, 64 draws of that base get
        # the full test's verdict.
        passing = liars = 0
        for c in range(9, 6000, 2):
            s = math.gcd(c, oracle._SMALL_ODD_PRIMES_PRODUCT)
            if not 1 < s < c:
                continue
            t, d = split_two_adic(c - 1)
            residues = {r for r in range(s) if _strong_liar(r, d, t, s)}
            for a in range(2, c - 1):
                if a % s in residues:
                    liar = _strong_liar(a, d, t, c)
                    assert _passes_strong_tests(c, _ScriptedRng([a] * 64)) \
                        == liar, (c, a)
                    passing += 1
                    liars += liar
        assert (passing, liars) == (80692, 2032)

    def test_the_euler_jacobi_check_finds_hidden_witnesses(self, monkeypatch):
        # 32-bit composites with a proper small-factor part, one random
        # base each that passes modulo s: the check skips the full test for
        # some of them, each a witness, and lets the others through to it
        moduli = _record_moduli(monkeypatch)
        rng = random.Random(24)
        rejected = tested_in_full = 0
        while rejected + tested_in_full < 300:
            c = rng.getrandbits(32) | (1 << 31) | 1
            s = math.gcd(c, oracle._SMALL_ODD_PRIMES_PRODUCT)
            t, d = split_two_adic(c - 1)
            a = rng.randrange(2, c - 1)
            if not (1 < s < c and _strong_liar(a, d, t, s)):
                continue
            moduli.clear()
            verdict = _passes_strong_tests(c, _ScriptedRng([a] * 64))
            if moduli == [s]:
                assert not verdict and not _strong_probable_prime(c, a)
                rejected += 1
            else:
                assert moduli[:2] == [s, c]
                tested_in_full += 1
        assert rejected > 50 and tested_in_full > 50

    def test_a_base_failing_modulo_the_small_factor_is_a_witness(self):
        rng = _ScriptedRng([418, 2])  # 2 fails the test modulo 1205
        assert not _strong_probable_prime(6025, 2)
        assert not _passes_strong_tests(6025, rng)
        assert len(rng.calls) == 2

    def test_all_liars_draw_64_bases(self):
        rng = _ScriptedRng([418] * 64)
        assert _passes_strong_tests(6025, rng)
        assert rng.calls == [(2, 6024)] * 64

    def test_a_prime_draws_64_bases(self):
        for c in (5, 7, 1999, 6007, 2**61 - 1):  # s = c, then s = 1
            rng = _ScriptedRng([3] * 64)
            assert _passes_strong_tests(c, rng)
            assert rng.calls == [(2, c - 1)] * 64

    def test_composites_without_a_proper_small_factor(self):
        # 2047 = 23 * 89 (s = c) is a strong pseudoprime to base 2, and
        # 2011 * 2251 (s = 1) to base 2216: the later bases must be tested
        for c, liar in ((2047, 2), (2011 * 2251, 2216)):
            rng = _ScriptedRng([liar, liar, 3])
            assert not _passes_strong_tests(c, rng)
            assert len(rng.calls) == 3


def _next_prime(x):
    while not is_probable_prime(x):
        x += 1
    return x


class TestMediumPrimeScreen:
    def test_a_medium_factor_is_tested_first(self, monkeypatch):
        # c = small * f * q, f = 2003 in (2000, B(256)], q a prime, c of 256
        # bits: s = small until the screen finds f, then s = small * f. A
        # witness modulo s costs no test modulo c, a base that passes there
        # gets one, and so does every later base, after a strong liar.
        f = 2003
        for small in (1, 3):
            q = (1 << 255) // (small * f)
            while True:  # until c - 1 and f - 1 share an odd factor
                q = _next_prime(q + 1)
                c = small * f * q
                t, d = split_two_adic(c - 1)
                root = next((b for b in range(2, f - 1)
                             if pow(b, d, f) == 1), None)
                if root is not None:
                    break
            assert c.bit_length() == 256
            assert math.gcd(c, oracle._SMALL_ODD_PRIMES_PRODUCT) == small
            assert math.gcd(c, oracle._medium_odd_primes_product(256)) == f

            def passes(a, n):  # the strong test and the Euler-Jacobi check
                return (_strong_liar(a, d, t, n)
                        and pow(a, c >> 1, n) == oracle._jacobi(a, c) % n)

            s = small * f
            m = small * q  # a^d = 1 (mod c): 1 mod m, root mod f
            liar = 1 + m * ((root - 1) * pow(m, -1, f) % f)
            witness = next(a for a in range(2, c - 1)
                           if passes(a, small) and not passes(a, s))
            hidden_witness = next(a for a in range(2, c - 1)
                                  if passes(a, s)
                                  and not _strong_liar(a, d, t, c))
            assert _strong_probable_prime(c, liar)
            before = [small] if small > 1 else []
            moduli = _record_moduli(monkeypatch)
            for bases, verdict, tested in (
                    ([witness], False, [s]),
                    ([hidden_witness], False, [s, c]),
                    ([liar, hidden_witness], False, [s, c, s, c]),
                    ([liar] * 64, True, [s, c] * 64)):
                moduli.clear()
                assert _passes_strong_tests(c, _ScriptedRng(bases)) == verdict
                assert moduli == before + tested, (small, bases)

    def test_no_gcd_below_180_bits(self, monkeypatch):
        # exact-16 and sim-64 draw their instances down the parent's path
        assert oracle._medium_odd_primes_product(179) == 1
        assert oracle._medium_odd_primes_product(180) == 2003 * 2011 * 2017

        def refuse(l):
            raise AssertionError(f"screen at {l} bits")

        monkeypatch.setattr(oracle, "_medium_odd_primes_product", refuse)
        for l in (16, 64, 179):
            for seed in range(3):
                generate_instance(l, 2, 1, random.Random(seed))
        with pytest.raises(AssertionError, match="screen at 180 bits"):
            generate_instance(180, 2, 1, random.Random(0))

    def test_the_screen_rejects_only_witnesses(self, monkeypatch):
        # 300-bit c = f * m, f a prime in (2000, B(300)] and m free of the
        # primes <= B(300): each base the screen rejects is a witness, and
        # most random bases are rejected there
        moduli = _record_moduli(monkeypatch)
        rng = random.Random(23)
        bound = oracle._screen_bound(300)
        medium = [p for p in primes_up_to(bound) if p > 2000]
        rejected = tested_in_full = 0
        while rejected + tested_in_full < 300:
            f = rng.choice(medium)
            m = rng.getrandbits(300 - f.bit_length()) | 1
            c = f * m
            if c.bit_length() != 300 or smooth_part(m, bound)[0]:
                continue
            a = rng.randrange(2, c - 1)
            moduli.clear()
            verdict = _passes_strong_tests(c, _ScriptedRng([a] * 64))
            if moduli == [f]:
                assert not verdict and not _strong_probable_prime(c, a)
                rejected += 1
            else:
                assert moduli[:2] == [f, c]
                tested_in_full += 1
        assert rejected > 250

    def test_the_bound_stays_under_its_cap(self):
        # no l, and so no `ordersplit simulate --l`, sieves past
        # MAX_SIEVE_BOUND through the screen
        cap = oracle._SCREEN_BOUND_CAP
        assert 1 << (cap - 1).bit_length() <= MAX_SIEVE_BOUND
        assert all(oracle._screen_bound(l) <= cap for l in range(10**5 + 1))
        assert [oracle._screen_bound(l) for l in (256, 512, 1024)] == \
            [4096, 16384, 65536]

    def test_product_matches_one_sequential_prod(self):
        _check_medium_product((180, 256, 1024, 2048))

    @pytest.mark.skipif(os.environ.get("ORDERSPLIT_LONG") != "1",
                        reason="long-mode product at the cap; "
                               "set ORDERSPLIT_LONG=1")
    def test_product_at_the_cap_long_mode(self):
        _check_medium_product((4096,))  # B(4096) = _SCREEN_BOUND_CAP


def _check_medium_product(ls):
    """M_l, built in pairwise rounds, against one math.prod of its primes."""
    for l in ls:
        primes = [p for p in primes_up_to(oracle._screen_bound(l))
                  if p > 2000]
        assert oracle._medium_odd_primes_product.__wrapped__(l) == \
            math.prod(primes), l


class _CountingRandom(random.Random):
    """A random.Random subclass that counts its randrange calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def randrange(self, start, stop=None, step=1):
        self.calls.append((start, stop))
        return super().randrange(start, stop, step)


class TestSkipRandrange:
    def test_same_state_as_randrange_calls(self):
        # a width that is a power of two rejects half the draws
        picker = random.Random(0)
        for bits in [*range(1, 131), 1024]:
            low, high = 1 << (bits - 1), (1 << bits) - 1
            for seed in range(12):
                width = (low, high, picker.randint(low, high))[seed % 3]
                start = picker.randrange(0, 1 << bits)
                count = picker.randint(1, 63)
                rng, ref = random.Random(seed), random.Random(seed)
                _skip_randrange(rng, start, start + width, count)
                for _ in range(count):
                    ref.randrange(start, start + width)
                assert rng.getstate() == ref.getstate(), (bits, seed)

    def test_subclass_and_scripted_rngs_call_randrange(self):
        rng, ref = _CountingRandom(5), random.Random(5)
        _skip_randrange(rng, 2, 1000, 63)
        assert rng.calls == [(2, 1000)] * 63
        for _ in range(63):
            ref.randrange(2, 1000)
        assert rng.getstate() == ref.getstate()
        scripted = _ScriptedRng([7] * 63)
        _skip_randrange(scripted, 2, 1000, 63)
        assert scripted.calls == [(2, 1000)] * 63


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
        # rho splits a remainder of three primes twice
        r = 1_000_037
        assert _factor_completely(6 * p * q * r) == {2: 1, 3: 1, p: 1, q: 1,
                                                     r: 1}

    def test_prime_power(self):
        assert _factor_completely(3**20) == {3: 20}

    def test_batch_catching_every_prime_restarts(self):
        # what trial division leaves of each p - 1 here is a composite on
        # which some rho batch's gcd is all of it, so rho restarts
        for p in (11307177563016758639, 13793712012294680519,
                  12259417548506708927):
            factors = _factor_completely(p - 1)
            assert math.prod(q**e for q, e in factors.items()) == p - 1
            assert all(map(is_probable_prime, factors))  # exact below 2^64
        assert _factor_completely(11307177563016758639 - 1) == {
            2: 1, 19: 1, 65809: 1, 1434149: 1, 3152761: 1}

    def test_rho_effort_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "_RHO_ATTEMPTS", 0)
        with pytest.raises(InfeasibleParametersError, match="effort cap"):
            _factor_completely(1_000_003 * 1_000_033)

    def test_one_sieve_per_bit_length(self):
        rng = random.Random(7)
        numbers = {rng.randrange(1 << 29, 1 << 30) for _ in range(10)}
        _sieve.cache_clear()
        for n in numbers:
            assert _factor_completely(n) == trial_division_factorization(n)
        assert len(numbers) == 10
        assert _sieve.cache_info().currsize == 1


class TestExactOrder:
    def test_known_orders(self):
        inst15 = Instance([3, 5], [1, 1])
        assert exact_order(inst15, 2).order == 4
        assert exact_order(inst15, 14).order == 2
        inst21 = Instance([3, 7], [1, 1])
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
        inst = Instance([3, 5], [1, 1])
        with pytest.raises(ValueError):
            exact_order(inst, 5)

    def test_refuses_primes_over_64_bits(self, monkeypatch):
        p64 = 2**64 - 59  # the largest 64-bit prime: still exact
        inst = Instance([3, p64], [1, 1])
        r = exact_order(inst, 2).order
        assert pow(2, r, inst.modulus) == 1
        monkeypatch.setattr(oracle, "_factor_completely", None)
        with pytest.raises(InfeasibleParametersError):
            exact_order(Instance([3, 2**89 - 1], [1, 1]), 2)


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
                        assert _reduce_component_order(g, p, e, bound) == \
                            _reduce_by_per_prime_loop(g, pe, phi, bound)

    def test_matches_per_prime_loop_on_prime_powers(self):
        # l = 8 puts every p below the larger bounds, so p itself is
        # stripped when e >= 2; l = 64 keeps p above every bound. A p-th
        # power has v_p(order) < e - 1, which a random unit rarely has.
        rng = random.Random(17)
        branches = set()
        for l in (8, 12, 64):
            for _ in range(6):
                inst = generate_instance(l, 3, 3, rng)
                for p, e in zip(inst.primes, inst.exponents):
                    pe = p**e
                    g = sample_unit(pe, rng)
                    phi = pe // p * (p - 1)
                    for bound in (2, 10, 1000, 10**6):
                        branches.add((e >= 2, p <= bound))
                        for h in (g, pow(g, p, pe)):
                            assert _reduce_component_order(h, p, e, bound) \
                                == _reduce_by_per_prime_loop(h, pe, phi, bound)
        assert {(True, True), (True, False)} <= branches

    def test_component_examples_mod_7(self):
        assert _reduce_component_order(2, 7, 1, 10) == 3
        assert _reduce_component_order(3, 7, 1, 10) == 6

    def test_reduction_stops_above_bound(self):
        # order of 3 mod 1009 divides 1008 = 2^4 * 3^2 * 7; with bound 5 the
        # factor 7 can never be stripped
        r = _reduce_component_order(3, 1009, 1, 5)
        assert r % 7 == 0 or 1008 % 7 != 0
        true_order = brute_force_order(3, 1009)
        assert r % true_order == 0


def _reference_simulated_order(inst, element, smooth_bound):
    """The order simulate_order returns for element, by the per-prime loop."""
    order = 1
    for p, e in zip(inst.primes, inst.exponents):
        pe = p**e
        order = math.lcm(order, _reduce_by_per_prime_loop(
            element % pe, pe, pe // p * (p - 1), smooth_bound))
    return order


class TestSimulateOrder:
    def test_exact_on_15_with_small_bound(self):
        # both component groups have 2-smooth orders, so the heuristic is
        # always exact here
        inst = Instance([3, 5], [1, 1])
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

    def test_element_combines_the_component_draws(self):
        rng = random.Random(9)
        for _ in range(100):
            inst = generate_instance(8, 3, 3, rng)
            clone = copy.deepcopy(rng)
            result = simulate_order(inst, 100, rng)
            assert 0 <= result.element < inst.modulus
            for p, e in zip(inst.primes, inst.exponents):
                assert result.element % p**e == sample_unit(p**e, clone)
            assert clone.getstate() == rng.getstate()

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

    def test_sweeps_only_p_minus_1(self, monkeypatch):
        swept = []

        def recording(n, bound):
            swept.append(n)
            return smooth_part(n, bound)

        monkeypatch.setattr(oracle, "smooth_part", recording)
        rng = random.Random(18)
        for _ in range(4):
            inst = generate_instance(64, 8, 3, rng)
            swept.clear()
            sim = simulate_order(inst, 10**6, rng)
            assert sorted(swept) == sorted(p - 1 for p in inst.primes)
            assert all(n % p for n in swept for p in inst.primes)
            assert sim.order == _reference_simulated_order(
                inst, sim.element, 10**6)

    @pytest.mark.skipif(os.environ.get("ORDERSPLIT_LONG") != "1",
                        reason="long-mode reference check; "
                               "set ORDERSPLIT_LONG=1")
    def test_simulate_matches_reference_long_mode(self):
        rng = random.Random(19)
        for l in (128, 256):
            for e_max in (2, 3):
                for _ in range(3):
                    inst = generate_instance(l, 3, e_max, rng)
                    sim = simulate_order(inst, 10**6, rng)
                    assert sim.order == _reference_simulated_order(
                        inst, sim.element, 10**6)

    def test_bound_validation(self):
        inst = Instance([3, 5], [1, 1])
        with pytest.raises(ValueError):
            simulate_order(inst, 1, random.Random(0))
