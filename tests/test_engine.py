import itertools
import math
import os
import random

import pytest

from conftest import trial_division_factorization
from ordersplit import engine
from ordersplit.engine import (
    FactorSet,
    Factorization,
    MINUS_ONE,
    ODD_ORDER,
    choose_k,
    factor_with_order,
    guess_multiple,
    recover_factors,
    shor_split,
    split_two_adic,
    theoretical_failure_bound,
)
from ordersplit.ntcore import eta, is_probable_prime, perfect_power_reduce, primes_up_to
from ordersplit.oracle import (
    Instance,
    exact_order,
    generate_instance,
    sample_unit,
    simulate_order,
)


def _phi_factored_order(g, n):
    """Exact order of g mod n via totient factorization (test oracle)."""
    from ordersplit.ntcore import multiplicative_order

    phi = 1
    for p, e in trial_division_factorization(n).items():
        phi *= p ** (e - 1) * (p - 1)
    return multiplicative_order(g, n, sorted(trial_division_factorization(phi).items()))


class TestSplitTwoAdic:
    def test_known_values(self):
        assert split_two_adic(48) == (4, 3)
        assert split_two_adic(7) == (0, 7)
        assert split_two_adic(360) == (3, 45)
        assert split_two_adic(1) == (0, 1)

    def test_round_trip(self):
        rng = random.Random(0)
        for _ in range(300):
            v = rng.randrange(1, 1 << 128)
            t, o = split_two_adic(v)
            assert o % 2 == 1
            assert (1 << t) * o == v

    def test_domain(self):
        with pytest.raises(ValueError):
            split_two_adic(0)


class TestGuessMultiple:
    def test_known_values(self):
        g = guess_multiple(4, 4, 1)
        assert (g.r_prime, g.t, g.o) == (48, 4, 3)
        assert g.m_prime == 4
        g = guess_multiple(1, 4, 1)
        assert (g.r_prime, g.t, g.o) == (12, 2, 3)
        g = guess_multiple(6, 5, 1)
        assert (g.r_prime, g.t, g.o) == (360, 3, 45)

    def test_r_divides_r_prime(self):
        rng = random.Random(1)
        for _ in range(100):
            r = rng.randrange(1, 1 << 64)
            m = rng.randrange(2, 256)
            c = rng.randrange(1, 4)
            g = guess_multiple(r, m, c)
            assert g.r_prime % r == 0
            quotient = g.r_prime // r
            # the multiplier contains exactly the prime powers up to m'
            for q in primes_up_to(g.m_prime):
                e = eta(q, g.m_prime)
                assert quotient % q**e == 0

    def test_bit_length_bound(self):
        rng = random.Random(2)
        for _ in range(100):
            r = rng.randrange(1, 1 << rng.randrange(1, 512))
            m = rng.randrange(2, 512)
            c = rng.randrange(1, 5)
            g = guess_multiple(r, m, c)
            allowance = sum(
                eta(q, g.m_prime) * (q - 1).bit_length()
                for q in primes_up_to(g.m_prime))
            assert g.r_prime.bit_length() <= r.bit_length() + allowance

    def test_growing_c_preserves_divisibility(self):
        rng = random.Random(3)
        for _ in range(50):
            r = rng.randrange(1, 1 << 32)
            m = rng.randrange(2, 128)
            low = guess_multiple(r, m, 1)
            for c in (2, 3, 4):
                high = guess_multiple(r, m, c)
                assert high.r_prime % low.r_prime == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            guess_multiple(0, 4, 1)
        with pytest.raises(ValueError):
            guess_multiple(4, 1, 1)
        with pytest.raises(ValueError):
            guess_multiple(4, 4, 0)


def _check_invariants(fs: FactorSet):
    values = [v for v, _ in fs.entries]
    for v, prime in fs.entries:
        assert 1 < v <= fs.target
        assert fs.target % v == 0
        assert perfect_power_reduce(v)[1] == 1
        assert prime == is_probable_prime(v)
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            assert math.gcd(a, b) == 1, (a, b)


class TestFactorSet:
    def test_split_15(self):
        fs = FactorSet(15)
        assert fs.add_factor(3)
        _check_invariants(fs)
        assert fs.entries == ((3, True), (5, True))
        assert fs.complete

    def test_successive_refinement_105(self):
        fs = FactorSet(105)
        fs.add_factor(15)
        _check_invariants(fs)
        assert {v for v, _ in fs.entries} == {15, 7}
        assert not fs.complete
        fs.add_factor(3)
        _check_invariants(fs)
        assert {v for v, _ in fs.entries} == {3, 5, 7}
        assert fs.complete
        assert fs.factorization.pairs == ((3, 1), (5, 1), (7, 1))

    def test_multiplicity_extraction_9(self):
        fs = FactorSet(9)
        fs.add_factor(3)
        assert fs.entries == ((3, True),)
        assert fs.complete
        assert fs.factorization.pairs == ((3, 2),)

    def test_power_entries_are_reduced(self):
        fs = FactorSet(225)
        # 225 = 15^2 reduces to 15 on entry, which is composite
        assert fs.entries == ((15, False),)
        fs.add_factor(9)
        _check_invariants(fs)
        assert fs.complete
        assert fs.factorization.pairs == ((3, 2), (5, 2))

    def test_add_factor_reports_a_new_entry_only(self):
        fs = FactorSet(105)
        assert fs.add_factor(15)  # 105 -> 15, 7
        assert not fs.add_factor(15)  # the same divisor again
        assert fs.add_factor(3)  # 15 -> 3, 5
        assert not fs.add_factor(21)  # 3 * 7: a product of entries
        assert fs.entries == ((3, True), (5, True), (7, True))

    def test_target_below_two_rejected(self):
        with pytest.raises(ValueError, match="target must be >= 2"):
            FactorSet(1)

    def test_rejects_non_divisors(self):
        fs = FactorSet(15)
        assert not fs.add_factor(7)
        assert not fs.add_factor(1)
        assert not fs.add_factor(15)
        assert not fs.add_factor(45)
        assert fs.entries == ((15, False),)

    def test_composite_entries(self):
        target = 21**2 * 143
        fs = FactorSet(target)
        assert fs.entries == ((target, False),)
        fs.add_factor(21)
        assert fs.entries == ((21, False), (143, False))
        fs.add_factor(11)
        assert fs.entries == ((11, True), (13, True), (21, False))
        fs.add_factor(3)
        assert fs.complete
        assert fs.entries == ((3, True), (7, True), (11, True), (13, True))

    def test_random_insert_sequences_keep_invariants(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randrange(4, 10**6)
            if n % 2 == 0 or is_probable_prime(n):
                continue
            fs = FactorSet(n)
            divisors = [d for d in range(2, min(n, 2000)) if n % d == 0]
            for _ in range(6):
                if divisors:
                    fs.add_factor(rng.choice(divisors))
                _check_invariants(fs)
            if fs.complete:
                assert fs.factorization.product() == n

    def test_entry_dividing_an_insert_keeps_its_verdict(self, monkeypatch):
        fs = FactorSet(105)
        fs.add_factor(35)  # 105 -> 35, 3
        assert fs.entries == ((3, True), (35, False))
        # 3 is met first below, so 15 runs the "entry divides x" branch
        assert next(iter(fs._values)) == 3
        tested = []

        def recording(z):
            tested.append(z)
            return is_probable_prime(z)

        monkeypatch.setattr(engine, "is_probable_prime", recording)
        fs.add_factor(15)  # 3 | 15: 3 stays, and 5 splits 35
        _check_invariants(fs)
        assert fs.entries == ((3, True), (5, True), (7, True))
        assert fs.complete
        assert sorted(tested) == [5, 7]

    def test_verdicts_on_entries_past_psi_13(self):
        p, q = 2**89 - 1, 2**127 - 1
        target = p**2 * q * 10007
        fs = FactorSet(target)
        assert fs.entries == ((target, False),)
        fs.add_factor(q)
        _check_invariants(fs)
        assert fs.entries == ((q, True), (p**2 * 10007, False))
        fs.add_factor(10007)
        _check_invariants(fs)
        assert fs.complete
        assert fs.factorization.pairs == ((10007, 1), (p, 2), (q, 1))

    def test_repr_runs_no_primality_test(self, monkeypatch):
        pq = (2**521 - 1) * (2**607 - 1)  # a semiprime past 1024 bits
        tested = []
        monkeypatch.setattr(engine, "is_probable_prime", tested.append)
        fs = FactorSet(3 * pq)
        assert fs.add_factor(3)  # both pieces inserted untested
        assert repr(fs) == (f"FactorSet(target={3 * pq}, "
                            f"entries=[(3, None), ({pq}, None)])")
        assert tested == []


class TestFactorization:
    def test_validation(self):
        with pytest.raises(ValueError):
            Factorization(((5, 1), (3, 1)))  # unsorted
        with pytest.raises(ValueError):
            Factorization(((3, 0),))
        assert Factorization(((3, 2), (5, 1))).product() == 45


def _paper_legs(N, r):
    """The paper's form: one chain from x^o, with r' = 2^t * o."""
    return (guess_multiple(r, N.bit_length()).o,)


def _engine_legs(N, r):
    """recover_factors' form: a chain from x^o_1, o_1 the odd part of r
    with every prime of N divided out, then one from x^o."""
    o_1 = split_two_adic(r)[1]
    while math.gcd(o_1, N) > 1:
        o_1 //= math.gcd(o_1, N)
    return (o_1, guess_multiple(r, N.bit_length()).o)


def _single_chain_reference(N, r, legs, *, k, rng):
    """recover_factors with its chains walked modulo N: gcd(N, r) goes into
    the factor set first, then each iteration walks one chain modulo N per
    exponent e in legs, from x^e, and takes the gcd of each value with
    every composite entry, as read before that leg. Returns (complete,
    factorization, iterations)."""
    fs = FactorSet(N)
    fs.add_factor(math.gcd(N, r))
    m = N.bit_length()
    t = guess_multiple(r, m).t
    budget = k if k is not None else engine.default_iteration_cap(m)
    iterations = 0
    for _ in range(budget):
        if fs.complete:
            break
        iterations += 1
        x = sample_unit(N, rng, exclude_one=True, on_factor=fs.add_factor)
        for e in legs:
            composite = [w for w, prime in fs.entries if not prime]
            u = pow(x, e, N)
            for i in range(t + 1):
                for w in composite:
                    d = math.gcd(u - 1, w)
                    if 1 < d < w:
                        fs.add_factor(d)
                if i < t:
                    u = u * u % N
    return fs.complete, fs.factorization, iterations


def _assert_matches_reference(N, r, *, k, seed):
    """Run recover_factors and the reference with the engine's legs from
    one seed; they must give the same (complete, factorization,
    iterations) and end in the same rng state. Returns the result."""
    ours, theirs = random.Random(seed), random.Random(seed)
    result = recover_factors(N, r, k=k, rng=ours)
    expected = _single_chain_reference(N, r, _engine_legs(N, r), k=k,
                                       rng=theirs)
    assert (result.complete, result.factorization,
            result.iterations) == expected, (N, r, k)
    assert ours.getstate() == theirs.getstate()
    return result


def _assert_dominates_paper_reference(N, r, *, k, seed):
    """Run recover_factors and the paper's one-leg reference from one seed:
    ours completes whenever the reference does, in no more iterations, and
    lists every prime power the reference lists."""
    result = recover_factors(N, r, k=k, rng=random.Random(seed))
    complete, factorization, iterations = _single_chain_reference(
        N, r, _paper_legs(N, r), k=k, rng=random.Random(seed))
    assert result.complete or not complete, (N, r, k)
    assert result.iterations <= iterations, (N, r, k)
    assert set(factorization.pairs) <= set(result.factorization.pairs)


def _reference_cases():
    """(N, r, k, seed) for the reference checks: 400 instances of 2-6
    primes of 8-12 bits plus 40 cores that are powers of composites, or
    close to them."""
    master = random.Random(7)
    cases = [generate_instance(master.choice((8, 10, 12)),
                               master.choice((2, 4, 6)),
                               master.choice((1, 2, 3)), master)
             for _ in range(400)]
    for exponents in ((2, 2), (3, 3), (2, 2, 1), (2, 2, 2), (1, 3, 3)):
        for _ in range(8):
            primes = generate_instance(10, len(exponents), 1, master).primes
            cases.append(Instance(primes, exponents))
    for inst in cases:
        g = sample_unit(inst.modulus, master, exclude_one=True)
        r = exact_order(inst, g).order
        # r = 1 covers only the primes p with p - 1 smooth: partial splits
        r, k = master.choice(((r, None), (r, 1), (1, None), (1, 3)))
        yield inst.modulus, r, k, master.randrange(2**32)


def _long_mode_reference_cases():
    """(N, r, k, seed) for the long-mode reference checks: 4000 instances
    of 2-6 primes of 8-12 bits, with exponents up to 4."""
    master = random.Random(17)
    for _ in range(4000):
        inst = generate_instance(master.choice((8, 10, 12)),
                                 master.randint(2, 6),
                                 master.randint(1, 4), master)
        g = sample_unit(inst.modulus, master, exclude_one=True)
        r = master.choice((exact_order(inst, g).order, 1))
        k = master.choice((None, 1, 3))
        yield inst.modulus, r, k, master.randrange(2**32)


def _adversarial_cases(q, ps, count, master):
    """(N, r, k, seed) with N = q^e * p1 * p2, e in {1, 2}, where q divides
    each p_i - 1, and r the exact order of a random unit: q then divides r
    almost always, so leg 1 drops it, yet it can be part of x's order
    modulo each p_i."""
    for _ in range(count):
        inst = Instance((q, *ps), (master.choice((1, 2)), 1, 1))
        g = sample_unit(inst.modulus, master, exclude_one=True)
        yield (inst.modulus, exact_order(inst, g).order,
               master.choice((None, 1)), master.randrange(2**32))


def _primes_one_mod(q, count):
    """The first count primes p = 1 (mod 2q)."""
    candidates = (2 * j * q + 1 for j in itertools.count(1))
    return tuple(itertools.islice(filter(is_probable_prime, candidates),
                                  count))


def _count_chains(monkeypatch):
    """Wrap engine._walk_chain; returns the list it appends each w to."""
    moduli = []
    walk = engine._walk_chain

    def counting(u, t, w, fs):
        moduli.append(w)
        return walk(u, t, w, fs)

    monkeypatch.setattr(engine, "_walk_chain", counting)
    return moduli


def _check_adversarial_family(monkeypatch, q, ps, count, master_seed):
    """Every case matches the reference and dominates the paper's chain,
    q divides r, and leg 2 runs on some of them. N has three primes, so at
    most one entry is composite at a time and leg 1 walks one chain per
    iteration: every further chain is leg 2's."""
    chains = _count_chains(monkeypatch)
    leg_2_chains = 0
    for N, r, k, seed in _adversarial_cases(q, ps, count,
                                             random.Random(master_seed)):
        assert r % q == 0, (N, r)
        chains.clear()
        result = _assert_matches_reference(N, r, k=k, seed=seed)
        assert result.complete or k is not None, (N, r)
        leg_2_chains += len(chains) - result.iterations
        _assert_dominates_paper_reference(N, r, k=k, seed=seed)
    assert leg_2_chains > 0


_LONG_MODE = pytest.mark.skipif(os.environ.get("ORDERSPLIT_LONG") != "1",
                                reason="long-mode reference check; "
                                       "set ORDERSPLIT_LONG=1")


class TestRecoverFactors:
    def test_15_with_order_4(self):
        result = recover_factors(15, 4, rng=random.Random(0))
        assert result.complete
        assert result.factorization.pairs == ((3, 1), (5, 1))

    def test_21_with_order_6(self):
        result = recover_factors(21, 6, rng=random.Random(1))
        assert result.complete
        assert result.factorization.pairs == ((3, 1), (7, 1))

    def test_143_end_to_end_with_oracle(self):
        rng = random.Random(2)
        inst = generate_instance(4, 2, 1, rng)
        g = sample_unit(inst.modulus, rng, exclude_one=True)
        r = exact_order(inst, g).order
        result = recover_factors(inst.modulus, r, rng=rng)
        assert result.complete
        assert result.factorization.pairs == ((11, 1), (13, 1))

    def test_prime_power_resolves_without_iterations(self):
        for n, pairs in ((9, ((3, 2),)), (10007**2, ((10007, 2),)),
                         (3**5, ((3, 5),))):
            result = recover_factors(n, 6, rng=random.Random(3))
            assert result.complete
            assert result.factorization.pairs == pairs
            assert result.iterations == 0

    def test_fixed_k_may_stop_incomplete(self):
        # with r=1 the grown exponent rarely covers a 24-bit semiprime, so a
        # single iteration usually leaves the set incomplete; either way the
        # result must be internally consistent
        rng = random.Random(4)
        inst = generate_instance(12, 2, 1, rng)
        result = recover_factors(inst.modulus, 1, k=1, rng=rng)
        assert result.iterations <= 1
        if result.complete:
            assert result.factorization.product() == inst.modulus

    def test_preconditions(self):
        rng = random.Random(5)
        with pytest.raises(ValueError):
            recover_factors(10, 4, rng=rng)  # even
        with pytest.raises(ValueError):
            recover_factors(7, 6, rng=rng)  # too small
        with pytest.raises(ValueError, match="N is prime"):
            recover_factors(101, 100, rng=rng)
        with pytest.raises(ValueError):
            recover_factors(15, 0, rng=rng)
        with pytest.raises(ValueError):
            recover_factors(15, 4, k=0, rng=rng)

    def test_never_wrong_on_small_odd_composites(self):
        rng = random.Random(6)
        for n in range(9, 4000, 2):
            if is_probable_prime(n):
                continue
            g = sample_unit(n, rng)
            r = _phi_factored_order(g, n)
            result = recover_factors(n, r, rng=rng)
            assert result.complete, n
            expected = tuple(sorted(trial_division_factorization(n).items()))
            assert result.factorization.pairs == expected, n

    def test_matches_single_chain_reference(self):
        incomplete = total = 0
        for N, r, k, seed in _reference_cases():
            result = _assert_matches_reference(N, r, k=k, seed=seed)
            incomplete += not result.complete
            total += 1
        assert 0 < incomplete < total

    @_LONG_MODE
    def test_matches_single_chain_reference_long_mode(self):
        incomplete = 0
        for N, r, k, seed in _long_mode_reference_cases():
            result = _assert_matches_reference(N, r, k=k, seed=seed)
            incomplete += not result.complete
        assert 0 < incomplete < 4000

    def test_dominates_paper_reference(self):
        for N, r, k, seed in _reference_cases():
            _assert_dominates_paper_reference(N, r, k=k, seed=seed)

    @_LONG_MODE
    def test_dominates_paper_reference_long_mode(self):
        for N, r, k, seed in _long_mode_reference_cases():
            _assert_dominates_paper_reference(N, r, k=k, seed=seed)

    def test_multiplier_leg_runs_only_on_composite_pieces(self, monkeypatch):
        exponents = []

        def spy(base, exp, mod):
            exponents.append(exp)
            return pow(base, exp, mod)

        monkeypatch.setattr(engine, "pow", spy, raising=False)
        rng = random.Random(13)
        inst = generate_instance(64, 2, 1, rng)
        N = inst.modulus
        # r = lcm(p - 1, q - 1): the first leg splits N = p * q into primes
        # unless x has orders of one 2-adic valuation modulo p and q
        r = math.lcm(*(p - 1 for p in inst.primes))
        result = recover_factors(N, r, rng=random.Random(0))
        assert result.complete and result.iterations == 1
        assert exponents == [split_two_adic(r)[1]]
        # r = 1: the first leg splits nothing, so the second runs modulo N
        exponents.clear()
        result = recover_factors(N, 1, k=1, rng=random.Random(0))
        assert not result.complete
        assert exponents == [1, guess_multiple(1, N.bit_length()).o]

    def test_prime_of_N_dividing_two_p_minus_1(self, monkeypatch):
        # 1009 divides 10091 - 1 and 12109 - 1
        _check_adversarial_family(monkeypatch, 1009, (10091, 12109), 60, 21)

    @_LONG_MODE
    def test_prime_of_N_dividing_two_p_minus_1_long_mode(self, monkeypatch):
        q = 1000003
        _check_adversarial_family(monkeypatch, q, _primes_one_mod(q, 2),
                                  600, 22)

    def test_semiprime_with_lambda_never_runs_leg_2(self, monkeypatch):
        # r = lcm(p - 1, q - 1) is a multiple of every unit's order, and
        # neither l-bit prime divides it, so x^o_1 has a power-of-2 order
        # and leg 1's chain always reaches 1
        chains = _count_chains(monkeypatch)
        master = random.Random(23)
        multi_iteration = 0
        for _ in range(40):
            inst = generate_instance(16, 2, 1, master)
            r = math.lcm(*(p - 1 for p in inst.primes))
            chains.clear()
            rng = random.Random(master.randrange(2**32))
            result = recover_factors(inst.modulus, r, rng=rng)
            assert result.complete
            assert len(chains) == result.iterations
            multi_iteration += result.iterations > 1
        assert multi_iteration  # some chains reached 1 without a split

    def test_order_multiple_of_N_matches_reference(self):
        # gcd(N, r) = N splits nothing, so the first chain runs modulo N
        master = random.Random(11)
        for _ in range(40):
            inst = generate_instance(master.choice((8, 10)),
                                     master.choice((2, 3)),
                                     master.choice((1, 2)), master)
            g = sample_unit(inst.modulus, master, exclude_one=True)
            r = inst.modulus * exact_order(inst, g).order
            result = _assert_matches_reference(inst.modulus, r, k=None,
                                               seed=master.randrange(2**32))
            assert result.complete

    def test_repeated_prime_dividing_r_splits_before_any_draw(self):
        master = random.Random(12)
        runs = 0
        while runs < 10:
            p, q = generate_instance(16, 2, 1, master).primes
            inst = Instance((p, q), (2, 1))
            g = sample_unit(inst.modulus, master, exclude_one=True)
            r = exact_order(inst, g).order
            if r % p:
                continue  # g^(p-1) = 1 mod p^2: probability 1/p
            rng = random.Random(runs)
            state = rng.getstate()
            result = recover_factors(inst.modulus, r, rng=rng)
            assert result.complete
            assert result.factorization.pairs == tuple(sorted(
                ((p, 2), (q, 1))))
            assert (result.iterations, result.gcd_calls) == (0, 0)
            assert rng.getstate() == state
            runs += 1

    def test_incomplete_run_lists_true_prime_powers(self):
        # with r = 1 the grown exponent covers p - 1 but neither q_i - 1, so
        # a draw splits off p^2 at most and leaves q1 * q2^2 whole
        p = 420421  # 2^2 * 3 * 5 * 7^2 * 11 * 13 + 1
        q1, q2 = 1048703, 2097779  # q - 1 = 2 * (a prime above 2^19)
        assert all(map(is_probable_prime, (p, q1, q2, q1 // 2, q2 // 2)))
        inst = Instance((p, q1, q2), (2, 1, 2))
        m = inst.modulus.bit_length()
        assert guess_multiple(1, m).r_prime % (p - 1) == 0
        truth = set(zip(inst.primes, inst.exponents))
        incomplete = 0
        for seed in range(6):
            result = recover_factors(inst.modulus, 1, k=1 + seed % 3,
                                     rng=random.Random(seed))
            assert set(result.factorization.pairs) <= truth
            assert inst.modulus % result.factorization.product() == 0
            incomplete += (not result.complete
                           and bool(result.factorization.pairs))
        assert incomplete

    def test_unsplit_modulus_is_its_own_piece_every_iteration(
            self, monkeypatch):
        # r = 1 grows to cover neither q - 1, so no draw splits N: N is its
        # own piece in both legs of every iteration, and is tested once,
        # by the stop test before the second iteration
        q1, q2 = 1048703, 2097779  # q - 1 = 2 * (a prime above 2^19)
        N = q1 * q2
        chains = _count_chains(monkeypatch)
        tested = []

        def recording(n):
            tested.append(n)
            return is_probable_prime(n)
        monkeypatch.setattr(engine, "is_probable_prime", recording)
        for seed in range(5):
            chains.clear()
            tested.clear()
            result = recover_factors(N, 1, k=3, rng=random.Random(seed))
            assert tested == [N]
            assert chains == [N] * 6
            assert not result.complete and result.factorization.pairs == ()
            assert result.iterations == 3

    def test_result_carries_the_grown_exponent(self):
        for n, r, c in ((143, 60, 1), (1001, 60, 2), (9, 6, 1)):
            result = recover_factors(n, r, c=c, rng=random.Random(9))
            assert result.guess == guess_multiple(r, n.bit_length(), c)

    def test_counters_populated(self):
        result = recover_factors(143, 60, rng=random.Random(8))
        assert result.complete
        assert result.iterations >= 1
        assert result.gcd_calls >= 0


class TestShorSplit:
    def test_15_splits(self):
        outcome = shor_split(15, 7, 4)
        assert outcome.factors == (3, 5)
        assert outcome.reason is None

    def test_minus_one_cases(self):
        assert shor_split(15, 14, 2).reason == MINUS_ONE
        assert shor_split(21, 20, 2).reason == MINUS_ONE

    def test_odd_order(self):
        # 4 has order 3 mod 9... use N=21, g=4: 4^3 = 64 = 1 mod 21
        assert shor_split(21, 4, 3).reason == ODD_ORDER

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            shor_split(15, 7, 3)  # 7^3 != 1
        with pytest.raises(ValueError):
            shor_split(15, 7, 8)  # even, g^4 == 1 exposes non-minimality
        with pytest.raises(ValueError):
            shor_split(15, 5, 4)  # not a unit

    def test_split_pair_properties(self):
        rng = random.Random(9)
        for _ in range(100):
            inst = generate_instance(10, 2, 1, rng)
            n = inst.modulus
            g = sample_unit(n, rng)
            r = exact_order(inst, g).order
            outcome = shor_split(n, g, r)
            if outcome.factors is None:
                assert outcome.reason in (ODD_ORDER, MINUS_ONE)
                continue
            a, b = outcome.factors
            assert 1 < a < n and 1 < b < n
            assert n % a == 0 and n % b == 0
            assert a * b >= n
            assert math.gcd(a, b) * math.lcm(a, b) == a * b


class TestChooseK:
    def test_known_values(self):
        assert choose_k(2, 1) == 3
        assert choose_k(4, 1) == 6
        assert choose_k(2, 2) == 4

    def test_guarantee_exact(self):
        for n in range(2, 101):
            for tau in range(1, 5):
                k = choose_k(n, tau)
                # 2^-k * n(n-1)/2 <= n^-tau as exact integers
                assert n * (n - 1) * n**tau <= 2 ** (k + 1)

    def test_domain(self):
        with pytest.raises(ValueError):
            choose_k(1, 1)
        with pytest.raises(ValueError):
            choose_k(2, 0)


class TestTheoreticalFailureBound:
    def test_known_values(self):
        assert theoretical_failure_bound(2, 2048, 1, 1) == pytest.approx(
            0.5 + 1 / (2 * 121), rel=1e-12)
        assert theoretical_failure_bound(2, 2048, 1, 50) == pytest.approx(
            0.004132231404959566, rel=1e-9)
        assert theoretical_failure_bound(5, 1024, 2, 20) == pytest.approx(
            0.001042594594403732, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            theoretical_failure_bound(1, 2048, 1, 1)
        with pytest.raises(ValueError):
            theoretical_failure_bound(2, 2048, 0, 1)


class TestFactorWithOrder:
    # primes above the trial-division bound, and r = lcm(p - 1, q - 1)
    P, Q = 10007, 10009
    R = 10006 * 10008 // 2

    def test_engine_case(self):
        outcome = factor_with_order(self.P * self.Q, self.R,
                                    rng=random.Random(0))
        assert outcome.complete
        assert outcome.factorization.pairs == ((self.P, 1), (self.Q, 1))
        assert outcome.iterations >= 1

    def test_trial_division_strips_everything(self):
        outcome = factor_with_order(30, 4, rng=random.Random(1))
        assert outcome.complete
        assert outcome.factorization.pairs == ((2, 1), (3, 1), (5, 1))
        assert outcome.iterations == 0
        assert outcome.guess is None

    def test_perfect_power(self):
        outcome = factor_with_order(self.P**2, 1, rng=random.Random(2))
        assert outcome.complete
        assert outcome.factorization.pairs == ((self.P, 2),)
        assert outcome.iterations == 0

    def test_prime_input(self):
        # 101 falls to trial division; the others are prime cores
        for p in (101, self.P, 2**127 - 1):
            outcome = factor_with_order(p, 1, rng=random.Random(3))
            assert outcome.complete
            assert outcome.factorization.pairs == ((p, 1),)
            assert (outcome.iterations, outcome.guess) == (0, None)

    def test_core_gets_one_primality_verdict(self, monkeypatch):
        tested = []

        def recording(z):
            tested.append(z)
            return is_probable_prime(z)

        monkeypatch.setattr(engine, "is_probable_prime", recording)
        n = self.P * self.Q
        outcome = factor_with_order(3 * n, self.R, rng=random.Random(0))
        assert outcome.complete
        assert sorted(tested) == [self.P, self.Q]  # the core is never tested
        tested.clear()
        assert factor_with_order(3 * self.P, 1).complete
        assert tested == [self.P]

    def test_composite_power_of_composite(self):
        # (PQ)^2: power reduction to PQ, engine splits P * Q,
        # multiplicities recovered against the original N
        outcome = factor_with_order((self.P * self.Q) ** 2, self.R,
                                    rng=random.Random(4))
        assert outcome.complete
        assert outcome.factorization.pairs == ((self.P, 2), (self.Q, 2))
        assert outcome.iterations >= 1

    def test_mixed_preprocessing_and_engine(self):
        rng = random.Random(5)
        inst = generate_instance(16, 2, 1, rng)
        g = sample_unit(inst.modulus, rng, exclude_one=True)
        r = exact_order(inst, g).order
        n = 12 * inst.modulus  # 2^2 * 3 stripped by trial division
        outcome = factor_with_order(n, r, rng=rng)
        assert outcome.complete
        expected = {2: 2, 3: 1}
        for p, e in zip(inst.primes, inst.exponents):
            expected[p] = expected.get(p, 0) + e
        assert outcome.factorization.pairs == tuple(sorted(expected.items()))

    def test_engine_counters_and_guess_pass_through(self, monkeypatch):
        runs = []

        def spy(*args, **kwargs):
            runs.append(recover_factors(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(engine, "recover_factors", spy)
        outcome = factor_with_order(3 * self.P * self.Q, self.R,
                                    rng=random.Random(6))
        (inner,) = runs
        assert outcome.complete
        assert (outcome.iterations, outcome.gcd_calls, outcome.guess) == (
            inner.iterations, inner.gcd_calls, inner.guess)
        assert outcome.gcd_calls >= 1
        assert outcome.guess == guess_multiple(
            self.R, (self.P * self.Q).bit_length())

    def test_each_value_is_reduced_once(self, monkeypatch):
        reduced = []

        def recording(z):
            reduced.append(z)
            return perfect_power_reduce(z)

        monkeypatch.setattr(engine, "perfect_power_reduce", recording)
        n = self.P * self.Q
        outcome = factor_with_order(n, self.R, rng=random.Random(0))
        assert outcome.complete
        # N on insertion; the split-off primes P and Q are never reduced
        assert reduced == [n]

    def test_no_value_is_tested_twice(self, monkeypatch):
        tested = []

        def recording(z):
            tested.append(z)
            return is_probable_prime(z)

        monkeypatch.setattr(engine, "is_probable_prime", recording)
        rng = random.Random(11)
        for _ in range(4):
            inst = generate_instance(64, 8, 3, rng)
            r = simulate_order(inst, 10**6, rng).order
            tested.clear()
            outcome = factor_with_order(inst.modulus, r, rng=rng)
            assert len(tested) == len(set(tested))
            primes = [p for p, _ in outcome.factorization.pairs]
            assert primes and all(tested.count(p) == 1 for p in primes)
            assert inst.modulus not in tested

    def test_domain(self):
        with pytest.raises(ValueError):
            factor_with_order(2, 1)
        with pytest.raises(ValueError):
            factor_with_order(15, 0)

    @pytest.mark.parametrize("N", [15, P * Q], ids=["trial-division", "engine"])
    @pytest.mark.parametrize("kwargs", [{"c": 0}, {"k": 0}], ids=["c", "k"])
    def test_checks_c_and_k_before_trial_division(self, N, kwargs):
        with pytest.raises(ValueError):
            factor_with_order(N, 4, **kwargs)


def _assert_never_wrong(N, result, truth):
    """Every listed prime power is exact in N; a complete result is N."""
    for p, e in result.factorization.pairs:
        assert truth.get(p) == e, (N, p, e)
    if result.complete:
        assert result.factorization.product() == N


class TestAdversarialInputs:
    CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911)
    # Chernick's (6k+1)(12k+1)(18k+1) at k=1696: every prime is above
    # TRIAL_DIVISION_BOUND and every p - 1 needs 53 > bitlen(N)
    CHERNICK = (10177, 20353, 30529)

    def test_carmichael_numbers(self):
        rng = random.Random(12)
        for n in self.CARMICHAEL:
            truth = trial_division_factorization(n)
            # lambda(n) divides n - 1, so n - 1 is a valid order multiple
            result = recover_factors(n, n - 1, rng=rng)
            assert result.complete, n
            _assert_never_wrong(n, result, truth)
            for r in (1, 2, 3 * 5 * 7, rng.randrange(1, 2**32)):
                result = recover_factors(n, r, k=2, rng=rng)
                _assert_never_wrong(n, result, truth)

    def test_chernick_carmichael_above_trial_division(self):
        n = math.prod(self.CHERNICK)
        assert n == 6323547512449
        truth = {p: 1 for p in self.CHERNICK}
        result = factor_with_order(n, n - 1, rng=random.Random(0))
        assert result.complete
        assert result.factorization.pairs == tuple(sorted(truth.items()))
        for r in (1, 12345):
            result = factor_with_order(n, r, k=3, rng=random.Random(0))
            assert not result.complete
            assert result.factorization.pairs == ()
            # any seed may split off a prime by luck, never a wrong one
            for seed in range(1, 8):
                result = factor_with_order(n, r, k=3,
                                           rng=random.Random(seed))
                assert not result.complete
                _assert_never_wrong(n, result, truth)

    def test_prime_powers(self):
        rng = random.Random(13)
        for p in (10007, 65537, 2**61 - 1, 2**127 - 1):
            for e in (2, 3, 5):
                for r in (1, p - 1, rng.randrange(1, 2**32)):
                    result = factor_with_order(p**e, r, k=1, rng=rng)
                    assert result.complete
                    assert result.factorization.pairs == ((p, e),)
                    assert result.iterations == 0
        for p, e in ((3, 7), (11, 3), (8191, 2)):
            result = recover_factors(p**e, 1, rng=rng)
            assert (result.complete, result.iterations) == (True, 0)
            assert result.factorization.pairs == ((p, e),)

    def test_arbitrary_order_with_fixed_k(self):
        master = random.Random(14)
        complete = 0
        for _ in range(120):
            inst = generate_instance(master.choice((12, 14, 16)),
                                     master.choice((2, 3, 4)),
                                     master.choice((1, 2, 3)), master)
            truth = dict(zip(inst.primes, inst.exponents))
            r = master.choice((1, master.randrange(1, 2**24),
                               master.randrange(1, 2**64)))
            result = factor_with_order(inst.modulus, r,
                                       k=master.choice((1, 2, 3)),
                                       rng=master)
            _assert_never_wrong(inst.modulus, result, truth)
            complete += result.complete
        assert 0 < complete < 120
