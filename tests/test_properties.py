"""Property tests with hypothesis; skipped when it is not installed."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ordersplit.engine import FactorSet  # noqa: E402
from ordersplit.ntcore import (  # noqa: E402
    _CHUNK,
    integer_nth_root,
    is_probable_prime,
    perfect_power_reduce,
    primes_up_to,
    smooth_part,
)

_PRIMES = primes_up_to(200)


@st.composite
def _target_and_divisors(draw):
    """A target made of small prime powers, and divisors of it to insert."""
    primes = draw(st.lists(st.sampled_from(_PRIMES), min_size=1, max_size=6,
                           unique=True))
    exponents = draw(st.lists(st.integers(1, 4), min_size=len(primes),
                              max_size=len(primes)))
    target = math.prod(p**e for p, e in zip(primes, exponents))
    divisors = draw(st.lists(
        st.lists(st.integers(0, 4), min_size=len(primes), max_size=len(primes)),
        max_size=8))
    return target, [math.prod(p ** min(a, e) for p, e, a
                              in zip(primes, exponents, sub))
                    for sub in divisors]


@settings(deadline=None)
@given(_target_and_divisors())
def test_factor_set_stays_coprime_under_insertions(case):
    target, divisors = case
    fs = FactorSet(target)
    for d in divisors:
        fs.add_factor(d)
        values = [v for v, _ in fs.entries]
        assert all(target % v == 0 for v in values)
        assert all(math.gcd(a, b) == 1
                   for i, a in enumerate(values) for b in values[i + 1:])
        if fs.complete:
            assert fs.factorization.product() == target
        # the composite entries hold exactly the primes not yet found
        rest = target // fs.factorization.product()
        composite = [v for v, prime in fs.entries if not prime]
        assert all(rest % w == 0 for w in composite)
        assert pow(math.prod(composite), rest.bit_length(), rest) == 0


class _EagerFactorSet(FactorSet):
    """FactorSet as it was when every inserted piece was reduced at once."""

    def _insert(self, value):
        self._factorization = None
        work = [value]
        bases = set()  # reduced here already: not perfect powers
        while work:
            x = work.pop()
            if x == 1:
                continue
            if x not in bases:
                x, _ = perfect_power_reduce(x)
                bases.add(x)
            if x in self._values:
                continue
            for v in self._values:
                g = math.gcd(x, v)
                if g > 1:
                    if g < v:
                        del self._values[v]
                        work.extend((g, v // g))
                    work.append(x // g)
                    break
            else:
                self._values[x] = None

    def _verdicts(self):
        for v, prime in self._values.items():
            if prime is None:
                self._values[v] = is_probable_prime(v)
        return self._values


@st.composite
def _power_rich_insertions(draw):
    """A target whose prime exponents reach 4, and divisors of it, many of
    them squares, cubes or powers of composites, each with a flag to read
    the set after inserting it."""
    primes = draw(st.lists(st.sampled_from(_PRIMES), min_size=1, max_size=5,
                           unique=True))
    exponents = draw(st.lists(st.integers(1, 4), min_size=len(primes),
                              max_size=len(primes)))
    target = math.prod(p**e for p, e in zip(primes, exponents))
    insertions = []
    for _ in range(draw(st.integers(0, 10))):
        shape = draw(st.lists(st.integers(0, 2), min_size=len(primes),
                              max_size=len(primes)))
        power = draw(st.integers(1, 4))
        d = math.prod(p ** min(a * power, e)
                      for p, e, a in zip(primes, exponents, shape))
        insertions.append((d, draw(st.booleans())))
    return target, insertions


def _observed(fs):
    return fs.entries, fs.factorization


@settings(deadline=None, max_examples=500)
@given(_power_rich_insertions())
def test_lazy_reduction_matches_eager_reduction(case):
    target, insertions = case
    lazy = FactorSet(target)
    eager = _EagerFactorSet(target)
    for d, read in insertions:
        assert lazy.add_factor(d) == eager.add_factor(d)
        if read:
            assert _observed(lazy) == _observed(eager)
    assert _observed(lazy) == _observed(eager)


def _is_perfect_power(z):
    return any(integer_nth_root(z, d) ** d == z
               for d in primes_up_to(z.bit_length() - 1))


@settings(deadline=None)
@given(st.integers(2, 2**64), st.integers(1, 40))
def test_perfect_power_reduce_of_a_power(b, k):
    base, exp = perfect_power_reduce(b**k)
    assert base**exp == b**k
    assert exp % k == 0
    assert not _is_perfect_power(base)


_SWEPT = primes_up_to(10**5)  # 37 chunks, so the sweep's prime test runs


@st.composite
def _split_at_a_bound(draw):
    """A bound at a prime, and prime powers on both sides of it and of a
    chunk edge, where the sweep's chunk of 256 primes turns over."""
    i = draw(st.integers(0, len(_SWEPT) - 1))
    bound = _SWEPT[i] + draw(st.sampled_from((-1, 0, 1)))
    edge = _CHUNK * draw(st.integers(1, (len(_SWEPT) - 1) // _CHUNK))
    near = [j for j in (i - 1, i, i + 1, edge - 1, edge)
            if 0 <= j < len(_SWEPT)]
    picks = draw(st.lists(st.sampled_from(near)
                          | st.integers(0, len(_SWEPT) - 1),
                          min_size=1, max_size=5, unique=True))
    return bound, {_SWEPT[j]: draw(st.integers(1, 3)) for j in picks}


@settings(deadline=None)
@given(_split_at_a_bound(), st.sampled_from((1, 2**61 - 1, 2**89 - 1)))
def test_smooth_part_splits_at_the_bound(case, rough):
    # rough is 1 or a prime above every bound, below and above psi_13
    bound, powers = case
    n = rough * math.prod(p**e for p, e in powers.items())
    exponents, cofactor = smooth_part(n, bound)
    assert cofactor * math.prod(p**e for p, e in exponents.items()) == n
    assert exponents == {p: e for p, e in powers.items() if p <= bound}
    assert cofactor == rough * math.prod(
        p**e for p, e in powers.items() if p > bound)
