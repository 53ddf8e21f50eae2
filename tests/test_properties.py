"""Property tests with hypothesis; skipped when it is not installed."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ordersplit.engine import FactorSet  # noqa: E402
from ordersplit.ntcore import (  # noqa: E402
    integer_nth_root,
    perfect_power_reduce,
    primes_up_to,
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
    fs = FactorSet(target, entries=(target,))
    for d in divisors:
        fs.add_factor(d)
        values = [v for v, _ in fs.entries]
        assert all(target % v == 0 for v in values)
        assert all(math.gcd(a, b) == 1
                   for i, a in enumerate(values) for b in values[i + 1:])
        if fs.complete:
            assert fs.factorization.product() == target
        assert math.prod(fs.unresolved_parts()) == (
            target // fs.factorization.product())


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
