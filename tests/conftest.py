"""Shared independent oracles for the test suite.

These deliberately avoid the package's own code paths: naive reference
implementations used to freeze or cross-check expected values, and a
fixture that keeps tests of the sieve limit from sieving past it.
"""

import math

import pytest

from ordersplit import ntcore


@pytest.fixture
def refuse_large_sieves(monkeypatch):
    """Fail, before allocating, any sieve above ntcore.MAX_SIEVE_BOUND."""
    sieve = ntcore._sieve

    def guarded(bound):
        assert bound <= ntcore.MAX_SIEVE_BOUND, f"sieve to {bound} attempted"
        return sieve(bound)

    monkeypatch.setattr(ntcore, "_sieve", guarded)


def naive_sieve(bound):
    """Trial-division primality for everything up to bound."""
    out = []
    for n in range(2, bound + 1):
        for d in range(2, int(math.isqrt(n)) + 1):
            if n % d == 0:
                break
        else:
            out.append(n)
    return out


def brute_force_order(g, n):
    """Smallest r >= 1 with g^r == 1 mod n, by stepping."""
    if math.gcd(g, n) != 1:
        raise ValueError("not a unit")
    x, r = g % n, 1
    while x != 1:
        x = x * g % n
        r += 1
    return r


def smallest_prime_factors(bound):
    """spf[i] = smallest prime factor of i, for 0 <= i <= bound."""
    spf = list(range(bound + 1))
    for i in range(2, math.isqrt(bound) + 1):
        if spf[i] == i:
            for j in range(i * i, bound + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def spf_factorize(n, spf):
    """Full factorization {prime: exponent} from a smallest-factor table."""
    factors = {}
    while n > 1:
        p = spf[n]
        factors[p] = factors.get(p, 0) + 1
        n //= p
    return factors


def trial_division_factorization(n):
    """Full factorization by schoolbook trial division."""
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors
