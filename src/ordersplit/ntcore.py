"""Arbitrary-precision number-theory primitives.

Prime sieving, small-prime divisors, probabilistic primality testing,
perfect-power reduction and exact multiplicative orders. Everything here is
a pure function; randomized routines take an explicit ``random.Random``
stream so callers control reproducibility.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache

__all__ = [
    "primes_up_to",
    "small_prime_divisors",
    "eta",
    "is_probable_prime",
    "integer_nth_root",
    "perfect_power_reduce",
    "multiplicative_order",
]

# 4^-64 residual error for composites; negligible against any failure budget
# the callers work with.
DEFAULT_MR_ROUNDS = 64

# Primes per gcd in small_prime_divisors. Larger chunks save little per
# sweep and cost more to build: 256 primes near 10^6 make ~5,000 bits.
_CHUNK = 256


@lru_cache(maxsize=128)
def _sieve(bound: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return tuple(itertools.compress(range(bound + 1), flags))


@lru_cache(maxsize=128)
def _prime_chunks(bound: int) -> tuple[tuple[int, int], ...]:
    """(offset into _sieve(bound), product of the _CHUNK primes from there)."""
    primes = _sieve(bound)
    return tuple((i, math.prod(primes[i:i + _CHUNK]))
                 for i in range(0, len(primes), _CHUNK))


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending (Eratosthenes, memoized per bound)."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if bound < 2:
        return []
    return list(_sieve(bound))


def small_prime_divisors(n: int, bound: int) -> list[int]:
    """Distinct primes <= bound that divide n >= 1, ascending.

    A gcd with the product of each chunk of primes picks the chunks to
    trial-divide. The sweep stops once the next chunk's first prime squared
    exceeds what is left of n, which is then 1 or a prime.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if bound < 2:
        return []
    primes = _sieve(bound)
    found: list[int] = []
    rem = n
    for start, product in _prime_chunks(bound):
        if primes[start] ** 2 > rem:
            break
        if math.gcd(rem, product) == 1:
            continue
        for p in primes[start:start + _CHUNK]:
            if rem % p == 0:
                found.append(p)
                while rem % p == 0:
                    rem //= p
    if 1 < rem <= bound:
        found.append(rem)  # the leftover prime lies within the bound
    return found


def eta(q: int, bound: int) -> int:
    """Largest e >= 1 with q**e <= bound."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if bound < q:
        raise ValueError(f"bound must be >= q, got q={q}, bound={bound}")
    e, power = 1, q
    while power * q <= bound:
        power *= q
        e += 1
    return e


def is_probable_prime(z: int, rounds: int = DEFAULT_MR_ROUNDS,
                      rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test with randomly drawn bases.

    False positives (a composite reported prime) occur with probability at
    most 4**-rounds. Bases come from ``rng`` when given, so results are
    reproducible only under a fixed seed; with rng=None the module-level
    random stream is used.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if z < 2:
        return False
    if z in (2, 3):
        return True
    if z % 2 == 0:
        return False
    src = rng if rng is not None else random
    d, s = z - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = src.randrange(2, z - 1)
        x = pow(a, d, z)
        if x == 1 or x == z - 1:
            continue
        for _ in range(s - 1):
            x = x * x % z
            if x == z - 1:
                break
        else:
            return False
    return True


def integer_nth_root(x: int, n: int) -> int:
    """floor(x ** (1/n)) for x >= 0, n >= 1, by integer Newton iteration."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if n < 1:
        raise ValueError("n must be >= 1")
    if x < 2 or n == 1:
        return x
    # start above the root: 2^ceil(bits/n) >= x^(1/n)
    r = 1 << -(-x.bit_length() // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            return r
        r = nr


def perfect_power_reduce(z: int) -> tuple[int, int]:
    """Reduce z to (base, exp) with base**exp == z and base not a power.

    exp == 1 iff z is not a perfect power. Only prime exponents d are
    probed (z = y^(d1*d2) is also a d1-th power), each by an exact integer
    d-th root, and the reduction is repeated until the base is not itself
    a power.
    """
    if z < 2:
        raise ValueError(f"z must be >= 2, got {z}")
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


def multiplicative_order(g: int, modulus: int,
                         group_order_factorization) -> int:
    """Exact order of g modulo ``modulus``.

    ``group_order_factorization`` is a sequence of (prime, exponent) pairs
    whose product must be a multiple of the order of g; the order is found
    by dividing prime factors off that product while g stays congruent
    to 1.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    g %= modulus
    if math.gcd(g, modulus) != 1:
        raise ValueError(f"{g} is not a unit modulo {modulus}")
    order = 1
    for p, e in group_order_factorization:
        order *= p**e
    if pow(g, order, modulus) != 1:
        raise ValueError("factorization does not cover the order of g")
    for p, _ in group_order_factorization:
        while order % p == 0 and pow(g, order // p, modulus) == 1:
            order //= p
    return order
