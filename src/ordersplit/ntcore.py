"""Arbitrary-precision number-theory primitives.

Prime sieving, smooth parts, primality testing, perfect-power reduction
and exact multiplicative orders. Everything here is a pure function.
"""

from __future__ import annotations

import bisect
import itertools
import math
from functools import lru_cache

__all__ = [
    "primes_up_to",
    "smooth_part",
    "eta",
    "multiplicity",
    "split_two_adic",
    "is_probable_prime",
    "integer_nth_root",
    "perfect_power_reduce",
    "multiplicative_order",
]

# The 13 primes <= 41: trial divisors and, below _PSI_13, strong-test bases.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_k, the smallest strong pseudoprime to the first k primes, for k = 1
# to 12 (OEIS A014233): below psi_k the strong tests to those k bases
# decide primality exactly (Jaeschke 1993; Sorenson & Webster 2015).
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461)
# psi_13: below it the 13 bases in _SMALL_PRIMES always suffice.
_PSI_13 = 3317044064679887385961981
# Baillie-PSW is exact below 2^64 and, from psi_4 on, cheaper than the bases.
_BPSW_EXACT_BELOW = 1 << 64

# The largest bound primes_up_to and smooth_part sieve to: a bytearray
# of (bound + 1) / 2 bytes (50 MB), kept as a tuple of its primes.
MAX_SIEVE_BOUND = 10**8

# Primes per gcd in smooth_part. Larger chunks save little per
# sweep and cost more to build: 256 primes near 10^6 make ~5,000 bits.
_CHUNK = 256
# Chunks swept before smooth_part tests what is left for
# primality; earlier, the sweep's own p^2 > rem stop is usually cheaper.
_CHUNKS_BEFORE_PRIME_TEST = 4
# The _CHUNK-th prime: _prime_chunks(_FIRST_CHUNK_BOUND) is one chunk.
_FIRST_CHUNK_BOUND = 1619


@lru_cache(maxsize=128)
def _sieve(bound: int) -> tuple[int, ...]:
    if bound < 2:
        return ()
    flags = bytearray([1]) * ((bound + 1) // 2)  # flag i stands for 2i + 1
    flags[0] = 0  # 1 is not a prime
    for i in range(1, (math.isqrt(bound) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            start = p * p // 2
            flags[start::p] = bytes(len(range(start, len(flags), p)))
    return tuple(itertools.chain(
        (2,), itertools.compress(range(1, bound + 1, 2), flags)))


@lru_cache(maxsize=128)
def _prime_chunks(bound: int) -> tuple[tuple[int, int], ...]:
    """(offset into _sieve(bound), product of the _CHUNK primes from there)."""
    primes = _sieve(bound)
    return tuple((i, math.prod(primes[i:i + _CHUNK]))
                 for i in range(0, len(primes), _CHUNK))


def _check_sieve_bound(bound: int) -> None:
    if bound > MAX_SIEVE_BOUND:
        raise ValueError(f"bound must be at most {MAX_SIEVE_BOUND}, "
                         f"got {bound}")


def primes_up_to(bound: int) -> tuple[int, ...]:
    """All primes <= bound, ascending (Eratosthenes over the odd numbers,
    memoized per bound: every call with one bound returns the same tuple).

    Raises ValueError for a bound above MAX_SIEVE_BOUND.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    _check_sieve_bound(bound)
    return _sieve(bound)


def smooth_part(n: int, bound: int) -> tuple[dict[int, int], int]:
    """({p: e}, m) with n = m * prod p^e: the primes p <= bound dividing
    n >= 1, ascending, with their exponents, and m free of primes <= bound.

    A gcd with the product of each chunk of primes picks the chunks to
    trial-divide. The sweep stops once the next chunk's first prime squared
    exceeds what is left of n, which is then 1 or a prime, or, after the
    first few chunks, once what is left is a prime below psi_13, where
    ``is_probable_prime`` is exact: by proof outside [psi_4, 2^64), and
    inside it because no base-2 strong pseudoprime below 2^64 passes the
    Baillie-PSW test (checked against all of them). Raises ValueError for
    a bound above MAX_SIEVE_BOUND.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_sieve_bound(bound)
    primes = _sieve(bound)
    found: dict[int, int] = {}
    rem = n
    tested = 0  # the last rem found not to be a prime below _PSI_13
    for i, (start, product) in enumerate(_prime_chunks(bound)):
        if primes[start] ** 2 > rem:
            break
        if i >= _CHUNKS_BEFORE_PRIME_TEST and rem != tested:
            if rem < _PSI_13 and is_probable_prime(rem):
                break
            tested = rem
        if math.gcd(rem, product) == 1:
            continue
        for p in primes[start:start + _CHUNK]:
            if rem % p == 0:
                found[p] = e = multiplicity(rem, p)
                rem //= p**e
    if 1 < rem <= bound:  # the leftover prime lies within the bound
        found[rem], rem = 1, 1
    return found, rem


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


def multiplicity(n: int, p: int) -> int:
    """Largest e >= 0 with p**e dividing n >= 1, for p >= 2, found by
    stripping p, p^2, p^4, ... while they divide."""
    if n < 1 or p < 2:
        raise ValueError(f"need n >= 1 and p >= 2, got n={n}, p={p}")
    e = 0
    while n % p == 0:
        q, k = p, 1
        while n % q == 0:
            n, e, q, k = n // q, e + k, q * q, 2 * k
    return e


def split_two_adic(v: int) -> tuple[int, int]:
    """Write v = 2^t * o with o odd; returns (t, o)."""
    if v < 1:
        raise ValueError("v must be >= 1")
    t = (v & -v).bit_length() - 1
    return t, v >> t


def _strong_liar(a: int, d: int, t: int, n: int) -> bool:
    """Whether a^d = 1 or a^(2^i d) = -1 (mod n) for some 0 <= i < t.

    With z - 1 = 2^t d, d odd, this is the strong test of z to base a
    when n = z. A base that passes for z passes modulo every divisor
    n > 2 of z, so a base failing modulo such an n is a witness for z.
    """
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(t - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_probable_prime(z: int, a: int) -> bool:
    """Strong (Miller-Rabin) test of odd z > 3 to base a, 1 < a < z - 1."""
    t, d = split_two_adic(z - 1)
    return _strong_liar(a, d, t, z)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of odd n > 41, not a square, with Selfridge's
    parameters: the first D in 5, -7, 9, -11, ... with (D/n) = -1, P = 1
    and Q = (1 - D) / 4.

    With n + 1 = 2^s d, d odd, n passes when U_d = 0 or V_{d 2^r} = 0
    (mod n) for some 0 <= r < s, all read off one ladder on W_k = V_k(P', 1),
    P' = P^2/Q - 2, at two products per bit. As V_2k(P, Q) = Q^k W_k with Q
    a unit, h = (d - 1)/2 gives U_d = 0 iff W_h = W_(h+1), V_d = 0 iff
    W_h + W_(h+1) = 0, and V_{d 2^r} = 0 iff W_{d 2^(r-1)} = 0, with
    W_d = W_h W_(h+1) - P' and W_2k = W_k^2 - 2. Q is a unit mod n: an odd
    prime p dividing Q and n is at most |Q| < |D|, so D = +-p (or 9 for
    p = 3) came earlier in the sequence with (D/n) = 0, which returned False.
    """
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # gcd(D, n) > 1 and |D| < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s, d = split_two_adic(n + 1)
    h = d >> 1
    Pw = (pow(Q, -1, n) - 2) % n  # P' for P = 1
    # (W_j, W_(j+1)) for j = 0, then j = 2j or 2j + 1 per bit of h
    W, W1 = 2, Pw
    for bit in bin(h)[2:]:
        if bit == "1":
            W, W1 = (W * W1 - Pw) % n, (W1 * W1 - 2) % n
        else:
            W, W1 = (W * W - 2) % n, (W * W1 - Pw) % n
    if W == W1 or (W + W1) % n == 0:
        return True  # U_d = 0 or V_d = 0
    W = (W * W1 - Pw) % n  # W_d
    for _ in range(s - 1):
        if W == 0:
            return True  # V_{d 2^r} = 0 for this r >= 1
        W = (W * W - 2) % n
    return False


def is_probable_prime(z: int) -> bool:
    """Primality of z: trial division by the primes <= 41, then one of two
    tests. The answer is exact below
    psi_13 = 3,317,044,064,679,887,385,961,981 (about 3.3e24).

    - Below psi_4 = 3,215,031,751 and in [2^64, psi_13): strong tests to
      the first k primes, the fewest that are exact below psi_k > z
      (Jaeschke 1993; Sorenson & Webster 2015 for k = 12 and 13).
    - In [psi_4, 2^64) and from psi_13 on: the Baillie-PSW test, a strong
      base-2 test, a perfect-square check and a strong Lucas test with
      Selfridge's parameters. Below 2^64 it is exact: no base-2 strong
      pseudoprime there (Feitsma's list) passes its Lucas half (Gilchrist;
      Baillie, Fiori & Wagstaff, Math. Comp. 90, 2021). From psi_13 on no
      composite is known to pass it, though none is proven impossible.
    """
    if z < 2:
        return False
    for p in _SMALL_PRIMES:
        if z % p == 0:
            return z == p
    if z < _PSI[3] or _BPSW_EXACT_BELOW <= z < _PSI_13:
        t, d = split_two_adic(z - 1)
        k = bisect.bisect_right(_PSI, z) + 1
        return all(_strong_liar(a, d, t, z) for a in _SMALL_PRIMES[:k])
    return (_strong_probable_prime(z, 2) and math.isqrt(z) ** 2 != z
            and _strong_lucas_probable_prime(z))


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


@lru_cache(maxsize=None)
def _power_residue_moduli(d: int) -> tuple[tuple[int, int], ...]:
    """The first four primes q = 1 (mod d), each with (q - 1) // d.

    One entry per prime exponent d tried so far.
    """
    moduli = []
    q = 1
    while len(moduli) < 4:
        q += d
        if is_probable_prime(q):
            moduli.append((q, (q - 1) // d))
    return tuple(moduli)


def _may_be_power(z: int, d: int) -> bool:
    """False when a prime q = 1 (mod d) shows that z is no d-th power.

    A d-th power is 0 or a d-th power residue modulo q, and the residues
    are exactly the a with a^((q-1)/d) = 1 (mod q).
    """
    for q, e in _power_residue_moduli(d):
        a = z % q
        if a and pow(a, e, q) != 1:
            return False
    return True


def _exponents_to_try(z: int) -> tuple[int, ...]:
    """The primes d for which z >= 2 may be a d-th power.

    If a prime p <= 1619 (the first _CHUNK primes) divides z with
    multiplicity v, a d-th power has d | v, so d runs over the primes
    dividing v. Otherwise any base of z exceeds 1619 > 2^10, so
    z > 2^(10 d) and d <= (bitlen(z) - 1) // 10.
    """
    ((_, product),) = _prime_chunks(_FIRST_CHUNK_BOUND)
    g = math.gcd(z, product)
    if g == 1:
        return _sieve((z.bit_length() - 1) // 10)
    p = next(p for p in _sieve(_FIRST_CHUNK_BOUND) if g % p == 0)
    v = multiplicity(z, p)
    return tuple(d for d in _sieve(v) if v % d == 0)


def perfect_power_reduce(z: int) -> tuple[int, int]:
    """Reduce z to (base, exp) with base**exp == z and base not a power.

    exp == 1 iff z is not a perfect power. Only prime exponents d are
    probed (z = y^(d1*d2) is also a d1-th power), and only those that a
    small prime factor's multiplicity, or failing one the bit length,
    leaves possible (``_exponents_to_try``). A residue sieve modulo four
    primes q = 1 (mod d) rules out most d (Bach & Sorenson 1993;
    Bernstein 1998); each d it leaves gets an exact integer d-th root,
    taken again while the base stays a d-th power. One pass over z's
    exponents suffices: if z = b^E with b not a power, every prime
    dividing E is among them, and a d-th root leaves b^(E/d).
    """
    if z < 2:
        raise ValueError(f"z must be >= 2, got {z}")
    base, exp = z, 1
    for d in _exponents_to_try(z):
        while _may_be_power(base, d):
            root = integer_nth_root(base, d)
            if root**d != base:
                break
            base, exp = root, exp * d
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
