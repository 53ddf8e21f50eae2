"""Problem instances with known factorization, and the order-finding oracle.

An :class:`Instance` is an odd composite N = p1^e1 * ... * pn^en whose
factorization is kept as ground truth. Order finding for a random unit is
provided two ways: exactly, by factoring the component group orders, and
heuristically, from the smooth part of phi of each component. The
heuristic route never underestimates the order; when it errs, it returns a
multiple whose spurious part has only prime factors above the smoothness
bound.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from ordersplit.ntcore import (MAX_SIEVE_BOUND, _jacobi, _strong_liar,
                               is_probable_prime, multiplicative_order,
                               primes_up_to, smooth_part, split_two_adic)

__all__ = [
    "InfeasibleParametersError",
    "Instance",
    "OrderResult",
    "generate_instance",
    "sample_unit",
    "exact_order",
    "simulate_order",
]


class InfeasibleParametersError(ValueError):
    """Raised when the requested parameters cannot be realized by the oracle."""


@dataclass(frozen=True)
class Instance:
    """Composite modulus N, computed from its prime-power factorization."""

    primes: tuple[int, ...]
    exponents: tuple[int, ...]
    modulus: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "primes", tuple(self.primes))
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if len(self.primes) != len(self.exponents):
            raise ValueError("primes and exponents must have equal length")
        if len(self.primes) < 2:
            raise ValueError("an instance needs at least two distinct primes")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError("primes must be distinct")
        if any(p < 3 or p % 2 == 0 for p in self.primes):
            raise ValueError("primes must be odd")
        if any(e < 1 for e in self.exponents):
            raise ValueError("exponents must be >= 1")
        object.__setattr__(self, "modulus", math.prod(
            p**e for p, e in zip(self.primes, self.exponents)))

    @property
    def bit_length(self) -> int:
        return self.modulus.bit_length()

    def to_json_dict(self) -> dict:
        return {
            "primes": [str(p) for p in self.primes],
            "exponents": list(self.exponents),
            "N": str(self.modulus),
        }


@dataclass(frozen=True)
class OrderResult:
    """A unit g together with its (exact or approximate) order r."""

    element: int
    order: int
    exact: bool


@lru_cache(maxsize=64)
def _odd_prime_count(bits: int) -> int:
    """Exact number of odd primes with the given bit length, bits >= 3:
    pi(n) - pi(n // 2) for n = 2^bits - 1, by Lucy's form of Legendre's
    count (Lehmer, Illinois J. Math. 3, 1959) in O(n^(3/4)) steps. After
    sieving by p, small[v] and large[i] (v, i <= sqrt(n)) count the
    integers in [2, v] and [2, n // i] that are prime or have no prime
    factor <= p."""
    n = (1 << bits) - 1
    r = math.isqrt(n)
    small = [v - 1 for v in range(r + 1)]
    large = [0] + [n // i - 1 for i in range(1, r + 1)]
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue  # p is composite
        below, p2 = small[p - 1], p * p
        for i in range(1, min(r, n // p2) + 1):
            d = i * p
            large[i] -= (large[d] if d <= r else small[n // d]) - below
        for v in range(r, p2 - 1, -1):
            small[v] -= small[v // p] - below
    return large[1] - large[2]


# The odd primes <= 2000: the gcd of a sampler candidate with their
# product is its small-factor part (about 85% of odd candidates have one).
_SMALL_ODD_PRIMES_PRODUCT = math.prod(primes_up_to(2000)[1:])
_SAMPLER_ROUNDS = 64
# The sampler's screen trial-divides an l-bit candidate by the primes in
# (2000, B(l)], B(l) = l^2 / _SCREEN_DIVISOR up to _SCREEN_BOUND_CAP: at
# l = 1024, 16 timed best of 4, 8, 16 and 32 (8 and 16 within noise).
_SCREEN_DIVISOR = 16
_SCREEN_BOUND_CAP = 1 << 20
# The least l with a prime, 2003, in (2000, l^2 / _SCREEN_DIVISOR].
_SCREEN_MIN_BITS = 180
# exact_order factors p - 1 by trial division and rho: desk-scale primes only
EXACT_ORDER_BIT_LIMIT = 64
_TRIAL_BOUND = 10**6  # the largest prime _factor_completely trial-divides by
_RHO_ATTEMPTS = 64  # rho restarts before a composite counts as infeasible


def _skip_randrange(rng: random.Random, start: int, stop: int,
                    count: int) -> None:
    """Advance rng as ``count`` calls rng.randrange(start, stop) would,
    for start < stop.

    For a random.Random itself the draws are made inline, as randrange
    makes them through ``_randbelow_with_getrandbits`` (the same in
    CPython 3.10 to 3.13): getrandbits(k), k the bit length of the width,
    until a value below the width. Any other rng, subclasses included, is
    called.
    """
    if type(rng) is not random.Random:
        for _ in range(count):
            rng.randrange(start, stop)
        return
    width = stop - start
    getrandbits, k = rng.getrandbits, width.bit_length()
    for _ in range(count):
        while getrandbits(k) >= width:
            pass


def _screen_bound(l: int) -> int:
    """B(l) = l^2 / _SCREEN_DIVISOR, capped at _SCREEN_BOUND_CAP."""
    return min(l * l // _SCREEN_DIVISOR, _SCREEN_BOUND_CAP)


@lru_cache(maxsize=16)
def _medium_odd_primes_product(l: int) -> int:
    """M_l, the product of the primes in (2000, B(l)], 1 below
    _SCREEN_MIN_BITS bits, from one sieve per power of two."""
    bound = _screen_bound(l)
    primes = primes_up_to(1 << (bound - 1).bit_length())
    values = primes[bisect.bisect_right(primes, 2000):
                    bisect.bisect_right(primes, bound)]
    while len(values) > 1:  # pairwise rounds: one math.prod is quadratic
        values = [math.prod(values[i:i + 2])
                  for i in range(0, len(values), 2)]
    return math.prod(values)


def _passes_strong_tests(c: int, rng: random.Random) -> bool:
    """Whether odd c > 3 passes _SAMPLER_ROUNDS strong tests, each to a
    fresh base rng.randrange(2, c - 1), stopping at the first witness.

    The rng calls and the verdict are those of testing every drawn base
    in full; only tests whose outcome is known in advance are skipped.
    A base that passes for c passes modulo every divisor of c, so when
    the small-factor part s of c is proper (1 < s < c), a base failing
    modulo s is a witness and needs no test modulo c. So is a base with
    a^((c-1)/2) != (a/c) (mod s), as every strong liar for c is an Euler
    liar, a^((c-1)/2) = (a/c) (mod c) (Pomerance, Selfridge & Wagstaff,
    Math. Comp. 35, 1980). Before the first full test of an l-bit c, one
    gcd with M_l finds its primes in (2000, B(l)], and they join s: trial
    division pays up to B ~ E/D, E the time of an l-bit modexp and D that
    of ruling out one prime (Menezes, van Oorschot & Vanstone, Handbook
    of Applied Cryptography, Note 4.45), and E ~ l^3, D ~ l. Otherwise,
    once the first base passes and ``is_probable_prime`` finds c prime,
    the other bases are drawn untested, because a prime has no witness;
    for a random.Random they are drawn without randrange, from the same
    stream (``_skip_randrange``).
    """
    t, d = split_two_adic(c - 1)
    s = math.gcd(c, _SMALL_ODD_PRIMES_PRODUCT)
    if not 1 < s < c:
        s = 1
    for i in range(_SAMPLER_ROUNDS):
        a = rng.randrange(2, c - 1)
        if s > 1 and not (_strong_liar(a, d, t, s)
                          and pow(a, c >> 1, s) == _jacobi(a, c) % s):
            return False
        # M_l is empty below _SCREEN_MIN_BITS, and no gcd runs there
        if i == 0 and c >> _SCREEN_MIN_BITS - 1:
            f = math.gcd(c, _medium_odd_primes_product(c.bit_length()))
            if f > 1:
                s *= f
                if not (_strong_liar(a, d, t, s)
                        and pow(a, c >> 1, s) == _jacobi(a, c) % s):
                    return False
        if not _strong_liar(a, d, t, c):
            return False
        if i == 0 and s == 1 and is_probable_prime(c):
            _skip_randrange(rng, 2, c - 1, _SAMPLER_ROUNDS - 1)
            return True
    return True


def generate_instance(l: int, n: int, e_max: int,
                      rng: random.Random) -> Instance:
    """Draw an instance with n distinct odd l-bit primes and exponents
    uniform on [1, e_max].

    Primes are found by rejection: uniform odd l-bit integers are tested
    with up to 64 strong tests to random bases from ``rng`` until n
    distinct primes accumulate, which samples uniformly from the odd l-bit
    primes. A composite passes with probability at most 4^-64.

    Seeded instances, and every draw after them, rest on exactly these
    draws: one base per test, stopping at the first witness. The tests
    themselves take four shortcuts (see ``_passes_strong_tests``): a
    candidate with a small prime factor is first tested modulo that part,
    a base that passes there is then checked to be an Euler-Jacobi liar
    modulo it (every strong liar is one), a candidate of l >= 180 bits
    first has its primes in (2000, l^2/16] found by one gcd and joined to
    that part (HAC Note 4.45's trial-division bound B ~ E/D), and a
    candidate that ``is_probable_prime`` finds prime has its last 63
    bases drawn but not tested, without randrange when ``rng`` is a
    random.Random, from the same stream. The draws and the verdicts are
    those of the full tests for every l <= 81, below psi_13 ~ 3.3e24,
    where ``is_probable_prime`` is exact: by proof outside [psi_4, 2^64),
    and inside it because no base-2 strong pseudoprime below 2^64 passes
    the Baillie-PSW test (checked against all of them). Above psi_13 they
    could differ only if a Baillie-PSW pseudoprime were drawn, and none
    is known.
    """
    if l < 3:
        raise InfeasibleParametersError("prime bit length must be >= 3")
    if n < 2:
        raise InfeasibleParametersError("need at least 2 distinct primes")
    if e_max < 1:
        raise InfeasibleParametersError("e_max must be >= 1")
    # From 28 bits on, the prime count exceeds any n that ExperimentConfig's
    # smoothness-bound cap admits.
    if l <= 27 and _odd_prime_count(l) < n:
        raise InfeasibleParametersError(
            f"only {_odd_prime_count(l)} odd {l}-bit primes exist, need {n}")
    primes: dict[int, None] = {}  # insertion-ordered, with O(1) lookup
    while len(primes) < n:
        candidate = (1 << (l - 1)) | rng.getrandbits(l - 1) | 1
        if candidate in primes:
            continue
        if _passes_strong_tests(candidate, rng):
            primes[candidate] = None
    exponents = [rng.randint(1, e_max) for _ in range(n)]
    return Instance(tuple(primes), exponents)


def sample_unit(modulus: int, rng: random.Random, *,
                exclude_one: bool = False,
                on_factor: Callable[[int], object] | None = None) -> int:
    """Uniform unit modulo ``modulus`` by rejection sampling.

    Rejected draws x with 1 < gcd(x, modulus) < modulus expose a nontrivial
    factor of the modulus for free; pass ``on_factor`` to receive those.
    With ``exclude_one`` the unit 1 is rejected as uninformative.
    """
    if modulus < 3:
        raise ValueError("modulus must be >= 3")
    while True:
        x = rng.randrange(1, modulus)
        g = math.gcd(x, modulus)
        if g == 1:
            if exclude_one and x == 1:
                continue
            return x
        if on_factor is not None:  # 1 < g <= x < modulus
            on_factor(g)


def _pollard_rho(n: int) -> int:
    """Nontrivial factor of odd composite n (Brent's cycle variant), drawn
    from random.Random(n); a batch whose gcd catches every prime of n
    restarts from a fresh draw."""
    rng = random.Random(n)
    for _ in range(_RHO_ATTEMPTS):
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g < n:
            return g
    raise InfeasibleParametersError(f"failed to factor {n} within effort cap")


def _factor_completely(n: int) -> dict[int, int]:
    """Full factorization {prime: exponent} by trial division then rho.

    Deterministic: each rho call seeds its own stream from the composite
    it splits.
    """
    # a power of two >= sqrt(n) keeps one sieve per bit length of n
    factors, n = smooth_part(n, min(_TRIAL_BOUND,
                                    1 << (n.bit_length() + 1) // 2))
    if n == 1:
        return factors
    stack = [n]
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    return factors


def check_exact_order_bits(l: int) -> None:
    """Refuse l-bit primes that exact_order cannot take, before any draw."""
    if l > EXACT_ORDER_BIT_LIMIT:
        raise InfeasibleParametersError(
            f"exact order finding is limited to primes of at most "
            f"{EXACT_ORDER_BIT_LIMIT} bits")


def exact_order(instance: Instance, g: int) -> OrderResult:
    """Exact order of g modulo N, via the factored component group orders.

    For each prime power p^e of the instance, phi(p^e) = p^(e-1)(p-1) is
    fully factored (trial division, then Pollard rho) and the component
    order of g is computed exactly; the order modulo N is their lcm. Only
    practical while each p - 1 can be factored, so desk-scale primes: any
    prime over EXACT_ORDER_BIT_LIMIT bits raises InfeasibleParametersError.
    """
    check_exact_order_bits(max(instance.primes).bit_length())
    if math.gcd(g, instance.modulus) != 1:
        raise ValueError(f"{g} is not a unit modulo {instance.modulus}")
    order = 1
    for p, e in zip(instance.primes, instance.exponents):
        pe = p**e
        phi_factors = _factor_completely(p - 1)
        if e > 1:
            phi_factors[p] = e - 1
        component = multiplicative_order(g % pe, pe, sorted(phi_factors.items()))
        order = math.lcm(order, component)
    return OrderResult(element=g, order=order, exact=True)


def _reduce_component_order(g: int, p: int, e: int, smooth_bound: int) -> int:
    """phi(p^e) with each prime <= smooth_bound cut to its power in ord(g):
    U times ord(g^U), U the rough part of phi. Only p - 1 is swept."""
    smooth, rough = smooth_part(p - 1, smooth_bound)
    if e > 1 and p <= smooth_bound:
        smooth[p] = e - 1
    else:
        rough *= p ** (e - 1)
    pe = p**e
    return rough * multiplicative_order(pow(g, rough, pe), pe, smooth.items())


def simulate_order(instance: Instance, smooth_bound: int,
                   rng: random.Random) -> OrderResult:
    """Heuristic order finding without factoring the group order.

    Component units g_i are drawn independently, each component order is
    approximated by dividing primes <= smooth_bound off phi(p_i^e_i) while
    the power stays 1, and g is assembled by Chinese remaindering. Each
    component costs one sweep of p_i - 1 and one exponentiation by the
    rough part of phi(p_i^e_i); the rest is in the smooth subgroup, so a
    prime power costs about what a prime does. The returned order is
    always a positive multiple of the true order of g; any excess has only
    prime factors above smooth_bound, which must lie in
    [2, MAX_SIEVE_BOUND]: at 10^8 a heuristic `ordersplit simulate` peaks
    near 312 MiB.
    """
    if not 2 <= smooth_bound <= MAX_SIEVE_BOUND:
        raise ValueError(f"smooth_bound must be in [2, {MAX_SIEVE_BOUND}]")
    g, m, order = 0, 1, 1  # g is the unit modulo m, the product so far
    for p, e in zip(instance.primes, instance.exponents):
        pe = p**e
        g_i = sample_unit(pe, rng)
        r_i = _reduce_component_order(g_i, p, e, smooth_bound)
        order = math.lcm(order, r_i)
        g += m * ((g_i - g) * pow(m, -1, pe) % pe)
        m *= pe
    return OrderResult(element=g, order=order, exact=False)
