"""Problem instances with known factorization, and the order-finding oracle.

An :class:`Instance` is an odd composite N = p1^e1 * ... * pn^en whose
factorization is kept as ground truth. Order finding for a random unit is
provided two ways: exactly, by factoring the component group orders, and
heuristically, by stripping small primes off phi of each component. The
heuristic route never underestimates the order; when it errs, it returns a
multiple whose spurious part has only prime factors above the smoothness
bound.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from ordersplit.ntcore import (is_probable_prime, multiplicative_order,
                               primes_up_to, small_prime_divisors)

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
    """Composite modulus with its known prime-power factorization."""

    primes: tuple[int, ...]
    exponents: tuple[int, ...]
    modulus: int
    bit_length: int

    def __post_init__(self):
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
        n = math.prod(p**e for p, e in zip(self.primes, self.exponents))
        if n != self.modulus:
            raise ValueError("modulus does not match the prime powers")
        if self.modulus.bit_length() != self.bit_length:
            raise ValueError("bit_length does not match the modulus")

    @classmethod
    def from_parts(cls, primes, exponents) -> "Instance":
        primes = tuple(int(p) for p in primes)
        exponents = tuple(int(e) for e in exponents)
        modulus = math.prod(p**e for p, e in zip(primes, exponents))
        return cls(primes, exponents, modulus, modulus.bit_length())

    def prime_powers(self) -> tuple[int, ...]:
        return tuple(p**e for p, e in zip(self.primes, self.exponents))

    def validate(self, rng: random.Random | None = None) -> None:
        """Check the primality of every listed prime (Miller-Rabin)."""
        for p in self.primes:
            if not is_probable_prime(p, rng=rng):
                raise ValueError(f"{p} is not prime")

    def to_json_dict(self) -> dict:
        return {
            "primes": [str(p) for p in self.primes],
            "exponents": list(self.exponents),
            "N": str(self.modulus),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "Instance":
        inst = cls.from_parts([int(p) for p in data["primes"]],
                              [int(e) for e in data["exponents"]])
        if "N" in data and int(data["N"]) != inst.modulus:
            raise ValueError("N field disagrees with the prime powers")
        inst.validate()
        return inst

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class OrderResult:
    """A unit g together with its (exact or approximate) order r."""

    element: int
    order: int
    exact: bool


@lru_cache(maxsize=64)
def _odd_prime_count(bits: int) -> int:
    """Exact number of odd primes with the given bit length (bits <= 20)."""
    primes = primes_up_to((1 << bits) - 1)
    lo = bisect.bisect_left(primes, 1 << (bits - 1))
    count = len(primes) - lo
    if bits == 2:  # exclude 2, the only even prime
        count -= 1
    return count


def generate_instance(l: int, n: int, e_max: int,
                      rng: random.Random) -> Instance:
    """Draw an instance with n distinct odd l-bit primes and exponents
    uniform on [1, e_max].

    Primes are found by rejection: uniform odd l-bit integers are tested
    with Miller-Rabin until n distinct primes accumulate, which samples
    uniformly from the odd l-bit primes.
    """
    if l < 3:
        raise InfeasibleParametersError("prime bit length must be >= 3")
    if n < 2:
        raise InfeasibleParametersError("need at least 2 distinct primes")
    if e_max < 1:
        raise InfeasibleParametersError("e_max must be >= 1")
    # Exact feasibility check while enumeration is cheap; beyond 20 bits the
    # prime count dwarfs any sane n.
    if l <= 20 and _odd_prime_count(l) < n:
        raise InfeasibleParametersError(
            f"only {_odd_prime_count(l)} odd {l}-bit primes exist, need {n}")
    primes: list[int] = []
    while len(primes) < n:
        candidate = (1 << (l - 1)) | rng.getrandbits(l - 1) | 1
        if candidate in primes:
            continue
        if is_probable_prime(candidate, rng=rng):
            primes.append(candidate)
    exponents = [rng.randint(1, e_max) for _ in range(n)]
    return Instance.from_parts(primes, exponents)


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
        if on_factor is not None and 1 < g < modulus:
            on_factor(g)


def _pollard_rho(n: int, rng: random.Random, max_attempts: int = 64) -> int:
    """Nontrivial factor of odd composite n (Brent's cycle variant)."""
    for _ in range(max_attempts):
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    raise InfeasibleParametersError(f"failed to factor {n} within effort cap")


def _factor_completely(n: int, trial_bound: int = 10**6) -> dict[int, int]:
    """Full factorization {prime: exponent} by trial division then rho.

    Deterministic: the rho stream is seeded from n itself.
    """
    factors: dict[int, int] = {}
    for p in small_prime_divisors(n, min(trial_bound, math.isqrt(n) + 1)):
        factors[p] = 0
        while n % p == 0:
            factors[p] += 1
            n //= p
    if n == 1:
        return factors
    rng = random.Random(n)
    stack = [n]
    while stack:
        m = stack.pop()
        if is_probable_prime(m, rng=rng):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m, rng)
        stack.extend((d, m // d))
    return factors


def exact_order(instance: Instance, g: int) -> OrderResult:
    """Exact order of g modulo N, via the factored component group orders.

    For each prime power p^e of the instance, phi(p^e) = p^(e-1)(p-1) is
    fully factored (trial division, then Pollard rho) and the component
    order of g is computed exactly; the order modulo N is their lcm. Only
    practical while each p - 1 can be factored, so desk-scale primes.
    """
    if math.gcd(g, instance.modulus) != 1:
        raise ValueError(f"{g} is not a unit modulo {instance.modulus}")
    order = 1
    for p, e in zip(instance.primes, instance.exponents):
        pe = p**e
        phi_factors = _factor_completely(p - 1)
        if e > 1:
            phi_factors[p] = phi_factors.get(p, 0) + e - 1
        component = multiplicative_order(g % pe, pe, sorted(phi_factors.items()))
        order = math.lcm(order, component)
    return OrderResult(element=g, order=order, exact=True)


def _reduce_component_order(g: int, prime_power: int, phi: int,
                            smooth_bound: int) -> int:
    """Strip primes <= smooth_bound off phi while g stays congruent to 1."""
    order = phi
    # increasing order; the result is order-independent
    for f in small_prime_divisors(phi, smooth_bound):
        while order % f == 0 and pow(g, order // f, prime_power) == 1:
            order //= f
    return order


def _crt(residues, moduli) -> int:
    """Combine residues over pairwise coprime moduli."""
    x, m = residues[0] % moduli[0], moduli[0]
    for r_i, m_i in zip(residues[1:], moduli[1:]):
        x += m * ((r_i - x) * pow(m, -1, m_i) % m_i)
        m *= m_i
    return x % m


def simulate_order(instance: Instance, smooth_bound: int,
                   rng: random.Random) -> OrderResult:
    """Heuristic order finding without factoring the group order.

    Component units g_i are drawn independently, each component order is
    approximated by dividing primes <= smooth_bound off phi(p_i^e_i) while
    the power stays 1, and g is assembled by Chinese remaindering. The
    returned order is always a positive multiple of the true order of g;
    any excess has only prime factors above smooth_bound.
    """
    if smooth_bound < 2:
        raise ValueError("smooth_bound must be >= 2")
    residues: list[int] = []
    moduli: list[int] = []
    order = 1
    for p, e in zip(instance.primes, instance.exponents):
        pe = p**e
        g_i = sample_unit(pe, rng)
        phi = pe // p * (p - 1)
        r_i = _reduce_component_order(g_i, pe, phi, smooth_bound)
        residues.append(g_i)
        moduli.append(pe)
        order = math.lcm(order, r_i)
    g = _crt(residues, moduli)
    return OrderResult(element=g, order=order, exact=False)
