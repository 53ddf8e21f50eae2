"""Complete factorization of an odd composite N from one multiplicative order.

Given the order r of a single random unit, the recovery procedure grows r
into r' by multiplying on every prime power up to a smoothness bound m' =
c * bitlen(N), splits r' = 2^t * o with o odd, and then repeatedly draws
random units x, walking the squaring chain x^o, x^(2o), ..., x^(2^t o) and
taking gcds of (chain value - 1) with the not-yet-factored part of N. Each
nontrivial gcd refines a set of pairwise coprime factors until the set
consists of primes whose powers reconstruct N.

The classic split gcd(g^(r/2) +- 1, N) is included as a baseline, together
with the iteration-count rule and the theoretical failure bound used by the
experiment harness.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from functools import lru_cache

from ordersplit.ntcore import (
    eta,
    is_probable_prime,
    perfect_power_reduce,
    primes_up_to,
    small_prime_divisors,
)
from ordersplit.oracle import sample_unit

__all__ = [
    "GuessedExponent",
    "FactorSet",
    "Factorization",
    "RecoveryResult",
    "FactorOutcome",
    "ShorOutcome",
    "guess_multiple",
    "split_two_adic",
    "recover_factors",
    "factor_with_order",
    "shor_split",
    "choose_k",
    "theoretical_failure_bound",
]

logger = logging.getLogger(__name__)

ODD_ORDER = "odd-order"
MINUS_ONE = "minus-one"


def split_two_adic(v: int) -> tuple[int, int]:
    """Write v = 2^t * o with o odd; returns (t, o)."""
    if v < 1:
        raise ValueError("v must be >= 1")
    t = (v & -v).bit_length() - 1
    return t, v >> t


@lru_cache(maxsize=256)
def _smooth_multiplier(bound: int) -> int:
    """Product of q^eta(q, bound) over all primes q <= bound."""
    acc = 1
    for q in primes_up_to(bound):
        acc *= q ** eta(q, bound)
    return acc


@dataclass(frozen=True)
class GuessedExponent:
    """The grown exponent r' = r * prod q^eta(q, m'), split as 2^t * o."""

    r_prime: int
    t: int
    o: int
    c: int
    m_prime: int


def guess_multiple(r: int, m: int, c: int = 1) -> GuessedExponent:
    """Grow r by every prime power <= m' = c*m, and split off the 2-part.

    The multiplier is applied literally, including for primes that already
    divide r; r' only ever grows, which is what the success analysis needs.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if m < 2:
        raise ValueError("m must be >= 2")
    if c < 1:
        raise ValueError("c must be >= 1")
    m_prime = c * m
    r_prime = r * _smooth_multiplier(m_prime)
    t, o = split_two_adic(r_prime)
    return GuessedExponent(r_prime=r_prime, t=t, o=o, c=c, m_prime=m_prime)


def _multiplicity(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


@dataclass(frozen=True)
class Factorization:
    """Sorted prime-power factorization; the product of the pairs is N."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        primes = [p for p, _ in self.pairs]
        if primes != sorted(primes) or len(set(primes)) != len(primes):
            raise ValueError("primes must be distinct and ascending")
        if any(e < 1 for _, e in self.pairs):
            raise ValueError("exponents must be >= 1")

    def product(self) -> int:
        return math.prod(p**e for p, e in self.pairs)


class FactorSet:
    """A set of nontrivial, pairwise coprime divisors of a target N.

    Insertions are refined by iterated gcd splitting until pairwise
    coprimality is restored; every entry is reduced to a non-power base and
    flagged by a primality test. ``complete`` is recomputed after every
    change: it holds when all entries are prime and their full
    multiplicities in N multiply back to N.
    """

    def __init__(self, target: int, *, rng: random.Random | None = None,
                 entries=()):
        if target < 2:
            raise ValueError("target must be >= 2")
        self.target = target
        self._rng = rng
        self._values: set[int] = set()
        self._prime_cache: dict[int, bool] = {}
        self.complete = False
        for v in entries:
            self._insert(v)
        self._refresh()

    def _is_prime(self, v: int) -> bool:
        flag = self._prime_cache.get(v)
        if flag is None:
            flag = is_probable_prime(v, rng=self._rng)
            self._prime_cache[v] = flag
        return flag

    def _insert(self, value: int) -> None:
        if not 1 < value <= self.target or self.target % value != 0:
            raise ValueError(f"{value} is not a nontrivial divisor of {self.target}")
        work = [value]
        while work:
            x = work.pop()
            if x == 1:
                continue
            x, _ = perfect_power_reduce(x)
            if x in self._values:
                continue
            for v in self._values:
                g = math.gcd(x, v)
                if g > 1:
                    self._values.remove(v)
                    work.extend((g, v // g, x // g))
                    break
            else:
                self._values.add(x)

    def _refresh(self) -> None:
        reconstructed = 1
        all_prime = bool(self._values)
        for v in self._values:
            if self._is_prime(v):
                reconstructed *= v ** _multiplicity(self.target, v)
            else:
                all_prime = False
        self.complete = all_prime and reconstructed == self.target

    def add_factor(self, d: int) -> bool:
        """Merge a nontrivial divisor d of the target into the set.

        Returns False (no-op) when d is not a divisor with 1 < d < target.
        """
        if d <= 1 or d >= self.target or self.target % d != 0:
            logger.debug("rejected %d: not a nontrivial divisor of %d",
                         d, self.target)
            return False
        self._insert(d)
        self._refresh()
        return True

    @property
    def entries(self) -> tuple[tuple[int, bool], ...]:
        return tuple((v, self._is_prime(v)) for v in sorted(self._values))

    def prime_factors(self) -> tuple[int, ...]:
        return tuple(v for v in sorted(self._values) if self._is_prime(v))

    def unresolved_cofactor(self) -> int:
        """Target with all confirmed prime factors (full multiplicity) removed."""
        n = self.target
        for v in self._values:
            if self._is_prime(v):
                while n % v == 0:
                    n //= v
        return n

    def to_factorization(self) -> Factorization:
        if not self.complete:
            raise ValueError("factor set is not complete")
        return Factorization(tuple((p, _multiplicity(self.target, p))
                                   for p in self.prime_factors()))

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return (f"FactorSet(target={self.target}, entries={self.entries}, "
                f"complete={self.complete})")


@dataclass
class RecoveryResult:
    """Outcome of a recovery run plus its work counters."""

    complete: bool
    factorization: Factorization | None
    factor_set: FactorSet
    iterations: int
    gcd_calls: int


def _ceil_log2(m: int) -> int:
    return (m - 1).bit_length()


def default_iteration_cap(m: int) -> int:
    """Iteration budget for run-until-complete mode: 64 * ceil(log2 m)."""
    return 64 * _ceil_log2(m)


def recover_factors(N: int, r: int, *, c: int = 1, k: int | None = None,
                    rng: random.Random | None = None,
                    use_reduced_modulus: bool = True,
                    iteration_cap: int | None = None) -> RecoveryResult:
    """Completely factor odd composite N given a multiple r of a unit's order.

    Runs the grown-exponent squaring-chain procedure: with r' = 2^t * o from
    ``guess_multiple``, each iteration draws x uniformly from the units mod N
    (excluding 1), computes u_0 = x^o and u_i = u_{i-1}^2 modulo N', and
    feeds every nontrivial gcd(u_i - 1, N') into the factor set. N' is N
    with already-confirmed prime factors divided off (full multiplicity);
    pass ``use_reduced_modulus=False`` to keep all arithmetic modulo N.
    Non-unit draws with a nontrivial gcd are exploited as free factors.

    With ``k`` fixed, exactly up to k iterations run; with k=None the loop
    runs until the factorization is complete, capped at
    ``iteration_cap`` (default 64 * ceil(log2 bitlen(N))) to guarantee
    termination when r' misses the needed structure for two or more primes.
    """
    if rng is None:
        rng = random.Random()
    if N % 2 == 0 or N < 9:
        raise ValueError("N must be an odd composite >= 9; strip small "
                         "factors first")
    if is_probable_prime(N, rng=rng):
        raise ValueError("N is prime; nothing to factor")
    if r < 1:
        raise ValueError("r must be >= 1")
    if k is not None and k < 1:
        raise ValueError("k must be >= 1 when fixed")
    m = N.bit_length()
    guess = guess_multiple(r, m, c)
    t, o = guess.t, guess.o
    budget = k if k is not None else (iteration_cap or default_iteration_cap(m))

    fs = FactorSet(N, rng=rng, entries=(N,))
    iterations = 0
    gcd_calls = 0
    for _ in range(budget):
        if fs.complete:
            break
        iterations += 1
        x = sample_unit(N, rng, exclude_one=True, on_factor=fs.add_factor)
        if fs.complete:
            break
        modulus = fs.unresolved_cofactor() if use_reduced_modulus else N
        if modulus == 1:
            break
        u = pow(x % modulus, o, modulus)
        for i in range(t + 1):
            if u == 1:
                break  # the chain stays 1; gcd would be the full modulus
            d = math.gcd(u - 1, modulus)
            gcd_calls += 1
            if 1 < d < modulus:
                fs.add_factor(d)
                if fs.complete:
                    break
            if i < t:
                u = u * u % modulus
        if fs.complete:
            break
    if fs.complete:
        return RecoveryResult(True, fs.to_factorization(), fs,
                              iterations, gcd_calls)
    return RecoveryResult(False, None, fs, iterations, gcd_calls)


@dataclass(frozen=True)
class ShorOutcome:
    """Result of the classic even-order split; reason is set when no split."""

    factors: tuple[int, int] | None
    reason: str | None


def shor_split(N: int, g: int, r: int) -> ShorOutcome:
    """Split N via gcd(g^(r/2) +- 1, N) when r is even and g^(r/2) != -1.

    Requires r to be the exact order of g mod N; raises when g^r != 1 or
    when an even r is exposed as non-minimal by g^(r/2) == 1.
    """
    if math.gcd(g, N) != 1:
        raise ValueError(f"{g} is not a unit modulo {N}")
    if r < 1 or pow(g, r, N) != 1:
        raise ValueError("r is not the order of g")
    if r % 2 == 1:
        return ShorOutcome(None, ODD_ORDER)
    h = pow(g, r // 2, N)
    if h == N - 1:
        return ShorOutcome(None, MINUS_ONE)
    if h == 1:
        raise ValueError("r is not the order of g (g^(r/2) == 1)")
    return ShorOutcome((math.gcd(h - 1, N), math.gcd(h + 1, N)), None)


def choose_k(n_estimate: int, tau: int) -> int:
    """Iteration count ceil((2 + tau) * log2(n)) keeping 2^-k * C(n,2) <= n^-tau."""
    if n_estimate < 2:
        raise ValueError("n_estimate must be >= 2")
    if tau < 1:
        raise ValueError("tau must be >= 1")
    return math.ceil((2 + tau) * math.log2(n_estimate))


def theoretical_failure_bound(n: int, m, c: int, k: int) -> float:
    """Upper bound 2^-k * n(n-1)/2 + 1 / (2 c^2 log2(c m)^2) on failure.

    m may be fractional (the harness reports bounds at a cell-mean bit
    length).
    """
    if n < 2 or m < 2 or c < 1 or k < 1:
        raise ValueError("need n >= 2, m >= 2, c >= 1, k >= 1")
    pair_term = 2.0**-k * n * (n - 1) / 2
    unlucky_term = 1.0 / (2 * c * c * math.log2(c * m) ** 2)
    return pair_term + unlucky_term


@dataclass(frozen=True)
class FactorOutcome:
    """End-to-end factoring result for an arbitrary N >= 3."""

    modulus: int
    factors: tuple[tuple[int, int], ...]
    complete: bool
    iterations: int


def factor_with_order(N: int, r: int, *, c: int = 1, k: int | None = None,
                      tau: int = 1, rng: random.Random | None = None,
                      use_reduced_modulus: bool = True,
                      trial_division_bound: int = 10**4) -> FactorOutcome:
    """Factor any N >= 3 given a multiple r of the order of a unit mod N.

    Pre-processing strips primes up to ``trial_division_bound`` by trial
    division and reduces a perfect-power core to its base, so the recovery
    engine only ever sees an odd composite that is not a prime power. The
    order of any unit modulo a divisor of N divides r, so r stays valid for
    the reduced core.
    """
    if N < 3:
        raise ValueError("N must be >= 3")
    if r < 1:
        raise ValueError("r must be >= 1")
    if rng is None:
        rng = random.Random()
    found = set(small_prime_divisors(N, trial_division_bound))
    core = N
    for p in found:
        while core % p == 0:
            core //= p
    iterations = 0
    if core > 1:
        if is_probable_prime(core, rng=rng):
            found.add(core)
        else:
            base, _ = perfect_power_reduce(core)
            if is_probable_prime(base, rng=rng):
                found.add(base)
            else:
                cap = None
                if k is None:
                    # tau only raises the floor of the budget; the default
                    # cap dominates for every realistic bit length
                    n_bound = max(2, int(base.bit_length() / math.log2(3)))
                    cap = max(default_iteration_cap(base.bit_length()),
                              choose_k(n_bound, tau))
                result = recover_factors(base, r, c=c, k=k, rng=rng,
                                         use_reduced_modulus=use_reduced_modulus,
                                         iteration_cap=cap)
                iterations = result.iterations
                found.update(result.factor_set.prime_factors())
    pairs = tuple(sorted((p, _multiplicity(N, p)) for p in found))
    complete = math.prod(p**e for p, e in pairs) == N
    return FactorOutcome(N, pairs, complete, iterations)
