"""Complete factorization of an odd composite N from one multiplicative order.

Given the order r of a single random unit, the recovery procedure first
splits off gcd(N, r), which holds most primes that divide N more than once.
It then grows r into r' by multiplying on every prime power up to a
smoothness bound m' = c * bitlen(N), splits r' = 2^t * o with o odd, and
repeatedly draws random units x, walking the squaring chain x^o, x^(2o),
..., x^(2^t o) and taking gcds of (chain value - 1) with each composite
factor found so far. Each composite factor gets its own chains, modulo
itself, so ``gcd_calls`` counts one gcd per chain step. The engine walks
each chain in two legs: first with r's odd part, less N's primes, in place
of o, then on to o, only modulo the pieces left composite whose chain did
not reach 1. Each nontrivial gcd refines a set of pairwise coprime factors
until the set consists of primes whose powers reconstruct N.

The classic split gcd(g^(r/2) +- 1, N) is included as a baseline, together
with the iteration-count rule and the theoretical failure bound used by the
experiment harness.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, replace
from functools import lru_cache

from ordersplit.ntcore import (
    eta,
    is_probable_prime,
    multiplicity,
    perfect_power_reduce,
    primes_up_to,
    smooth_part,
    split_two_adic,
)
from ordersplit.oracle import sample_unit

__all__ = [
    "GuessedExponent",
    "FactorSet",
    "Factorization",
    "RecoveryResult",
    "ShorOutcome",
    "guess_multiple",
    "recover_factors",
    "factor_with_order",
    "shor_split",
    "choose_k",
    "theoretical_failure_bound",
]

logger = logging.getLogger(__name__)

ODD_ORDER = "odd-order"
MINUS_ONE = "minus-one"

# factor_with_order strips primes up to this bound before the engine runs
TRIAL_DIVISION_BOUND = 10**4


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


@dataclass(frozen=True)
class Factorization:
    """Prime powers (p, e) with distinct primes in ascending order."""

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
    coprimality is restored. Each entry gets its one ``is_probable_prime``
    verdict when a reader (``entries``, ``factorization`` or ``complete``)
    first needs it, so an entry split again before then is never tested.
    Entries are reduced to non-power bases on first read too, in place,
    and only those found composite: a prime entry is never reduced. The
    set starts from the target's non-power base, reduced on construction,
    so a prime power target is resolved before any split. ``factorization``
    lists the prime entries with their full multiplicities in N, computed
    on read and kept until the next insertion, and ``complete`` holds when
    those prime powers multiply back to N.
    """

    def __init__(self, target: int):
        if target < 2:
            raise ValueError("target must be >= 2")
        self.target = target
        self._values: dict[int, bool | None] = {}  # None: not yet tested
        self._factorization: Factorization | None = None
        self._base, _ = perfect_power_reduce(target)  # not a perfect power
        self._insert(self._base)

    def _insert(self, value: int) -> None:
        self._factorization = None
        work = [value]
        while work:
            x = work.pop()
            if x == 1 or x in self._values:
                continue
            for v in self._values:
                g = math.gcd(x, v)
                if g > 1:
                    if g < v:  # else v divides x: v stays, with its verdict
                        del self._values[v]
                        work.extend((g, v // g))
                    work.append(x // g)
                    break
            else:
                self._values[x] = None

    def _verdicts(self) -> dict[int, bool]:
        if None not in self._values.values():
            return self._values
        verdicts = {}
        for v, prime in self._values.items():
            if prime is None:
                prime = is_probable_prime(v)
                if not prime and v != self._base:
                    base, exp = perfect_power_reduce(v)
                    if exp > 1:  # the base takes the power's place
                        v, prime = base, is_probable_prime(base)
            verdicts[v] = prime
        self._values = verdicts
        return verdicts

    @property
    def factorization(self) -> Factorization:
        if self._factorization is None:
            primes = sorted(v for v, prime in self._verdicts().items() if prime)
            self._factorization = Factorization(
                tuple((p, multiplicity(self.target, p)) for p in primes))
        return self._factorization

    @property
    def complete(self) -> bool:
        return self.factorization.product() == self.target

    def add_factor(self, d: int) -> bool:
        """Merge a nontrivial divisor d of the target into the set.

        Returns True when the set gains an entry. Returns False when d is
        not a divisor with 1 < d < target (a no-op), and when the entries
        already split on d, as for a d found again by a later chain step.
        """
        if d <= 1 or d >= self.target or self.target % d != 0:
            logger.debug("rejected %d: not a nontrivial divisor of %d",
                         d, self.target)
            return False
        size = len(self._values)
        self._insert(d)
        return len(self._values) > size

    def __contains__(self, value: int) -> bool:
        """Whether value is an entry now; runs no primality test."""
        return value in self._values

    @property
    def entries(self) -> tuple[tuple[int, bool], ...]:
        return tuple(sorted(self._verdicts().items()))

    def __repr__(self) -> str:
        # the verdicts as they stand (None: untested); reading them runs none
        return (f"FactorSet(target={self.target}, "
                f"entries={sorted(self._values.items())})")


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of a recovery run plus its work counters.

    ``factorization`` lists the prime powers found so far, with their full
    multiplicity; ``complete`` holds when they multiply back to N. ``guess``
    is the grown exponent the engine ran with, None when it did not run.
    """

    complete: bool
    factorization: Factorization
    iterations: int
    gcd_calls: int
    guess: GuessedExponent | None


def default_iteration_cap(m: int) -> int:
    """Iteration budget for run-until-complete mode: 64 * ceil(log2 m)."""
    return 64 * (m - 1).bit_length()


class _PrimeInputError(ValueError):
    """recover_factors was given a prime N; factor_with_order catches it."""


def _walk_chain(u: int, t: int, w: int, fs: FactorSet) -> tuple[int, int]:
    """Feed each nontrivial gcd(u^(2^i) - 1, w), i = 0..t, into fs.

    Stops once the chain reaches 1, where every later gcd would be w
    itself. Returns the number of gcds taken and u^(2^t) mod w.
    """
    for i in range(t + 1):
        if u == 1:
            return i, u
        d = math.gcd(u - 1, w)
        if 1 < d < w:
            fs.add_factor(d)
        if i < t:
            u = u * u % w
    return t + 1, u


def recover_factors(N: int, r: int, *, c: int = 1, k: int | None = None,
                    rng: random.Random | None = None) -> RecoveryResult:
    """Completely factor odd composite N given a multiple r of a unit's order.

    Runs the grown-exponent squaring-chain procedure. Before any draw,
    gcd(N, r) goes into the factor set: when p^e divides N with e >= 2,
    a unit x has an order modulo p^e divisible by p unless x^(p-1) = 1 mod
    p^e, which holds with probability p^-(e-1), so this gcd splits off
    most repeated primes at no modexp cost. Then, with r' = 2^t * o from
    ``guess_multiple``, each iteration draws x uniformly from the units
    mod N (excluding 1) and walks chains per composite entry w of the
    factor set, modulo w itself: u_0 = x^e and u_i = u_{i-1}^2 mod w for
    i <= t, feeding every nontrivial gcd(u_i - 1, w) into the factor set.
    Each entry gets two legs. The first takes e = o_1, the odd part of r less
    every prime of N, which changes only multiplicities: whether a prime p of
    w divides a gcd depends on e only modulo ord_p(x), which divides p - 1.
    Its chain from y = x^o_1 mod w ends at u_t = y^(2^t). The second takes
    e = o, as y^(o / o_1), modulo each piece v of w still composite (w itself
    if the first leg did not split it) with u_t != 1 mod v: where u_t = 1,
    y's order mod v is a power of 2, which an odd exponent keeps, so its gcds
    would repeat the first leg's. A prime of N dividing ord_p(x) keeps
    u_t != 1 mod p, so all of o reaches p. A prime piece cannot split again,
    so for the same draws each iteration's factor set refines that of the
    paper's one chain x^o modulo N, taken against every composite entry: the
    run completes no later, draws no more units and lists only true prime
    powers. ``gcd_calls`` counts one gcd per chain step. Non-unit draws with
    a nontrivial gcd are exploited as free factors.

    With ``k`` fixed, up to k iterations run; with k=None the loop runs
    until the factorization is complete, capped at
    ``default_iteration_cap(bitlen(N))`` to guarantee termination when r'
    misses the needed structure for two or more primes. Completeness is
    read only between iterations, so every chain of an iteration runs to
    its end; pieces a chain splits again are never tested for primality.
    The result carries the prime powers found, complete or not, and the
    grown exponent.

    N itself gets its ``is_probable_prime`` verdict only if neither
    gcd(N, r) nor the first iteration splits it: a split proves N
    composite at no cost. A prime N then raises ValueError, one draw
    later. A proper power's base is tested before any draw, so a prime
    power resolves with no iteration. ``rng`` drives only unit draws.
    """
    if rng is None:
        rng = random.Random()
    if N % 2 == 0 or N < 9:
        raise ValueError("N must be an odd composite >= 9; strip small "
                         "factors first")
    fs = FactorSet(N)
    if k is not None and k < 1:
        raise ValueError("k must be >= 1 when fixed")
    m = N.bit_length()
    guess = guess_multiple(r, m, c)
    t, o = guess.t, guess.o
    budget = k if k is not None else default_iteration_cap(m)
    g = math.gcd(N, r)  # p | r for most p with p^2 | N
    if 1 < g < N:
        fs.add_factor(g)

    o_1 = split_two_adic(r)[1]
    while (g := math.gcd(o_1, N)) > 1:  # N's own primes: see above
        o_1 //= g
    o_2 = o // o_1

    def composite_pieces(w: int) -> list[int]:
        # an unsplit w is its own piece, with its verdict or, if it is N,
        # still none: N waits untested until the first iteration
        return [w] if w in fs else [v for v, prime in fs.entries
                                    if not prime and w % v == 0]

    iterations = gcd_calls = 0
    while iterations < budget and (not iterations and N in fs
                                   or not fs.complete):  # read only here
        iterations += 1
        x = sample_unit(N, rng, exclude_one=True, on_factor=fs.add_factor)
        for w in composite_pieces(N):
            y = pow(x % w, o_1, w)
            steps, u = _walk_chain(y, t, w, fs)
            gcd_calls += steps
            for v in composite_pieces(w):
                if u % v != 1:  # else leg 2 repeats leg 1's gcds modulo v
                    gcd_calls += _walk_chain(pow(y % v, o_2, v), t, v, fs)[0]
    if fs.factorization.pairs == ((N, 1),):
        raise _PrimeInputError("N is prime; nothing to factor")
    return RecoveryResult(fs.complete, fs.factorization, iterations,
                          gcd_calls, guess)


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


def factor_with_order(N: int, r: int, *, c: int = 1, k: int | None = None,
                      rng: random.Random | None = None) -> RecoveryResult:
    """Factor any N >= 3 given a multiple r of the order of a unit mod N.

    Pre-processing splits off N's ``TRIAL_DIVISION_BOUND``-smooth part by
    trial division, and the core left goes to ``recover_factors``, whose factor
    set gives the one primality verdict on it, after the first chain if
    gcd(core, r) and that chain leave it whole: a prime core is then done,
    and a prime power resolves with no iteration. The order of any unit
    modulo a divisor of N divides r, so r stays valid for the core. The
    result lists every prime found with its multiplicity in N; its counters
    and ``guess`` come from ``recover_factors``, if it ran on a composite
    core.
    """
    if N < 3:
        raise ValueError("N must be >= 3")
    if r < 1:
        raise ValueError("r must be >= 1")
    if c < 1:
        raise ValueError("c must be >= 1")
    if k is not None and k < 1:
        raise ValueError("k must be >= 1 when fixed")
    found, core = smooth_part(N, TRIAL_DIVISION_BOUND)
    result = RecoveryResult(False, Factorization(()), 0, 0, None)
    if core > 1:
        try:
            result = recover_factors(core, r, c=c, k=k, rng=rng)
        except _PrimeInputError:
            found[core] = 1
        else:  # core holds every power of its primes: multiplicities in N
            found.update(result.factorization.pairs)
    factorization = Factorization(tuple(sorted(found.items())))
    return replace(result, complete=factorization.product() == N,
                   factorization=factorization)
