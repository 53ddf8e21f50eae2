#!/usr/bin/env python3
"""Walk through factoring an integer completely from ONE multiplicative order.

The classic approach needs the order r of g to be even and g^(r/2) != -1,
and even then only yields a single split. Here we instead grow r into a
multiple r' of lcm(p_i - 1) by multiplying on every prime power up to the
bit length of N, write r' = 2^t * o, and square random units up the chain
x^o, x^(2o), ..., x^(2^t o), gcd-ing each value minus one against N. Each
gcd that lands strictly between 1 and N refines a set of pairwise coprime
factors until the full factorization appears.

Run: python demos/01_factor_from_single_order.py
"""

import math
import random

from ordersplit import (
    FactorSet,
    exact_order,
    generate_instance,
    guess_multiple,
    recover_factors,
    sample_unit,
)

rng = random.Random(20260809)

# A modulus with three 12-bit primes, one of them squared now and then.
instance = generate_instance(12, 3, 2, rng)
N = instance.modulus
print(f"N = {N} ({instance.bit_length} bits)")
print("ground truth:",
      " * ".join(f"{p}^{e}" for p, e in zip(instance.primes,
                                            instance.exponents)))

# One order-finding call for one random unit. That is the entire budget.
g = sample_unit(N, rng, exclude_one=True)
r = exact_order(instance, g).order
print(f"\nunit g = {g}, order r = {r}")

# Grow r to r' and split off the power of two.
guess = guess_multiple(r, instance.bit_length, c=1)
print(f"grown exponent r' = {guess.r_prime} = 2^{guess.t} * {guess.o}")
print(f"(smoothness bound m' = {guess.m_prime}, "
      f"r' has {guess.r_prime.bit_length()} bits)")

# Manual walk of the first few iterations, narrated.
factors = FactorSet(N)
iteration = 0
while not factors.complete and iteration < 32:
    iteration += 1
    x = sample_unit(N, rng, exclude_one=True, on_factor=factors.add_factor)
    u = pow(x, guess.o, N)
    print(f"\niteration {iteration}: x = {x}")
    for i in range(guess.t + 1):
        if u == 1:
            print(f"  chain reached 1 at step {i}; nothing more here")
            break
        d = math.gcd(u - 1, N)
        if 1 < d < N:
            print(f"  gcd(x^(2^{i} o) - 1, N) = {d}  <-- nontrivial factor")
            factors.add_factor(d)
            if factors.complete:
                break
        u = u * u % N
    print(f"  factor set now: {[v for v, _ in factors.entries]}")

print(f"\ncomplete after {iteration} iteration(s): "
      f"{factors.factorization.pairs}")

# The packaged routine does the same thing in one call.
result = recover_factors(N, r, rng=random.Random(1))
print(f"\nrecover_factors agrees: {result.factorization.pairs} "
      f"in {result.iterations} iteration(s), {result.gcd_calls} gcds")
assert result.factorization.product() == N
