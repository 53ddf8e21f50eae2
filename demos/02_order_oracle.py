#!/usr/bin/env python3
"""The two order-finding oracles: exact, and heuristic with a smoothness bound.

Exact order finding factors each component group order phi(p^e) completely
and is the ground truth at desk scale. The heuristic starts from phi(p^e)
per component and strips primes up to a bound B_s while the power of the
component unit stays 1 -- no factoring of p - 1 required, so it scales to
cryptographic sizes. Each component costs one sweep of p - 1 for primes
up to B_s and one exponentiation by the rough part of phi(p^e); the rest
is in the B_s-smooth subgroup, so a prime power costs about what a prime
does. Its answer is always a multiple of the true order; when B_s is tiny
the excess becomes visible.

Run: python demos/02_order_oracle.py
"""

import random

from ordersplit import exact_order, generate_instance, simulate_order

rng = random.Random(7)

instance = generate_instance(16, 2, 1, rng)
print(f"N = {instance.modulus} = {instance.primes[0]} * {instance.primes[1]}")

# With a healthy bound the two oracles agree essentially always.
sim = simulate_order(instance, 10**4, random.Random(1))
true = exact_order(instance, sim.element)
print(f"\nB_s = 10^4:  heuristic r = {sim.order}")
print(f"             exact r     = {true.order}   "
      f"({'equal' if sim.order == true.order else 'multiple'})")

# Starve the bound and the heuristic over-reports by exactly the factors
# it was not allowed to strip.
print("\nB_s = 2 (starved):")
for seed in range(7, 15):
    sim = simulate_order(instance, 2, random.Random(seed))
    true = exact_order(instance, sim.element)
    ratio = sim.order // true.order
    print(f"  g = {sim.element:>10}: heuristic {sim.order:>12}  "
          f"exact {true.order:>12}  excess factor {ratio}")
    assert sim.order % true.order == 0

# Excess never hurts the factoring engine: any multiple of the order works,
# which is exactly why the grown exponent r' may overshoot freely.
print("\nevery heuristic answer is a positive multiple of the true order;")
print("the recovery engine only ever needs some multiple, so a starved")
print("bound trades oracle fidelity for speed without breaking anything")
