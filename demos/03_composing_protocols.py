#!/usr/bin/env python3
"""Composition rules and their exact cost identities.

Parallel composition adds information costs on product inputs; freezing
one slot of a two-slot protocol splits the joint cost; the coherent
convex mixture averages costs; the mixed input's cost dominates the
mixture of costs.
"""

import numpy as np

from qiclab import (
    concavity_check,
    convex_mix,
    fix_input,
    parallel_compose,
    qic,
    tensor,
)
from qiclab.fuzz import random_input_density, random_protocol

rng = np.random.default_rng(1)

p1 = random_protocol(rng, 4)
p2 = random_protocol(rng, 2)
r1 = random_input_density(p1, rng)
r2 = random_input_density(p2, rng)

# --- running side by side -------------------------------------------------
both = parallel_compose(p1, p2)
joint = tensor(
    r1.renamed({r.name: r.name + "#1" for r in p1.alice_in + p1.bob_in}),
    r2.renamed({r.name: r.name + "#2" for r in p2.alice_in + p2.bob_in}),
)
print("parallel composition:")
print("  cost(joint)          =", qic(both, joint))
print("  cost(p1) + cost(p2)  =", qic(p1, r1) + qic(p2, r2))

# --- freezing a slot --------------------------------------------------------
r1c = r1.renamed({r.name: r.name + "#1" for r in p1.alice_in + p1.bob_in})
r2c = r2.renamed({r.name: r.name + "#2" for r in p2.alice_in + p2.bob_in})
only_first = fix_input(both, "second", r2c)
only_second = fix_input(both, "first", r1c)
print("input fixing:")
print("  cost(slot1) + cost(slot2) =", qic(only_first, r1c) + qic(only_second, r2c))
print("  cost(joint)               =", qic(both, joint))

# --- coherent convex mixture ------------------------------------------------
q1 = random_protocol(rng, 2)
q2 = random_protocol(rng, 2)
rho = random_input_density(q1, rng, classical=True)
for prob in (0.0, 0.3, 1.0):
    mix = convex_mix(q1, q2, prob)
    lhs = qic(mix, rho)
    rhs = prob * qic(q1, rho) + (1 - prob) * qic(q2, rho)
    print(f"mixture prob={prob}: cost {lhs:.6f} vs average {rhs:.6f}")

# --- concavity in the input -------------------------------------------------
p = random_protocol(rng, 2)
rho1 = random_input_density(p, rng)
rho2 = random_input_density(p, rng)
rep = concavity_check(p, rho1, rho2, 0.5)
print("input concavity:")
print(f"  cost(mixed input) = {rep.lhs:.6f} >= {rep.rhs:.6f} = mixture of costs"
      f"  (slack {rep.slack:+.2e})")
