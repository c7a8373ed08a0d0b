#!/usr/bin/env python3
"""Averaging a two-slot protocol down to one slot.

A protocol taking two bit-pair slots is turned into a single-slot
protocol by routing the instance coherently into one slot (chosen by a
uniform selector pair) while pre-shared purified copies of the input
distribution fill the other slot. The averaged protocol's information
cost is exactly half the two-slot cost, even though the global simulation
runs at dimension ~4 million. The same holds for three slots, where the
averaged protocol's cost is a third of the three-slot cost at a global
dimension of ~5 billion.
"""

import time

import numpy as np

from qiclab import (
    ALICE,
    BOB,
    and_average_protocol,
    canonical_classical_purification,
    classical_state,
    qic,
    tensor,
    validate,
)
from qiclab.fuzz import random_protocol

# a random 2-message protocol with two single-bit slots per party and no
# pre-shared entanglement (keeps the averaged simulation tractable)
base = random_protocol(
    7, 2, alice_in_dims=(2, 2), bob_in_dims=(2, 2), preshared_dims=(1, 1)
)
print("base protocol slots:", [s.alice_in + s.bob_in for s in base.input_slots])

# input distribution on a bit pair, supported on 00, 01, 10
mu = np.array([[1.0, 1.0], [1.0, 0.0]]) / 3.0

t0 = time.time()
averaged = and_average_protocol(base, mu, 2)
print("averaged protocol built in", round(time.time() - t0, 2), "s;",
      "findings:", validate(averaged))
dim = averaged.preshared.system.total_dim * 2 * 2 * 3
print("global simulation dimension:", dim)

sigma = classical_state(
    mu, [(averaged.alice_in[0].name, 2, ALICE), (averaged.bob_in[0].name, 2, BOB)]
)
t0 = time.time()
lhs = qic(averaged, sigma)
print(f"cost of the averaged protocol = {lhs:.10f}  ({time.time() - t0:.1f}s)")

joint = tensor(
    canonical_classical_purification(mu, "Xa1", "Yb1", "Rc1"),
    canonical_classical_purification(mu, "Xa2", "Yb2", "Rc2"),
)
rhs = qic(base, joint)
print(f"cost of the two-slot protocol = {rhs:.10f}")
print(f"halving identity: {lhs:.10f} vs {rhs / 2:.10f}"
      f"  (difference {abs(lhs - rhs / 2):.2e})")

# three slots: the instance is routed into one of three slots, so each
# entropy splits into the blocks of that direct sum and stays small.
# max_dim bounds the global dimension, here 5,159,780,352, although the
# states hold at most 419,904 nonzero amplitudes; ROADMAP item 2 is to
# make it bound what a run materializes instead.
base3 = random_protocol(
    3, 2, alice_in_dims=(2,) * 3, bob_in_dims=(2,) * 3, preshared_dims=(1, 1)
)
averaged3 = and_average_protocol(base3, mu, 3)
sigma3 = classical_state(
    mu, [(averaged3.alice_in[0].name, 2, ALICE), (averaged3.bob_in[0].name, 2, BOB)]
)
t0 = time.time()
lhs3 = qic(averaged3, sigma3, max_dim=2**62)
elapsed = time.time() - t0
joint3 = tensor(
    joint, canonical_classical_purification(mu, "Xa3", "Yb3", "Rc3")
)
rhs3 = qic(base3, joint3)
print(f"three slots: {lhs3:.10f} vs {rhs3 / 3:.10f}"
      f"  (difference {abs(lhs3 - rhs3 / 3):.2e}, averaged cost in {elapsed:.1f}s)")
