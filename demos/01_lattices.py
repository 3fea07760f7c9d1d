"""Tour of the lattice layer: order matrices in, validated tables out."""

import numpy as np

from nablalg import (
    build_lattice,
    distributivity_witness,
    heyting_table,
    is_distributive,
    prime_filters,
    upset_lattice,
)

# a lattice is just a square boolean order matrix; everything else is derived
chain3 = build_lattice(np.triu(np.ones((3, 3), dtype=bool)))
print("three-chain meet table:\n", chain3.meet)
print("bot =", chain3.bot, " top =", chain3.top)

# the pentagon is a perfectly good lattice, but the distributive law breaks
covers = [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]
leq = np.eye(5, dtype=bool)
for a, b in covers:
    leq[a, b] = True
for _ in range(5):
    leq |= (leq.astype(int) @ leq.astype(int)) > 0
pentagon = build_lattice(leq)
print("pentagon distributive?", is_distributive(pentagon))
print("violating triple:", distributivity_witness(pentagon))

# relative pseudocomplements exist exactly on distributive lattices
print("three-chain a => b table:\n", heyting_table(chain3))
print("pentagon has a => b table:", heyting_table(pentagon) is not None)

# prime filters are the worlds of the representation later on
print("prime filters of the three-chain:", prime_filters(chain3))

# upsets of any poset form a distributive lattice under inclusion
fam = upset_lattice(np.eye(2, dtype=bool))
print("upsets of a two-element antichain:", [np.flatnonzero(row).tolist() for row in fam.members])
