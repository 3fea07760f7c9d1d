"""Opt-in sweep over the lattice generator, kept outside the default test
paths because it takes seconds rather than milliseconds.  Run it by path:

    pytest sweeps -q

It reproduces the 1,078 classes of 9-element lattices (OEIS A006966) and
checks every class again: its order is a lattice by a pairwise oracle, and no
other class with the same signatures is isomorphic to it.
"""

from collections import Counter

from nablalg.lattice import _signatures, all_lattices, lattice_iso


def is_lattice(leq):
    """A top, and a greatest lower bound for every pair: x with x <= a and
    x <= b above every y with y <= a and y <= b."""
    low = leq[:, :, None] & leq[:, None, :]         # [x, a, b]: x <= a, x <= b
    greatest = low & (~low[:, None] | leq[:, :, None, None]).all(axis=0)
    return bool(leq.all(axis=0).any() and greatest.any(axis=0).all())


def test_nine_element_lattice_classes():
    lats = all_lattices(9)
    counts = Counter(lat.n for lat in lats)
    assert [counts[n] for n in range(1, 10)] == [1, 1, 1, 2, 5, 15, 53, 222, 1078]
    buckets = {}
    for lat in lats:
        assert is_lattice(lat.leq)
        buckets.setdefault((lat.n, tuple(sorted(_signatures(lat.leq)))), []).append(lat)
    for bucket in buckets.values():
        for i, a in enumerate(bucket):
            assert all(lattice_iso(a, b) is None for b in bucket[:i])
