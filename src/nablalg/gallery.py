"""Fixture generators and the exhaustive small-instance catalog."""

from __future__ import annotations

import itertools

import numpy as np

from .algebra import (
    FLAG_NAMES,
    NablaAlgebra,
    StrongAlgebraCandidate,
    _assemble,
    classify,
    derive_arrow,
)
from .congruence import is_simple
from .errors import NotDistributive, OutOfRange, ensure
from .lattice import (
    FiniteLattice,
    _family_lattice,
    _locate,
    all_lattices,
    build_lattice,
    heyting_table,
    is_distributive,
)

XN_MAX = 6


def gen_xn(n: int) -> NablaAlgebra:
    """Open-set algebra of the n-point convergent-sequence space with the shift dynamics.

    Points are 1..n plus a limit point; the opens are the whole space and
    every subset of 1..n, so the carrier has 2^n + 1 elements.  The
    dynamics sends x to x+1 (and both n and the limit to the limit); nabla
    is its preimage map and the arrow is recovered by adjoint search.  The
    result is normal, distributive, carries pseudocomplements, and is
    simple: n applications of nabla annihilate every open except the top.
    """
    if not 1 <= n <= XN_MAX:
        raise OutOfRange(f"n must be in 1..{XN_MAX}")
    limit = 0  # the extra non-isolated point
    points = range(1, n + 1)
    opens = sorted([c for r in range(n + 1) for c in itertools.combinations(points, r)]
                   + [(limit, *points)], key=lambda c: (len(c), c))
    # member[i, x]: point x lies in open i; the order is inclusion of rows,
    # and the opens are closed under union, so the complements give the joins
    member = np.array([[x in u for x in range(n + 1)] for u in opens])
    lat = _family_lattice(member, ~member)
    ensure(lat is not None, "the opens must be closed under intersection and union")
    # nabla(U) = {x : shift(x) in U}, with shift(n) = shift(limit) = limit
    shift = np.array([limit, *range(2, n + 1), limit])
    nabla, found = _locate(member, member[:, shift])
    ensure(found.all(), "shift preimages of opens must be open")
    arrow = derive_arrow(lat, nabla)
    ensure(arrow is not None, "shift preimage must admit a residuated arrow")
    alg = _assemble(lat, nabla, arrow)
    profile = classify(alg)
    ensure(profile.has("N", "H", "D"), "shift algebra must be normal distributive Heyting")
    power = np.arange(lat.n)
    for _ in range(n):
        power = alg.nabla[power]
    ensure(all(int(power[u]) == lat.bot for u in range(lat.n) if u != lat.top),
           "n-fold nabla must annihilate every non-top element")
    ensure(is_simple(alg).flag, "shift algebra must be simple")
    return alg


def gen_trivial(lat: FiniteLattice) -> NablaAlgebra:
    """Constant-bottom nabla with constant-top arrow; valid on any lattice.
    The pair is residuated by construction: bot & a <= b and c <= top hold
    for all a, b, c, so both sides of the adjunction are always true and
    the pair goes to ``_assemble`` with nothing to decide."""
    nabla = np.full(lat.n, lat.bot, dtype=np.int64)
    arrow = np.full((lat.n, lat.n), lat.top, dtype=np.int64)
    return _assemble(lat, nabla, arrow)


def gen_heyting(lat: FiniteLattice) -> NablaAlgebra:
    """Identity nabla with the Heyting table as arrow; needs distributivity.
    The lattice module decides that pair residuated when it builds the table."""
    if not is_distributive(lat):
        raise NotDistributive("identity dynamics need a distributive lattice")
    return _assemble(lat, np.arange(lat.n), heyting_table(lat))


def gen_counterexample_cex3() -> StrongAlgebraCandidate:
    """Three-chain arrow that is a well-behaved implication yet residuates no nabla.

    Rows by first argument: bottom and middle rows are constant top; the
    top row is (bot, bot, top).  All implication axioms hold and the arrow
    internalizes meets and joins, but adjoint search fails at the pair
    (middle, bottom).
    """
    lat = build_lattice(np.triu(np.ones((3, 3), dtype=bool)))
    arrow = np.array([[2, 2, 2], [2, 2, 2], [0, 0, 2]], dtype=np.int64)
    return StrongAlgebraCandidate(lat=lat, arrow=arrow)


ENUM_MAX = 6


def _join_preserving_maps(lat: FiniteLattice):
    """Every map that fixes bottom and preserves binary joins, in
    ``itertools.product`` order.

    A depth-first search assigns the images in index order and drops a
    branch as soon as one constraint nabla(a | b) = nabla(a) | nabla(b) has
    all three of its values assigned.
    """
    n, bot, join = lat.n, lat.bot, lat.join.tolist()
    checks = [[] for _ in range(n)]   # checks[k]: constraints whose last index is k
    for a in range(n):
        for b in range(a + 1, n):
            checks[max(b, join[a][b])].append((a, b, join[a][b]))
    image = [0] * n

    def extend(k: int):
        if k == n:
            yield tuple(image)
            return
        for v in (bot,) if k == bot else range(n):
            image[k] = v
            if all(image[c] == join[image[a]][image[b]] for a, b, c in checks[k]):
                yield from extend(k + 1)

    return extend(0)


def enumerate_algebras(max_n: int, flags=None):
    """Every valid (lattice, nabla) dynamics with at most ``max_n`` elements.

    Lattices range over one representative per isomorphism class.  A
    residuated nabla is a left adjoint, so it fixes bottom and preserves
    joins: nabla ranges over those maps only, kept when an arrow residuates
    it (on a non-distributive lattice preserving joins is not enough).
    Optional ``flags`` keeps only algebras whose profile carries all named
    flags; a name outside ``FLAG_NAMES`` is rejected.  Deterministic order.
    """
    if not 1 <= max_n <= ENUM_MAX:
        raise OutOfRange(f"max_n must be in 1..{ENUM_MAX}")
    wanted = frozenset(flags) if flags else frozenset()
    if not wanted <= set(FLAG_NAMES):
        raise OutOfRange(f"flags must be among {','.join(FLAG_NAMES)}, got {sorted(wanted)}")
    for lat in all_lattices(max_n):
        for nabla in _join_preserving_maps(lat):
            nab = np.array(nabla, dtype=np.int64)
            arrow = derive_arrow(lat, nab)
            if arrow is None:
                continue
            alg = _assemble(lat, nab, arrow)
            if wanted and not wanted <= classify(alg).flags():
                continue
            yield alg
