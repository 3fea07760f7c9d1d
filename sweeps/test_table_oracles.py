"""Opt-in sweep of the n^3 oracles behind the checks that table construction
no longer repeats, on all 1,078 lattices of 9 elements.  Run it by path:

    pytest sweeps -q

``build_lattice`` takes its meet and join tables from the join-irreducible
coordinates, whose lookup finds true meets and joins; here they must equal
the cube of common bounds, pass the slabbed associativity scan and satisfy
the other lattice laws, which ``build_lattice`` no longer checks.  On every
distributive lattice the Heyting table, by either route, must equal the cube
``_greatest``, and the Galois test ``_residuated`` (``CUBE_MAX`` patched to 0
so that it runs at 9 elements) must agree with the scan of all triples on the
Heyting pair and on a copy with one arrow entry changed.  The recursion over
lower covers, called directly on every lattice, must give the cube's table or
find no table exactly where the cube does.  ``derive_arrow`` must give the
cube residual validated on all triples, or None in the same cases, by box o
Heyting on the distributive lattices and by the join over J on the
others, on both sides of ``CUBE_MAX``.  The upset lattice
and the ideal lattice of every one of them, whose meets and joins
``_family_lattice`` looks up as intersections, must equal ``build_lattice``
of their inclusion orders.  On the 26 distributive ones, the prime frame's
order, relation and definitional tables, read off the generators of the
prime filters, must equal the inclusion products over the prime-filter rows
(the definitional one the k x n^2 form), for the Heyting algebra and for a
nabla other than the identity.  The completion's arrow, the residual of the
lifted nabla, must equal the lifted sets gathered element by element, for the
Heyting algebra on the distributive lattices and for the meet nabla
x -> x & c of a coatom c wherever ``derive_arrow`` finds its residual.
"""

from collections import Counter

import numpy as np
import pytest

import nablalg.lattice as lattice
from nablalg.algebra import build_algebra, derive_arrow
from nablalg.completion import _ideal_rows, dm_complete
from nablalg.gallery import gen_heyting
from nablalg.kripke import prime_frame
from nablalg.lattice import (
    FiniteLattice,
    _build_heyting_table,
    _cover_heyting,
    _family_lattice,
    _greatest,
    _locate,
    _prime_rows,
    _residuated,
    _slabs,
    _subset,
    all_lattices,
    build_lattice,
    is_distributive,
    upset_lattice,
)


@pytest.fixture(scope="module")
def nine_lattices():
    return [lat for lat in all_lattices(9) if lat.n == 9]


def cube_bound_table(leq, lower):
    """All-pairs meets (``lower``) or joins by the cube of common bounds, as
    the cube ``bound_table`` of the tests' conftest; every pair must have one."""
    rel = leq if lower else leq.T
    table, found = _greatest(rel, rel[:, :, None] & rel[:, None, :])
    assert found.all()
    return table


def adjunction_holds(lat, nab, arr):
    """nab(c) & a <= b iff c <= arr(a, b), on all triples."""
    return bool((lat.leq[lat.meet[nab]] == lat.leq[:, arr]).all())


def slabbed_associative(table):
    """(a & b) & c against a & (b & c), one slab of first arguments at a time."""
    return all((table[table[s]] == table[s][:, table]).all() for s in _slabs(len(table)))


def test_tables_match_the_cube_and_associate(nine_lattices):
    assert len(nine_lattices) == 1078
    for lat in nine_lattices:
        for table, lower in ((lat.meet, True), (lat.join, False)):
            assert (table == cube_bound_table(lat.leq, lower)).all()
            assert slabbed_associative(table)


def test_tables_satisfy_the_lattice_laws(nine_lattices):
    idx = np.arange(9)
    for lat in nine_lattices:
        m, j = lat.meet, lat.join
        assert (m == m.T).all() and (j == j.T).all()
        assert (m[idx, idx] == idx).all() and (j[idx, idx] == idx).all()
        assert (m[idx[:, None], j] == idx[:, None]).all()
        assert (j[idx[:, None], m] == idx[:, None]).all()
        assert (m[lat.bot] == lat.bot).all() and (j[lat.top] == lat.top).all()


def test_heyting_tables_and_galois_test(monkeypatch, nine_lattices):
    rng = np.random.default_rng(9)
    idx = np.arange(9)
    distributive = [lat for lat in nine_lattices if is_distributive(lat)]
    assert len(distributive) == 26     # OEIS A006982
    for lat in distributive:
        want, found = _greatest(lat.leq, lat.leq[lat.meet])
        assert found.all()
        bad = want.copy()
        a, b = rng.integers(0, 9, 2)
        bad[a, b] = (bad[a, b] + rng.integers(1, 9)) % 9
        for cube_max in (lattice.CUBE_MAX, 0):
            monkeypatch.setattr(lattice, "CUBE_MAX", cube_max)
            assert (_build_heyting_table(lat) == want).all()
        # CUBE_MAX is 0 here, so the Galois test runs
        for arr, residuated in ((want, True), (bad, False)):
            assert adjunction_holds(lat, idx, arr) == residuated
            assert _residuated(lat, idx, arr) == residuated
        monkeypatch.undo()


def test_cover_recursion_matches_the_cube(nine_lattices):
    """The Heyting table by recursion over lower covers, called directly:
    the cube's table on the 26 distributive lattices, and a missing k(j) on
    the 1,052 others."""
    found = 0
    for lat in nine_lattices:
        want, exists = _greatest(lat.leq, lat.leq[lat.meet])
        table, got = _cover_heyting(lat)
        assert got == exists.all() == is_distributive(lat)
        if got:
            assert (table == want).all()
        found += got
    assert found == 26


def cube_derive_arrow(lat, nab):
    """The cube residual, or None where some pair has no greatest c or the
    adjunction fails on some triple."""
    arrow, found = _greatest(lat.leq, lat.leq[lat.meet[nab]])
    if not found.all():
        return None
    return arrow if adjunction_holds(lat, nab, arrow) else None


@pytest.mark.parametrize("cube_max", [lattice.CUBE_MAX, 0], ids=["default", "past-cube"])
def test_derive_arrow_matches_the_cube_residual(monkeypatch, cube_max, nine_lattices):
    """On every lattice of 9 elements, the meet nablas x -> x & c, a step
    nabla (bottom below c, d elsewhere) and a one-entry perturbation of each:
    derive_arrow gives the cube residual or None with it.  Box o Heyting
    serves the 26 distributive lattices and the join route the 1,052 others,
    and each route rejects some nablas."""
    monkeypatch.setattr(lattice, "CUBE_MAX", cube_max)
    calls, join_residual = [], lattice._join_residual
    monkeypatch.setattr(lattice, "_join_residual",
                        lambda lat, nab: calls.append(nab) or join_residual(lat, nab))
    rng = np.random.default_rng(91)
    seen = Counter()
    for lat in nine_lattices:
        # a copy with nothing kept, so that its Heyting table is built here
        lat = FiniteLattice(lat.leq, lat.meet, lat.join, lat.bot, lat.top, lat.covers)
        c, d = rng.integers(0, 9, 2)
        nabs = [lat.meet[:, e] for e in range(9)] + [np.where(lat.leq[:, c], lat.bot, d)]
        for nab in nabs[:]:
            nab = nab.copy()
            x = rng.integers(0, 9)
            nab[x] = (nab[x] + rng.integers(1, 9)) % 9
            nabs.append(nab)
        route = "box" if is_distributive(lat) else "join"
        for nab in nabs:
            before = len(calls)
            want, got = cube_derive_arrow(lat, nab), derive_arrow(lat, nab)
            assert (got is None) == (want is None)
            assert got is None or (got == want).all()
            assert (len(calls) > before) == (route == "join")
            seen[route, want is None] += 1
    assert set(seen) == {(r, rejected) for r in ("box", "join") for rejected in (False, True)}
    assert seen["box", False] + seen["box", True] == 26 * 20


def test_family_lattices_match_the_inclusion_lattice(nine_lattices):
    """Upsets with their complements as co-rows, ideals with their upper
    bounds: order, tables and bounds equal ``build_lattice`` of the
    inclusion order, and meets are intersections."""
    for lat in nine_lattices:
        fam = upset_lattice(lat.leq)
        ideals, ub = _ideal_rows(lat)
        for got, rows in ((fam.lattice, fam.members), (_family_lattice(ideals, ub), ideals)):
            want = build_lattice(_subset(rows, rows))
            assert (got.leq == want.leq).all() and (got.bot, got.top) == (want.bot, want.top)
            assert (got.meet == want.meet).all() and (got.join == want.join).all()
            assert (rows[got.meet] == (rows[:, None] & rows[None])).all()


def subset_prime_tables(alg):
    """Order, relation and definitional relation of the prime frame by
    inclusion tests over the prime-filter rows, as ``subset_prime_tables``
    of the tests' conftest: P inside Q, P inside the nabla preimage of Q, and
    every (a, b) with arrow(a, b) in P has b in Q or a outside Q (k x n^2)."""
    primes = _prime_rows(alg.lat)
    k, n = primes.shape
    keep = (~primes[:, :, None] | primes[:, None, :]).reshape(k, n * n)
    return (_subset(primes, primes), _subset(primes, primes[:, alg.nabla]),
            _subset(primes[:, alg.arrow].reshape(k, n * n), keep))


def test_prime_tables_match_the_inclusion_products(nine_lattices):
    """On each distributive lattice of 9 elements, the Heyting algebra and
    the algebra of the meet nabla x -> x & c, for c a coatom: the prime
    frame's order and relation equal the inclusion products, and so does the
    definitional table, which ``prime_frame`` requires to be the relation."""
    distributive = [lat for lat in nine_lattices if is_distributive(lat)]
    assert len(distributive) == 26
    for lat in distributive:
        coatom = max(np.flatnonzero(lat.leq[:, lat.top] & (np.arange(9) != lat.top)),
                     key=lambda c: lat.leq[:, c].sum())
        nab = lat.meet[:, coatom]
        for alg in (gen_heyting(lat), build_algebra(lat, nab, derive_arrow(lat, nab))):
            frame = prime_frame(alg)
            leq, rel, definitional = subset_prime_tables(alg)
            assert (frame.leq == leq).all()
            assert (frame.r == rel).all() and (rel == definitional).all()


def gather_arrow(alg):
    """The lifted arrow by its defining sets, as ``gather_arrow`` of the
    tests: arrow((g], N) = {x : nabla(x) & g in N}, each set located among
    the ideals."""
    lat, n = alg.lat, alg.n
    rows = _ideal_rows(lat)[0]
    k = len(rows)
    gen = np.argsort(_locate(rows, lat.leq.T)[0])     # gen[i]: the generator of ideal i
    sets = rows.take(lat.meet[gen][:, alg.nabla], axis=1)   # [j, i, x]: nabla(x) & g_i in N_j
    pos, found = _locate(rows, sets.reshape(-1, n))
    assert found.all()
    return pos.reshape(k, k).T


def test_completion_arrow_matches_the_gather(nine_lattices):
    """On every lattice of 9 elements, the Heyting algebra where the lattice
    is distributive and the meet nabla of a largest coatom wherever it has a
    residual: the completion's arrow is the gathered one."""
    seen = Counter()
    for lat in nine_lattices:
        coatom = max(np.flatnonzero(lat.leq[:, lat.top] & (np.arange(9) != lat.top)),
                     key=lambda c: lat.leq[:, c].sum())
        nab = lat.meet[:, coatom]
        arrow = derive_arrow(lat, nab)
        algs = [("heyting", gen_heyting(lat))] if is_distributive(lat) else []
        if arrow is not None:
            algs.append(("meet", build_algebra(lat, nab, arrow)))
        for kind, alg in algs:
            assert (dm_complete(alg).algebra.arrow == gather_arrow(alg)).all()
            seen[kind] += 1
    # the meet nabla has a residual on the 26 distributive lattices and 5 others
    assert seen == {"heyting": 26, "meet": 31}
