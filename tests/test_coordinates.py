"""The join-irreducible coordinate route against the n^3 cubes it replaced.

Above ``lattice.CUBE_MAX`` elements the meet and join tables
(``_coordinate_bound_table``), the Heyting table and ``derive_arrow``'s
residual (``_residual``) are found in coordinates; up to it the cubes
``_bound_table`` and ``_greatest`` run.  Each test runs on both sides of that
bound (``CUBE_MAX`` patched to 0 makes small inputs take the coordinate route)
and requires equal tables, the same exception class with the same witness,
or None in the same cases.  The n^3 cross-checks that the coordinate lemmas
restate are kept here as oracles: the slabbed associativity scan, the cube
residuation check of the Heyting table, and the full-range ``l_alt1`` and
``fa_iv`` masks of ``classify``.
"""

import numpy as np
import pytest

import nablalg.lattice as lattice
from nablalg.algebra import _adjunction_sides, build_algebra, classify, derive_arrow
from nablalg.errors import CrossCheckError, NablalgError
from nablalg.gallery import gen_heyting, gen_xn
from nablalg.lattice import (
    CUBE_MAX,
    FiniteLattice,
    _bound_table,
    _bounded_candidates,
    _build_heyting_table,
    _coordinate_bound_table,
    _greatest,
    _partial_order,
    _row_keys,
    _slabs,
    build_lattice,
    is_distributive,
    upset_lattice,
)

from conftest import chain_matrix, diamond, pentagon

BOTH_SIDES = pytest.mark.parametrize("cube_max", [0, CUBE_MAX], ids=["coordinates", "default"])


# --- the n^3 forms, kept as oracles -------------------------------------------


def slabbed_associative(table):
    """The library's former associativity check: (a & b) & c against
    a & (b & c), one slab of first arguments at a time."""
    return all((table[table[s]] == table[s][:, table]).all() for s in _slabs(len(table)))


def cube_residuated(lat, table):
    """The former residuation check of the Heyting table over all c:
    c <= (a -> b) iff c & a <= b."""
    return bool((lat.leq[:, table] == lat.leq[lat.meet]).all())


def full_l_alt1(alg):
    """c & a <= b implies c <= arrow(a, b), for every c, indexed [c, a, b]."""
    leq, meet = alg.lat.leq, alg.lat.meet
    return bool((~leq[meet] | leq[:, alg.arrow]).all())


def full_fa_iv(alg):
    """arrow(c, a) <= arrow(c, b) implies c & a <= b, for every a, indexed [a, b, c]."""
    leq, meet, arr_t = alg.lat.leq, alg.lat.meet, alg.arrow.T
    idx = np.arange(alg.n)
    return bool((~leq[arr_t[:, None, :], arr_t[None, :, :]]
                 | leq[meet[:, None, :], idx[None, :, None]]).all())


def cube_heyting(lat):
    table, found = _greatest(lat.leq, lat.leq[lat.meet])
    return table if found.all() else None


def cube_derive_arrow(lat, nab):
    """The former derive_arrow: the residual cube, then the whole adjunction."""
    arrow, found = _greatest(lat.leq, lat.leq[lat.meet[nab]])
    if not found.all():
        return None
    left, right = _adjunction_sides(lat, nab, arrow)
    return None if (left != right).any() else arrow


# --- inputs --------------------------------------------------------------------


def relabeled(leq, rng):
    p = rng.permutation(len(leq))
    return leq[np.ix_(p, p)]


def random_poset(rng, n):
    """A seeded order on n elements; most are no lattice."""
    leq = np.eye(n, dtype=bool) | np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.6), 1)
    for _ in range(n.bit_length()):
        leq |= (leq.astype(int) @ leq.astype(int)) > 0
    return relabeled(leq, rng)


def closure_lattice(rng, k):
    """The intersections of seeded subsets of a k-set, with the whole set,
    under inclusion: a lattice, distributive or not."""
    fam = np.vstack([rng.random((int(rng.integers(2, 2 * k)), k)) < rng.uniform(0.3, 0.8),
                     np.ones((1, k), dtype=bool)])
    size = 0
    while len(fam) != size:
        size = len(fam)
        fam = np.unique(np.vstack([fam, (fam[:, None] & fam[None]).reshape(-1, k)]), axis=0)
    return relabeled((fam[:, None, :] <= fam[None, :, :]).all(axis=2), rng)


def product_order(a, b):
    return (a[:, None, :, None] & b[None, :, None, :]).reshape(len(a) * len(b), -1)


def larger_lattices(rng):
    """Lattices past CUBE_MAX: closure lattices, upset lattices, products."""
    orders = [closure_lattice(rng, int(k)) for k in rng.integers(4, 8, 40)]
    orders += [upset_lattice(random_poset(rng, int(n))).lattice.leq for n in rng.integers(4, 8, 10)]
    orders += [product_order(diamond().leq, chain_matrix(4)), product_order(pentagon().leq,
               pentagon().leq), product_order(chain_matrix(3), chain_matrix(7)), chain_matrix(40)]
    return [build_lattice(relabeled(leq, rng)) for leq in orders]


def outcome(fn, *args):
    try:
        out = fn(*args)
    except NablalgError as err:
        return type(err).__name__, str(err), err.witness
    return "ok", out.tolist() if isinstance(out, np.ndarray) else out


def lattice_tables(leq):
    lat = build_lattice(leq)
    return lat.meet.tolist(), lat.join.tolist(), lat.bot, lat.top


def fresh(lat):
    """A copy of ``lat`` with nothing kept on it yet."""
    return FiniteLattice(lat.leq, lat.meet, lat.join, lat.bot, lat.top, lat.covers)


# --- tables --------------------------------------------------------------------


@BOTH_SIDES
def test_bound_tables_match_cube(monkeypatch, cube_max, seven_lattices):
    """Every lattice up to 7 elements, every bounded labeled poset up to 6,
    seeded posets (lattices or not) and larger lattices: the coordinate
    tables equal the cube's, and a failure names the cube's pair."""
    monkeypatch.setattr(lattice, "CUBE_MAX", cube_max)
    rng = np.random.default_rng(31)
    orders = [leq for lat in seven_lattices for leq in (lat.leq, relabeled(lat.leq, rng))]
    orders += [leq for n in range(1, 7) for leq in _bounded_candidates(n)]
    orders += [random_poset(rng, int(n)) for n in rng.integers(2, 30, 300)]
    orders += [lat.leq for lat in larger_lattices(rng)]
    kinds = set()
    for leq in orders:
        arr, covers = _partial_order(leq)
        for lower in (True, False):
            want = outcome(_bound_table, arr, lower)
            assert outcome(_coordinate_bound_table, arr, covers, lower) == want
            kinds.add((len(arr) > CUBE_MAX, want[0]))
    assert kinds == {(big, kind) for big in (False, True) for kind in ("ok", "NoMeet", "NoJoin")}


def test_build_lattice_outcomes_match_cube_route(monkeypatch, seven_lattices):
    """build_lattice, coordinates everywhere against cubes everywhere: the
    same tables, or the same exception class with the same witness."""
    rng = np.random.default_rng(32)
    orders = [lat.leq for lat in seven_lattices]
    orders += [leq for n in range(1, 7) for leq in _bounded_candidates(n)]
    orders += [random_poset(rng, int(n)) for n in rng.integers(2, 30, 300)]
    orders += [lat.leq for lat in larger_lattices(rng)]
    for leq in orders:
        got = {}
        for cube_max in (0, 10 ** 9):
            monkeypatch.setattr(lattice, "CUBE_MAX", cube_max)
            got[cube_max] = outcome(lattice_tables, leq)
        assert got[0] == got[10 ** 9]


@BOTH_SIDES
def test_heyting_tables_match_cube(monkeypatch, cube_max, seven_lattices):
    monkeypatch.setattr(lattice, "CUBE_MAX", cube_max)
    rng = np.random.default_rng(33)
    present = set()
    for lat in [*seven_lattices, *larger_lattices(rng)]:
        want = cube_heyting(lat)
        got = _build_heyting_table(fresh(lat))
        assert (got is None) == (want is None) == (not is_distributive(lat))
        if want is not None:
            assert (got == want).all()
            assert cube_residuated(lat, got)
        present.add((lat.n > CUBE_MAX, want is not None))
    assert present == {(False, False), (False, True), (True, False), (True, True)}


@BOTH_SIDES
def test_derive_arrow_matches_cube(monkeypatch, cube_max, six_catalog, six_lattices):
    """derive_arrow on the n <= 6 catalog, on seeded random nablas and on the
    join-preserving nablas x -> x & c of larger lattices: the same arrow, or
    None in the same cases."""
    monkeypatch.setattr(lattice, "CUBE_MAX", cube_max)
    for alg in six_catalog:
        assert (derive_arrow(alg.lat, alg.nabla) == alg.arrow).all()
    rng = np.random.default_rng(34)
    pairs = [(lat, rng.integers(0, lat.n, lat.n)) for lat in six_lattices for _ in range(20)]
    for lat in larger_lattices(rng):
        pairs += [(lat, lat.meet[:, c]) for c in rng.integers(0, lat.n, 3)]
        pairs += [(lat, rng.integers(0, lat.n, lat.n))]
    seen = set()
    for lat, nab in pairs:
        want = cube_derive_arrow(lat, nab)
        assert outcome(derive_arrow, lat, nab) == outcome(lambda: want)
        seen.add((lat.n > CUBE_MAX, want is not None))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


# --- the restated cross-checks ----------------------------------------------------


def test_former_checks_hold_on_the_catalog(seven_lattices, six_catalog):
    """The slabbed associativity scan and the cube residuation check on every
    lattice up to 7 elements and larger ones; the full-range l_alt1 and fa_iv
    masks agree with classify's flags on every algebra up to 6 elements and on
    larger algebras past CUBE_MAX."""
    rng = np.random.default_rng(35)
    lats = [*seven_lattices, *larger_lattices(rng), build_lattice(chain_matrix(140))]
    for lat in lats:
        assert slabbed_associative(lat.meet) and slabbed_associative(lat.join)
        table = _build_heyting_table(fresh(lat))
        assert table is None or cube_residuated(lat, table)
    algs = [*six_catalog, gen_xn(3), gen_xn(4), gen_heyting(build_lattice(chain_matrix(20)))]
    for lat in lats[-20:]:
        if is_distributive(lat):
            for c in rng.integers(0, lat.n, 2):
                nab = lat.meet[:, c]
                algs.append(build_algebra(lat, nab, derive_arrow(lat, nab)))
    flags = set()
    for alg in algs:
        profile = classify(alg)
        assert full_l_alt1(alg) == profile.L
        assert full_fa_iv(alg) == profile.Fa
        flags.add((alg.n > CUBE_MAX, profile.L, profile.Fa))
    assert {(big, flag) for big, flag, _ in flags} == {(b, f) for b in (False, True)
                                                      for f in (False, True)}
    assert {(big, flag) for big, _, flag in flags} == {(b, f) for b in (False, True)
                                                      for f in (False, True)}


def test_heyting_residuation_check_is_independent_of_the_lookup(monkeypatch, seven_lattices):
    """A Heyting table with one wrong entry, as a faulty lookup would give,
    fails the residuation check on the join-irreducibles."""
    rng = np.random.default_rng(37)
    lats = [lat for lat in [*seven_lattices, *larger_lattices(rng)]
            if lat.n > 1 and is_distributive(lat)]
    for lat in lats[::3]:
        table = cube_heyting(lat)
        bad = table.copy()
        a, b = rng.integers(0, lat.n, 2)
        bad[a, b] = (table[a, b] + rng.integers(1, lat.n)) % lat.n
        monkeypatch.setattr(lattice, "_residual", lambda lat, nab: (bad, True))
        with pytest.raises(CrossCheckError, match="pseudocomplement not residuated"):
            _build_heyting_table(fresh(lat))
        monkeypatch.setattr(lattice, "_residual", lambda lat, nab: (table, True))
        assert (_build_heyting_table(fresh(lat)) == table).all()


def test_row_keys_sort_as_rows():
    """Packed keys, integers up to 8 bytes and byte strings past that: equal
    iff the rows are, and in the rows' lexicographic order."""
    rng = np.random.default_rng(36)
    for width in (0, 1, 7, 8, 63, 64, 65, 130):
        rows = rng.random((60, width)) < 0.5
        rows[::5] = rows[1]
        keys = _row_keys(rows)
        assert ((keys[:, None] == keys[None, :])
                == (rows[:, None, :] == rows[None, :, :]).all(axis=2)).all()
        want = sorted(range(len(rows)), key=lambda i: (rows[i].tolist(), i))
        assert np.argsort(keys, kind="stable").tolist() == want
