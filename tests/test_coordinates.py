"""The join-irreducible coordinate route and the Galois-connection test of
residuation against the n^3 cubes they replaced.

The meet and join tables (``_coordinate_bound_table``) are found in
coordinates at every size, and ``_bound_table`` runs only to name a pair
without a meet or join; the tests compare the two directly.  Above
``lattice.CUBE_MAX`` elements the Heyting table and ``derive_arrow``'s
residual (``_residual``) are found in coordinates too, and the adjunction is
decided by ``_residuated`` in O(n |covers| + n^2); up to it the cube
``_greatest`` and the comparison of the adjunction's two sides run.  Each of
those tests runs on both sides of that bound (``CUBE_MAX`` patched to 0 makes
small inputs take the coordinate route).  All require equal tables and
verdicts, the same exception class with the same witness, or None in the
same cases.  The n^3 cross-checks that lemmas restate are kept here as
oracles: the slabbed associativity scan, the cube residuation check of the
Heyting table, the full adjunction scan, and the full-range ``l_alt1`` and
``fa_iv`` masks of ``classify``.
"""

import tracemalloc

import numpy as np
import pytest

import nablalg.algebra as algebra
import nablalg.lattice as lattice
from nablalg.algebra import build_algebra, classify, derive_arrow
from nablalg.errors import AdjunctionFailure, CrossCheckError, NablalgError
from nablalg.gallery import gen_heyting, gen_xn
from nablalg.lattice import (
    CUBE_MAX,
    FiniteLattice,
    _adjunction_sides,
    _bound_table,
    _build_heyting_table,
    _coordinate_bound_table,
    _greatest,
    _partial_order,
    _residuated,
    _row_keys,
    _slabs,
    build_lattice,
    is_distributive,
)

from conftest import (
    bounded_candidates,
    chain_matrix,
    larger_lattices,
    random_poset,
    relabeled,
    slabbed_associative,
)

BOTH_SIDES = pytest.mark.parametrize("cube_max", [0, CUBE_MAX], ids=["coordinates", "default"])


# --- the n^3 forms, kept as oracles -------------------------------------------


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


def scan_witness(lat, nab, arr):
    """The former build_algebra scan over all triples: the a-major first
    (a, b, c) where nabla(c) & a <= b and c <= arrow(a, b) differ, with its
    direction, or None."""
    left, right = _adjunction_sides(lat, nab, arr)
    bad = np.argwhere((left != right).transpose(1, 2, 0))
    if not len(bad):
        return None
    a, b, c = (int(v) for v in bad[0])
    return (a, b, c), "forward" if left[c, a, b] else "backward"


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


def bound_table_orders(seed, seven_lattices):
    """Every lattice up to 7 elements (each also relabeled), every bounded
    labeled poset up to 6 elements, seeded posets of up to 29 elements
    (lattices or not) and larger lattices."""
    rng = np.random.default_rng(seed)
    orders = [leq for lat in seven_lattices for leq in (lat.leq, relabeled(lat.leq, rng))]
    orders += [leq for n in range(1, 7) for leq in bounded_candidates(n)]
    orders += [random_poset(rng, int(n)) for n in rng.integers(2, 30, 300)]
    return orders + [lat.leq for lat in larger_lattices(rng)]


# outcome kinds on inputs up to the catalogs' 8 elements and past them
ALL_KINDS = {(big, kind) for big in (False, True) for kind in ("ok", "NoMeet", "NoJoin")}


@BOTH_SIDES
def test_bound_tables_match_cube(monkeypatch, cube_max, seven_lattices):
    """The coordinate tables, at every size and on either side of
    ``CUBE_MAX`` (which no longer routes them), equal the cube's, and a
    failure names the cube's pair."""
    monkeypatch.setattr(lattice, "CUBE_MAX", cube_max)
    kinds = set()
    for leq in bound_table_orders(31, seven_lattices):
        arr, covers = _partial_order(leq)
        for lower in (True, False):
            want = outcome(_bound_table, arr, lower)
            assert outcome(_coordinate_bound_table, arr, covers, lower) == want
            kinds.add((len(arr) > 8, want[0]))
    assert kinds == ALL_KINDS


def test_build_lattice_outcomes_match_cube_route(monkeypatch, seven_lattices):
    """build_lattice, coordinates everywhere against cubes everywhere: the
    same tables, or the same exception class with the same witness."""
    kinds = set()
    for leq in bound_table_orders(32, seven_lattices):
        got = outcome(lattice_tables, leq)
        with monkeypatch.context() as patch:
            patch.setattr(lattice, "_coordinate_bound_table",
                          lambda arr, covers, lower: _bound_table(arr, lower))
            assert outcome(lattice_tables, leq) == got
        kinds.add((len(leq) > 8, got[0]))
    assert kinds == ALL_KINDS


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


# --- residuation as a Galois connection ----------------------------------------


def step_nabla(lat, c, d):
    """Bottom on the elements below c and d elsewhere: it preserves joins and
    has a residual on every lattice (arrow(a, b) is top where d & a <= b and c
    elsewhere)."""
    return np.where(lat.leq[:, c], lat.bot, d)


def perturbed(table, n, rng):
    """A copy of ``table`` with one entry moved to another of 0..n-1."""
    out = table.copy()
    pos = tuple(int(rng.integers(0, k)) for k in table.shape)
    out[pos] = (out[pos] + rng.integers(1, n)) % n
    return out


def adjunction_tables(lats, rng):
    """(lattice, nabla, arrow) triples: residuated pairs, copies of each with
    one nabla or one arrow entry changed, and random tables."""
    out = []
    for lat in lats:
        if lat.n == 1:
            continue
        nabs = [step_nabla(lat, *rng.integers(0, lat.n, 2)) for _ in range(3)]
        if is_distributive(lat):
            nabs += [np.arange(lat.n), lat.meet[:, rng.integers(0, lat.n)]]
        for nab in nabs:
            arr = cube_derive_arrow(lat, nab)
            out.append((lat, nab, arr))
            for _ in range(4):
                out += [(lat, perturbed(nab, lat.n, rng), arr),
                        (lat, nab, perturbed(arr, lat.n, rng))]
        out.append((lat, rng.integers(0, lat.n, lat.n), rng.integers(0, lat.n, (lat.n, lat.n))))
    return out


def monotone_pair(lat, nab, arr):
    """nabla monotone and arrow monotone in its second argument, on all pairs."""
    leq = lat.leq
    return bool((~leq | leq[np.ix_(nab, nab)]).all()
                and (~leq[None] | leq[arr[:, :, None], arr[:, None, :]]).all())


@BOTH_SIDES
def test_residuated_matches_the_scan_on_the_catalog(monkeypatch, cube_max, six_catalog):
    """Every algebra up to 6 elements (1,983) passes both tests."""
    monkeypatch.setattr(lattice, "CUBE_MAX", cube_max)
    for alg in six_catalog:
        assert _residuated(alg.lat, alg.nabla, alg.arrow)
        assert scan_witness(alg.lat, alg.nabla, alg.arrow) is None


@BOTH_SIDES
def test_residuated_matches_the_scan_on_perturbed_tables(monkeypatch, cube_max, seven_lattices):
    """Residuated pairs, one-entry perturbations of them and random tables on
    every lattice up to 7 elements and on larger ones: the Galois test and the
    scan agree, and build_algebra names the scan's witness and direction.
    Some non-residuated tables are monotone, so the verdict there rests on
    detachment and the unit."""
    monkeypatch.setattr(lattice, "CUBE_MAX", cube_max)
    rng = np.random.default_rng(38)
    kinds = set()
    for lat, nab, arr in adjunction_tables([*seven_lattices, *larger_lattices(rng)], rng):
        want = scan_witness(lat, nab, arr)
        assert _residuated(lat, nab, arr) == (want is None)
        try:
            build_algebra(lat, nab, arr)
            got = None
        except AdjunctionFailure as err:
            got = err.witness, err.direction
        assert got == want
        kinds.add((lat.n > CUBE_MAX, want is None, want is None or monotone_pair(lat, nab, arr)))
    assert kinds == {(big, ok, mono) for big in (False, True)
                     for ok, mono in ((True, True), (False, True), (False, False))}


def test_build_algebra_checks_the_criteria_agree(monkeypatch):
    """A Galois verdict that the scan contradicts is a cross-check failure,
    not an adjunction failure."""
    alg = gen_heyting(build_lattice(chain_matrix(CUBE_MAX + 4)))
    monkeypatch.setattr(algebra, "_residuated", lambda lat, nab, arr: False)
    with pytest.raises(CrossCheckError, match="residuation characterizations disagree"):
        build_algebra(alg.lat, alg.nabla, alg.arrow)


def boolean_matrix(k):
    sets = np.arange(2 ** k)
    return (sets[:, None] & ~sets[None, :]) == 0


@pytest.mark.parametrize("leq", [chain_matrix(256), boolean_matrix(8)], ids=["chain", "boolean"])
def test_validation_forms_no_cube(leq):
    """build_algebra and classify on a 256-element Heyting algebra peak under
    8 MB; one n^3 boolean table is 16 MB."""
    alg = gen_heyting(build_lattice(leq))
    tracemalloc.start()
    try:
        classify(build_algebra(alg.lat, alg.nabla, alg.arrow))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_sliced_adjunction_witness_matches_the_scan():
    """One changed arrow entry on the Heyting Boolean 2^8: build_algebra names
    the witness and direction of the scan over all triples, and peaks under
    16 MB, the size of one n^3 boolean table; the witnesses' first arguments
    lie in the first slab and past it."""
    alg = gen_heyting(build_lattice(boolean_matrix(8)))
    rng = np.random.default_rng(43)
    firsts = set()
    for _ in range(2):
        arr = perturbed(alg.arrow, alg.n, rng)
        want = scan_witness(alg.lat, alg.nabla, arr)
        tracemalloc.start()
        try:
            with pytest.raises(AdjunctionFailure) as err:
                build_algebra(alg.lat, alg.nabla, arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.witness, err.value.direction) == want
        assert peak < 16 * 2 ** 20
        firsts.add(want[0][0] < _slabs(alg.n)[0].stop)
    assert firsts == {True, False}


def test_cover_monotonicity_across_blocks():
    """On lattices whose covers fill several of _monotone's blocks, a changed
    arrow entry breaks monotonicity in the second or antitonicity in the
    first argument exactly when a two-index gather over all covers says so."""
    rng = np.random.default_rng(39)
    seen = set()
    for leq in (boolean_matrix(8), chain_matrix(256)):
        alg = gen_heyting(build_lattice(leq))
        lat = alg.lat
        lo, hi = lat.covers
        for arr in [alg.arrow] + [perturbed(alg.arrow, lat.n, rng) for _ in range(30)]:
            for order, maps in ((lat.leq, arr), (lat.leq.T, arr.T)):
                want = bool(order[maps[:, lo], maps[:, hi]].all())
                assert lattice._monotone(order, lat.covers, maps) == want
                seen.add(want)
    assert seen == {False, True}


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
