"""The join-irreducible coordinate route and the Galois-connection test of
residuation against the n^3 cubes they replaced.

The meet and join tables (``_coordinate_bound_table``) are found in
coordinates at every size, and only a failed lookup scans the pairs to name
one without a meet or join; the tests compare both with the cube
``bound_table`` of conftest.
``derive_arrow``'s residual (``_residual``) is box o Heyting wherever the
Heyting table exists and the join ``_join_residual`` elsewhere, at every
size.  Above ``lattice.CUBE_MAX`` elements the Heyting table comes from the
recursion over lower covers (``_cover_heyting``) and the adjunction is decided
by ``_residuated`` in O(n |covers| + n^2); up to it the cube ``_greatest`` and
the comparison of the adjunction's two sides run.  The tests of those run on
both sides of that bound (``CUBE_MAX`` patched to 0 makes small inputs take
the routes past it).  All require equal tables and verdicts, the same
exception class with the same witness, or None in the same cases.  The n^3
cross-checks that lemmas restate are kept here as oracles: the slabbed
associativity scan, the cube residuation check of the Heyting table, and the
full-range ``l_alt1`` and ``fa_iv`` masks of ``classify``; the full
adjunction scan is conftest's ``adjunction_failure``.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

import nablalg.algebra as algebra
import nablalg.lattice as lattice
from nablalg.algebra import build_algebra, classify, derive_arrow
from nablalg.errors import AdjunctionFailure, CrossCheckError, NablalgError, NoMeet
from nablalg.gallery import gen_heyting, gen_xn
from nablalg.lattice import (
    CUBE_MAX,
    SCAN_SLAB,
    FiniteLattice,
    _build_heyting_table,
    _coordinate_bound_table,
    _cover_heyting,
    _greatest,
    _irreducible,
    _lookup,
    _partial_order,
    _residuated,
    _row_keys,
    _slabs,
    build_lattice,
    is_distributive,
)

from conftest import (
    adjunction_failure,
    adjunction_sides,
    bound_table,
    bounded_candidates,
    chain_matrix,
    diamond,
    larger_lattices,
    order_from_covers,
    pentagon,
    product_order,
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


def cube_heyting(lat):
    table, found = _greatest(lat.leq, lat.leq[lat.meet])
    return table if found.all() else None


def cube_derive_arrow(lat, nab):
    """The former derive_arrow: the residual cube, then the whole adjunction."""
    arrow, found = _greatest(lat.leq, lat.leq[lat.meet[nab]])
    if not found.all():
        return None
    left, right = adjunction_sides(lat, nab, arrow)
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


def test_bound_tables_match_cube(seven_lattices):
    """The coordinate tables, at every size, equal the cube's, and a failure
    names the cube's pair."""
    kinds = set()
    for leq in bound_table_orders(31, seven_lattices):
        arr, covers = _partial_order(leq)
        for lower in (True, False):
            want = outcome(bound_table, arr, lower)
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
                          lambda arr, covers, lower: bound_table(arr, lower))
            assert outcome(lattice_tables, leq) == got
        kinds.add((len(leq) > 8, got[0]))
    assert kinds == ALL_KINDS


def test_equal_coordinate_rows_fall_back_to_the_cube():
    """Two tops above the same two atoms share the join-irreducible row
    {1, 2}, so every intersection of rows is found; the order is not
    reflected, and the looked-up table shows it on its diagonal, where the
    shared row is found at one of the tops only.  The cube route then names
    the pair without a meet."""
    leq = order_from_covers(5, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
    arr, covers = _partial_order(leq)
    keys = _row_keys(arr[_irreducible(covers, 5)].T)
    table, found = _lookup(keys, keys[:, None] & keys[None, :])
    assert keys[3] == keys[4] and found.all()
    assert (table.diagonal() != np.arange(5)).any()
    with pytest.raises(NoMeet) as cube:
        bound_table(arr, lower=True)
    with pytest.raises(NoMeet) as e:
        build_lattice(leq)
    assert e.value.witness == cube.value.witness == (3, 4)


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
    """A Heyting table with one wrong entry, as a faulty cube search (up to
    CUBE_MAX) or a faulty recursion over the covers (past it) would give,
    fails the residuation check: the Galois test past CUBE_MAX, the
    comparison of the adjunction's two sides up to it."""
    rng = np.random.default_rng(37)
    lats = [lat for lat in [*seven_lattices, *larger_lattices(rng)]
            if lat.n > 1 and is_distributive(lat)]
    routes = set()
    for lat in lats[::3]:
        table = cube_heyting(lat)
        bad = table.copy()
        a, b = rng.integers(0, lat.n, 2)
        bad[a, b] = (table[a, b] + rng.integers(1, lat.n)) % lat.n
        for out, fails in ((bad, True), (table, False)):
            monkeypatch.setattr(lattice, "_greatest", lambda order, cand: (out, out >= 0))
            monkeypatch.setattr(lattice, "_cover_heyting", lambda lat: (out, True))
            if fails:
                with pytest.raises(CrossCheckError, match="pseudocomplement not residuated"):
                    _build_heyting_table(fresh(lat))
            else:
                assert (_build_heyting_table(fresh(lat)) == table).all()
        routes.add(lat.n > CUBE_MAX)
    assert routes == {False, True}


# --- the recursion over lower covers and box o Heyting --------------------------


def test_cover_recursion_matches_cube(eight_lattices):
    """The recursion over lower covers, called directly, gives the cube's
    table on every distributive lattice up to 8 elements (36), on the
    distributive larger ones, the 140- and 256-chains and the Boolean 2^8;
    on the 264 non-distributive lattices up to 8 elements, and on the larger
    ones, some k(j) is missing."""
    rng = np.random.default_rng(47)
    others = [*larger_lattices(rng), build_lattice(chain_matrix(140)),
              build_lattice(chain_matrix(256)), build_lattice(boolean_matrix(8))]
    counts = Counter()
    for source, lats in (("catalog", eight_lattices), ("others", others)):
        for lat in lats:
            table, exists = _cover_heyting(lat)
            want = cube_heyting(lat)
            assert exists == (want is not None) == is_distributive(lat)
            if exists:
                assert (table == want).all()
            counts[source, exists] += 1
    assert counts["catalog", True] == 36 and counts["catalog", False] == 264
    assert counts["others", True] > 3 and counts["others", False] > 0


def test_box_route_matches_cube_derive_arrow(monkeypatch):
    """Past CUBE_MAX on distributive lattices derive_arrow is box o Heyting,
    and the join route never runs: on the join-preserving nablas x -> x & c,
    step nablas, one-entry perturbations of them and random tables it gives
    the cube's arrow, or None in the same cases.  Some rejected nablas have a
    box, as a non-monotone nabla can, and only the adjunction check refuses
    them."""

    def no_join(lat, nab):
        raise AssertionError("the join route ran on a distributive lattice")

    monkeypatch.setattr(lattice, "_join_residual", no_join)
    rng = np.random.default_rng(48)
    lats = [lat for lat in [*larger_lattices(rng), gen_xn(4).lat, build_lattice(boolean_matrix(6))]
            if lat.n > CUBE_MAX and is_distributive(lat)]
    seen = set()
    for lat in lats:
        nabs = [lat.meet[:, c] for c in rng.integers(0, lat.n, 2)]
        nabs += [step_nabla(lat, *rng.integers(0, lat.n, 2)) for _ in range(2)]
        nabs += [perturbed(nab, lat.n, rng) for nab in nabs] + [rng.integers(0, lat.n, lat.n)]
        for nab in nabs:
            want = cube_derive_arrow(lat, nab)
            assert outcome(derive_arrow, fresh(lat), nab) == outcome(lambda: want)
            seen.add((want is not None, bool(_greatest(lat.leq, lat.leq[nab])[1].all())))
    assert seen == {(True, True), (False, True), (False, False)}


def test_join_residual_on_the_pentagon_times_chain(monkeypatch):
    """derive_arrow on the 200-element N5 x 40-chain, not distributive, takes
    the join route, one n x n table per join-irreducible: with step nablas
    and perturbations of them it gives the cube's arrow, or None with it, and
    a call on a fresh lattice peaks under 2 MB, where the (|J|, n, n)
    candidate table of the former coordinate search alone was 1.6 MB."""
    lat = build_lattice(product_order(pentagon().leq, chain_matrix(40)))
    assert not is_distributive(lat)
    calls, join_residual = [], lattice._join_residual
    monkeypatch.setattr(lattice, "_join_residual",
                        lambda lat, nab: calls.append(nab) or join_residual(lat, nab))
    rng = np.random.default_rng(49)
    nabs = [step_nabla(lat, *rng.integers(0, lat.n, 2)) for _ in range(2)]
    seen = set()
    for nab in [*nabs, *(perturbed(nab, lat.n, rng) for nab in nabs)]:
        want = cube_derive_arrow(lat, nab)
        tracemalloc.start()
        try:
            got = outcome(derive_arrow, fresh(lat), nab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == outcome(lambda: want)
        assert peak < 2 * 2 ** 20
        seen.add(want is None)
    assert seen == {False, True} and len(calls) == 4



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
        assert adjunction_failure(alg.lat, alg.nabla, alg.arrow) is None


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
        want = adjunction_failure(lat, nab, arr)
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
    not an adjunction failure: on a chain past ``CUBE_MAX``, the meet with
    its coatom c, x -> x & c, and its residual."""
    n = CUBE_MAX + 4
    lat = build_lattice(chain_matrix(n))
    nab = lat.meet[n - 2]
    arr = derive_arrow(lat, nab)
    monkeypatch.setattr(algebra, "_residuated", lambda lat, nab, arr: False)
    with pytest.raises(CrossCheckError, match="residuation characterizations disagree"):
        build_algebra(lat, nab, arr)


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


def test_heyting_chain_forms_no_cube():
    """Building the 256-chain and its Heyting algebra peaks under 8 MB: the
    table comes from the recursion over lower covers, where the former
    (|J|, n, n) residual search alone was a 16 MB table."""
    leq = chain_matrix(256)
    tracemalloc.start()
    try:
        gen_heyting(build_lattice(leq))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_sliced_adjunction_witness_matches_the_scan():
    """One changed arrow entry on the Heyting Boolean 2^8: build_algebra names
    the witness and direction of the scan over all triples, and peaks under
    16 MB, the size of one n^3 boolean table; the entries changed lie in
    rows 0 and 200, and a changed arrow(a, b) breaks the adjunction only at
    first argument a, so the witnesses lie in the first slab and past it."""
    alg = gen_heyting(build_lattice(boolean_matrix(8)))
    rng = np.random.default_rng(43)
    firsts = set()
    for row in (0, 200):
        arr = alg.arrow.copy()
        arr[row] = perturbed(arr[row], alg.n, rng)
        want = adjunction_failure(alg.lat, alg.nabla, arr)
        tracemalloc.start()
        try:
            with pytest.raises(AdjunctionFailure) as err:
                build_algebra(alg.lat, alg.nabla, arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.witness, err.value.direction) == want
        assert peak < 16 * 2 ** 20
        firsts.add(want[0][0] < _slabs(alg.n, size=SCAN_SLAB)[0].stop)
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


# --- the hashed lookup against sort and search ----------------------------------


def sort_search(keys, queries):
    """The lookup by sorting the keys and binary-searching each query, the
    oracle of the hashed route."""
    order = np.argsort(keys)
    pos = order[np.minimum(np.searchsorted(keys[order], queries), len(order) - 1)]
    return pos, keys[pos] == queries


def routes(monkeypatch):
    """A list that gets the query count of each call that takes the sorted route."""
    calls, sorted_lookup = [], lattice._sorted_lookup
    monkeypatch.setattr(lattice, "_sorted_lookup",
                        lambda keys, queries: calls.append(queries.size)
                        or sorted_lookup(keys, queries))
    return calls


def assert_lookup_matches(keys, queries):
    """``_lookup`` gives the oracle's ``found`` mask, and its positions where found."""
    pos, found = lattice._lookup(keys, queries)
    want_pos, want_found = sort_search(keys, queries)
    assert pos.shape == found.shape == queries.shape
    assert (found == want_found).all()
    assert (pos[found] == want_pos[found]).all()
    return found


def flip_one_bit(rows, rng):
    out = rows.copy()
    out[np.arange(len(rows)), rng.integers(0, rows.shape[1], len(rows))] ^= True
    return out


def uint_keys(rng, n):
    """n distinct random uint64 keys, big-endian as ``_keys`` gives them."""
    keys = np.unique(rng.integers(0, 2 ** 64 - 1, 2 * n, dtype=np.uint64, endpoint=True))
    return rng.permutation(keys)[:n].astype(">u8")


def uint_queries(keys, rng, shape):
    """Keys drawn with repetition, a quarter of them with one bit flipped."""
    queries = keys[rng.integers(0, len(keys), shape)]
    flip = rng.random(shape) < 0.25
    bit = np.left_shift(np.uint64(1), rng.integers(0, 64, shape).astype(np.uint64))
    return np.where(flip, queries ^ bit, queries).astype(">u8")


def row_cases(rng, n, width, shape):
    """Keys of n distinct random rows of ``width`` bits, and queries of rows
    drawn from them, a quarter with one bit flipped."""
    rows = np.unique(rng.random((2 * n, width)) < 0.5, axis=0)
    rows = rows[rng.permutation(len(rows))[:n]]
    drawn = rows[rng.integers(0, len(rows), int(np.prod(shape)))]
    flip = rng.random(len(drawn)) < 0.25
    drawn[flip] = flip_one_bit(drawn[flip], rng)
    return _row_keys(rows), _row_keys(drawn.reshape(shape + (width,)))


def test_lookup_matches_sort_and_search(monkeypatch):
    """Random uint64 keys and row keys up to and past 64 bits, with absent
    queries, on both sides of the query count that selects the route: every
    query gets the oracle's verdict and, where found, its position."""
    calls = routes(monkeypatch)
    rng = np.random.default_rng(41)
    hm = lattice.HASH_MIN
    # (key count, query shape): n x n tables, and 1-D queries around HASH_MIN
    # and around the bound n^2 <= 16 q on the slots
    cases = [(n, (n, n)) for n in (1, 5, 20, 39, 40, 48, 80)]
    cases += [(30, (hm - 1,)), (30, (hm,)), (30, (3, hm)), (160, (hm,)), (160, (160 * 160 // 16,))]
    seen = set()
    for kind in ("uint", 8, 33, 64, 65, 130, 200):
        for n, shape in cases:
            if kind == "uint":
                keys = uint_keys(rng, n)
                queries = uint_queries(keys, rng, shape)
            else:
                keys, queries = row_cases(rng, n, kind, shape)
            before = len(calls)
            found = assert_lookup_matches(keys, queries)
            hashed = len(calls) == before
            assert hashed == (queries.size >= hm and len(keys) ** 2 <= 16 * queries.size)
            seen.add((kind, hashed))
            if queries.size > 100:
                assert 0 < found.mean() < 1
    assert len(seen) == 14
    # native keys too, and the same positions on a second call
    keys = uint_keys(rng, 60).astype(np.uint64)
    queries = uint_queries(keys, rng, (60, 60)).astype(np.uint64)
    assert_lookup_matches(keys, queries)
    assert (lattice._lookup(keys, queries)[0] == lattice._lookup(keys, queries)[0]).all()


def test_lookup_of_no_queries():
    rng = np.random.default_rng(42)
    for keys in (uint_keys(rng, 50), row_cases(rng, 50, 100, (1,))[0]):
        for queries in (keys[:0], np.empty((0, 7), dtype=keys.dtype)):
            pos, found = lattice._lookup(keys, queries)
            assert pos.shape == found.shape == queries.shape
        pos, found = lattice._lookup(keys[:0], keys[:0])
        assert pos.shape == found.shape == (0,)


def test_lookup_when_no_multiplier_separates_the_keys(monkeypatch):
    """The hashed route stays exact when no multiplier of the sequence sends
    the keys to distinct slots: with no multiplier at all, with one that
    keeps only the high bits of small keys, with equal keys, and with long
    rows whose fingerprints collide (the mixing step patched to zero leaves
    a row's last word as its fingerprint).  Where the fingerprints of the
    keys stay distinct, queries that share a key's fingerprint are still
    not found."""
    calls = routes(monkeypatch)
    rng = np.random.default_rng(43)
    keys = uint_keys(rng, 50)
    queries = uint_queries(keys, rng, (50, 50))
    monkeypatch.setattr(lattice, "_MULTIPLIERS", ())
    assert_lookup_matches(keys, queries)
    monkeypatch.setattr(lattice, "_MULTIPLIERS", (1,))
    small = (keys >> np.uint64(40)).astype(">u8")
    assert_lookup_matches(small, (queries >> np.uint64(40)).astype(">u8"))
    assert calls == [2500, 2500]
    monkeypatch.undo()
    calls = routes(monkeypatch)
    assert_lookup_matches(keys[np.arange(50) % 40], queries)
    assert calls == [2500]

    monkeypatch.setattr(lattice, "_mix", np.zeros_like)
    rows = rng.random((50, 130)) < 0.5
    rows[:, -64:] = rows[:1, -64:]            # one last word for all: one fingerprint
    keys, queries = _row_keys(rows), _row_keys(rows[rng.integers(0, 50, (50, 50))])
    assert_lookup_matches(keys, queries)
    assert calls == [2500, 2500]
    rows = np.unique(rng.random((60, 130)) < 0.5, axis=0)[:50]
    others = rows[rng.integers(0, 50, (50, 50))]
    others[..., 0] ^= True                    # same last word, so same fingerprint
    assert not assert_lookup_matches(_row_keys(rows), _row_keys(others)).any()
    assert calls == [2500, 2500]


def test_tables_on_the_hashed_route(monkeypatch):
    """Meet, join and Heyting tables of lattices of 40 to 80 elements, whose
    n^2 lookups take the hashed route (row keys past 64 bits on the longer
    chains), and the outcomes on orders of that size that are mostly no
    lattice, with equal coordinate rows, against the cubes."""
    rng = np.random.default_rng(44)
    calls = routes(monkeypatch)
    orders = [chain_matrix(n) for n in (40, 66, 80)] + [boolean_matrix(6)]
    orders += [product_order(chain_matrix(6), chain_matrix(8)),
               product_order(diamond().leq, chain_matrix(10))]
    for leq in orders:
        lat = build_lattice(relabeled(leq, rng))
        assert lat.n >= 40
        for lower in (True, False):
            table = _coordinate_bound_table(lat.leq, lat.covers, lower)
            assert (table == bound_table(lat.leq, lower)).all()
        want = cube_heyting(lat)
        got = lattice.heyting_table(fresh(lat))
        assert (got is None) == (want is None)
        assert got is None or (got == want).all()
    assert max(calls) < lattice.HASH_MIN
    for n in (40, 52, 60):
        for _ in range(3):
            leq = random_poset(rng, n)
            arr, covers = _partial_order(leq)
            for lower in (True, False):
                assert (outcome(_coordinate_bound_table, arr, covers, lower)
                        == outcome(bound_table, arr, lower))
