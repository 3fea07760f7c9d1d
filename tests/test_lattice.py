import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablalg.algebra import derive_arrow
from nablalg.errors import (
    CrossCheckError,
    NablalgError,
    NoBounds,
    NoJoin,
    NoMeet,
    NotPartialOrder,
    ShapeError,
    TooLarge,
)
import nablalg.lattice as lattice
from nablalg.lattice import (
    SCAN_SLAB,
    SIZE_MAX,
    TAKE_MIN,
    FiniteLattice,
    _at,
    _build_heyting_table,
    _compose,
    _family_lattice,
    _greatest,
    _indices,
    _join_primes,
    _kappa,
    _order_iso,
    _principal_primes,
    _primes,
    _relabel,
    _row_keys,
    _row_order,
    _signatures,
    _slabs,
    _sorted_rows,
    _subset,
    _upset_rows,
    all_lattices,
    all_posets,
    all_upsets,
    build_lattice,
    canonical_order_matrix,
    distributivity_witness,
    heyting_table,
    is_distributive,
    is_prime_filter,
    join_irreducibles,
    lattice_iso,
    prime_filters,
    upset_lattice,
    validate_partial_order,
)

from conftest import (
    assert_inclusion_lattice,
    boolean_256,
    boolean_square,
    bounded_candidates,
    chain,
    chain_matrix,
    cube_distributivity_witness,
    diamond,
    larger_lattices,
    lattice_law_failures,
    order_from_covers,
    pentagon,
    prime_filter_row_oracle,
    prime_filter_rows,
    product_order,
    relabeled,
    slabbed_associative,
    subsets,
)


# --- independent oracles -----------------------------------------------------


def oracle_distributive(lat):
    for a in range(lat.n):
        for b in range(lat.n):
            for c in range(lat.n):
                lhs = lat.meet[a, lat.join[b, c]]
                rhs = lat.join[lat.meet[a, b], lat.meet[a, c]]
                if lhs != rhs:
                    return (a, b, c)
    return None


def oracle_heyting(lat):
    table = np.zeros((lat.n, lat.n), dtype=int)
    for a in range(lat.n):
        for b in range(lat.n):
            cands = [c for c in range(lat.n) if lat.leq[lat.meet[c, a], b]]
            maxes = [m for m in cands if all(lat.leq[c, m] for c in cands)]
            if not maxes:
                return None
            table[a, b] = maxes[0]
    return table


def oracle_greatest(order, cand):
    """The O(n^4) count search: c is greatest at a position when it is a
    candidate and the candidates below it are all of them."""
    counts = cand.sum(axis=0)
    cov = np.tensordot(order.astype(np.int64), cand.astype(np.int64), axes=([0], [0]))
    is_max = cand & (cov == counts[None])
    return is_max.argmax(axis=0), is_max.any(axis=0)


def oracle_prime_filters(lat):
    found = []
    for s in subsets(range(lat.n)):
        if s and is_prime_filter_oracle(lat, s):
            found.append(s)
    found.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return found


def is_prime_filter_oracle(lat, s):
    if lat.top not in s or lat.bot in s:
        return False
    for x in s:
        for y in range(lat.n):
            if lat.leq[x, y] and y not in s:
                return False
        for y in s:
            if lat.meet[x, y] not in s:
                return False
    for x in range(lat.n):
        for y in range(lat.n):
            if lat.join[x, y] in s and x not in s and y not in s:
                return False
    return True


def oracle_compose(a, b):
    """Count the k with a[..., i, k] and b[..., k, j] in int64."""
    return np.einsum("...ik,...kj->...ij", a.astype(np.int64), b.astype(np.int64)) > 0


def oracle_subset(a, b):
    """Count the k with a[..., i, k] and not b[..., j, k] in int64."""
    return np.einsum("...ik,...jk->...ij", a.astype(np.int64), (~b).astype(np.int64)) == 0


def cube_associative(table):
    """The whole n^3 associativity cube at once."""
    idx = np.arange(len(table))
    return bool((table[table[:, :, None], idx[None, None, :]]
                 == table[idx[:, None, None], table[None, :, :]]).all())


def cube_join_irreducibles(lat):
    """The split cube: the non-bottom a that are no join of two x, y < a."""
    below = lat.leq.T & ~np.eye(lat.n, dtype=bool)          # below[a, x]: x < a
    joined = lat.join[None, :, :] == np.arange(lat.n)[:, None, None]
    split = (below[:, :, None] & below[:, None, :] & joined).any(axis=(1, 2))
    split[lat.bot] = True
    return np.flatnonzero(~split).tolist()


def cube_join_primes(lat):
    """Every non-bottom a tested against all pairs: a <= x | y forces a <= x or a <= y."""
    split = lat.leq[:, :, None] | lat.leq[:, None, :]
    prime = (lat.leq[:, lat.join] <= split).all(axis=(1, 2))
    prime[lat.bot] = False
    return np.flatnonzero(prime).tolist()


def oracle_covers(leq):
    """x < y with no z strictly between, all triples at once."""
    strict = leq & ~np.eye(len(leq), dtype=bool)
    return strict & ~(strict[:, :, None] & strict[None, :, :]).any(axis=1)


def order_fact_lattices(rng):
    """Products of M3, N5 and chains up to 96 elements, each as built and
    under a seeded relabeling."""
    m3, n5, c = diamond().leq, pentagon().leq, chain_matrix
    orders = [product_order(m3, c(19)), product_order(n5, c(19)), product_order(m3, n5),
              product_order(n5, n5, c(2)), product_order(c(4), c(4), c(6)),
              product_order(*[c(2)] * 6), product_order(c(8), c(12)),
              product_order(c(2), c(3), c(4), c(4)), c(96)]
    return [build_lattice(leq) for order in orders for leq in (order, relabeled(order, rng))]


def m3_times_chain(k):
    """M3 x k-chain, with the elements whose M3 coordinate is not an atom
    labeled first, so every distributivity failure has a large first index."""
    m3 = diamond().leq      # 0 bottom, atoms 1, 2, 3, 4 top
    pairs = sorted(itertools.product(range(5), range(k)), key=lambda p: p[0] in (1, 2, 3))
    return build_lattice(np.array([[m3[a, b] and i <= j for b, j in pairs] for a, i in pairs]))


def oracle_upsets(leq):
    n = leq.shape[0]
    out = []
    for s in subsets(range(n)):
        if all(leq[x, y] <= (y in s) for x in s for y in range(n)):
            out.append(s)
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return out


# --- boolean-relation kernel and sliced law checks ----------------------------


def test_compose_and_subset_match_einsum_oracle():
    rng = np.random.default_rng(8)
    shapes = [(7, 7, 7), (5, 9, 3), (1, 6, 8), (0, 4, 3), (4, 0, 3), (4, 3, 0)]
    for (i, k, j), density in itertools.product(shapes, (0.1, 0.5, 0.9)):
        for batch in ((), (4,), (0,)):
            a = rng.random(batch + (i, k)) < density
            b = rng.random(batch + (k, j)) < density
            got = _compose(a, b)
            assert got.dtype == bool and got.shape == batch + (i, j)
            assert (got == oracle_compose(a, b)).all()
            c = rng.random(batch + (j, k)) < density
            if i:
                # let rows of c often contain rows of a
                c |= a[..., rng.integers(0, i, j), :]
            got = _subset(a, c)
            assert got.dtype == bool and got.shape == batch + (i, j)
            assert (got == oracle_subset(a, c)).all()
    inside = np.array([[1, 0, 1], [1, 1, 1], [0, 0, 0]], dtype=bool)
    assert _subset(inside, inside).tolist() == [[True, True, False], [False, True, False],
                                                [True, True, True]]


def test_slabs_cover_the_first_index_in_order():
    for n, count in [(1, 1), (2, 1), (101, 1), (102, 2), (140, 3), (256, 16)]:
        slabs = _slabs(n)
        assert len(slabs) == count
        assert np.concatenate([np.arange(n)[s] for s in slabs]).tolist() == list(range(n))


def test_pair_gather_matches_numpy_on_both_sides_of_take_min():
    rng = np.random.default_rng(3)
    for n in (5, 23, 24, 40):
        assert (n * n >= TAKE_MIN) == (n >= 24)
        table = rng.integers(0, n, (n, n))
        a, b, idx = rng.integers(0, n, (n, n)), rng.integers(0, n, (n, n)), np.arange(n)
        for rows, cols in [(idx[:, None], a), (idx, b), (a, b), (a[:2, :, None], b[None])]:
            assert np.array_equal(_at(table, rows, cols), table[rows, cols])


def test_sliced_distributivity_matches_cube_oracle(six_lattices):
    big = m3_times_chain(28)
    assert big.n == 140
    want = cube_distributivity_witness(big)
    # the first failing a lies past the first slab
    assert want is not None and want[0] >= _slabs(big.n, size=SCAN_SLAB)[1].start
    assert distributivity_witness(big) == want
    for lat in [*six_lattices, pentagon(), diamond(), chain(110)]:
        fresh = build_lattice(lat.leq)
        assert distributivity_witness(fresh) == cube_distributivity_witness(fresh)


def test_cover_pairs_match_definition(seven_lattices):
    rng = np.random.default_rng(9)
    for lat in [*seven_lattices, *order_fact_lattices(rng)]:
        covers = lat.covers
        assert [v.tolist() for v in covers] == [v.tolist() for v in np.nonzero(oracle_covers(lat.leq))]
    lat = pentagon()
    n = lat.n
    assert list(zip(*(v.tolist() for v in lat.covers))) == [
        (x, y) for x in range(n) for y in range(n)
        if lat.leq[x, y] and x != y
        and not any(lat.leq[x, z] and lat.leq[z, y] for z in range(n) if z not in (x, y))]


def test_order_facts_match_cube_oracles(seven_lattices):
    """join_irreducibles, _join_primes and the distributivity witness against
    the n^3 forms they replaced, on fresh lattices (no cached result)."""
    rng = np.random.default_rng(10)
    small = [leq for lat in seven_lattices for leq in (lat.leq, relabeled(lat.leq, rng))]
    lats = [*(build_lattice(leq) for leq in small), *order_fact_lattices(rng)]
    verdicts = set()
    for lat in lats:
        irreducibles = cube_join_irreducibles(lat)
        assert join_irreducibles(lat) == irreducibles
        assert _join_primes(lat).tolist() == cube_join_primes(lat)
        # on a finite lattice, distributive iff every join-irreducible is join-prime
        want = cube_distributivity_witness(lat)
        assert (want is None) == (cube_join_primes(lat) == irreducibles)
        assert distributivity_witness(lat) == want
        assert is_distributive(lat) == (want is None)
        verdicts.add(want is None)
    assert verdicts == {True, False}


def test_distributivity_verdict_scans_no_triples(monkeypatch):
    """A lattice that is not distributive gets its verdict, and so no Heyting
    table, from one failing triple checked on its tables; the scan of the
    triples runs only when the witness is asked."""
    scans, scan = [], lattice._build_distributivity_witness
    monkeypatch.setattr(lattice, "_build_distributivity_witness",
                        lambda lat: scans.append(lat) or scan(lat))
    lat = m3_times_chain(28)
    assert heyting_table(lat) is None and not is_distributive(lat)
    assert not scans
    a, b, c = distributivity_witness(lat)
    assert lat.meet[a, lat.join[b, c]] != lat.join[lat.meet[a, b], lat.meet[a, c]]
    assert scans == [lat]


def test_distributivity_disagreement_is_a_cross_check_failure():
    """The join-irreducible test reads only the order, the failing triple it
    names is checked on the meet and join tables: the pentagon with a meet
    table that is constantly bottom fails the test, and the triple holds
    there."""
    lat = pentagon()
    broken = FiniteLattice(lat.leq.copy(), np.zeros_like(lat.meet), lat.join.copy(),
                           lat.bot, lat.top, lat.covers)
    with pytest.raises(CrossCheckError, match="distributivity characterizations disagree"):
        distributivity_witness(broken)


def test_sliced_associativity_matches_cube_oracle():
    """build_lattice does not re-check associativity: the coordinate lookup
    that finds its tables decides it.  The slabbed scan is the oracle: it
    holds on every table build_lattice returns, for every lattice up to 8
    elements, seeded larger lattices and the 140-chain, whose tables fill
    several slabs; there it agrees with the whole cube, also on a table with
    a commutative, idempotent, non-associative block."""
    rng = np.random.default_rng(44)
    n = 140
    lats = [*all_lattices(8), *larger_lattices(rng), chain(n)]
    for lat in lats:
        assert slabbed_associative(lat.meet) and slabbed_associative(lat.join)
    assert len(_slabs(n)) > 1
    for table in (lats[-1].meet, lats[-1].join):
        assert cube_associative(table)
        # on the last three elements: with anything outside the block the
        # chain operation still associates, so every failing triple has its
        # first index there, in the last slab
        bad = table.copy()
        p, q, r = n - 3, n - 2, n - 1
        for x, y, z in ((p, q, r), (q, r, p), (p, r, q)):
            bad[x, y] = bad[y, x] = z
        assert not cube_associative(bad) and not slabbed_associative(bad)


def test_lattice_laws_hold_on_built_tables():
    """build_lattice does not re-check the lattice laws: the lookup that finds
    its tables finds true meets and joins.  Every table it returns satisfies
    them, for every lattice up to 8 elements, seeded larger lattices and the
    140-chain; and each law's check fails on a 3-chain table that breaks it."""
    rng = np.random.default_rng(44)
    for lat in [*all_lattices(8), *larger_lattices(rng), chain(140)]:
        assert lattice_law_failures(lat) == []
    lat = chain(3)

    def broken(meet=(), join=(), bot=0):
        tables = lat.meet.copy(), lat.join.copy()
        for table, entries in zip(tables, (meet, join)):
            for a, b, value in entries:
                table[a, b] = value
        return lattice_law_failures(FiniteLattice(lat.leq.copy(), *tables, bot, lat.top,
                                                  lat.covers))

    assert "meet/join not commutative" in broken(meet=[(0, 1, 1)])
    assert "meet/join not idempotent" in broken(meet=[(1, 1, 0)])
    assert "absorption a&(a|b)=a fails" in broken(meet=[(1, 2, 0), (2, 1, 0)])
    assert "absorption a|(a&b)=a fails" in broken(join=[(1, 0, 2), (0, 1, 2)])
    assert "bounds do not absorb" in broken(bot=1)


def test_kept_builders_run_once_per_lattice(monkeypatch):
    """Each kept result is built once per lattice, a None result too: on N5
    the Heyting table is None and the distributivity witness is not.  The
    join-primes serve both the distributivity verdict and the prime filters."""
    runs = Counter()

    def counted(name, builder):
        def run(lat):
            runs[name] += 1
            return builder(lat)
        return run

    names = ("_build_heyting_table", "_build_distributivity_witness", "_build_primes",
             "_build_join_primes")
    for name in names:
        monkeypatch.setattr(lattice, name, counted(name, getattr(lattice, name)))
    for lat in (pentagon(), pentagon()):
        want = oracle_distributive(lat)
        assert want is not None
        for _ in range(3):
            assert heyting_table(lat) is None
            assert distributivity_witness(lat) == want
            assert len(prime_filters(lat)) == len(cube_join_primes(lat))
    assert runs == {name: 2 for name in names}


# --- construction ------------------------------------------------------------


def oracle_validate_partial_order(leq):
    """The checks validate_partial_order made before, transitivity on ``arr @ arr``."""
    arr = np.asarray(leq, dtype=bool)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"order matrix must be square, got shape {arr.shape}")
    diag = arr.diagonal()
    if not diag.all():
        i = int(np.flatnonzero(~diag)[0])
        raise NotPartialOrder(f"not reflexive at {i}", witness=(i,))
    sym = arr & arr.T
    np.fill_diagonal(sym, False)
    if sym.any():
        i, j = (int(v) for v in np.argwhere(sym)[0])
        raise NotPartialOrder(f"antisymmetry fails on ({i}, {j})", witness=(i, j))
    bad = ((arr.astype(int) @ arr.astype(int)) > 0) & ~arr
    if bad.any():
        i, j = (int(v) for v in np.argwhere(bad)[0])
        k = int(np.flatnonzero(arr[i] & arr[:, j])[0])
        raise NotPartialOrder(f"transitivity fails: {i} <= {k} <= {j} but not {i} <= {j}",
                              witness=(i, k, j))
    return arr


def outcome(validate, leq):
    try:
        return "ok", validate(leq).tolist()
    except NablalgError as err:
        return type(err).__name__, str(err), err.witness


def test_partial_order_witnesses_match_square_oracle():
    """One product of the strict order finds the same witness as the square
    of the order, on seeded relations: reflexive or not, acyclic or not,
    and transitively closed or not."""
    rng = np.random.default_rng(12)
    kinds = Counter()
    for _ in range(600):
        n = int(rng.integers(1, 9))
        rel = rng.random((n, n)) < rng.random()
        if rng.random() < 0.7:
            rel = np.triu(rel)      # acyclic, so antisymmetric
            perm = rng.permutation(n)
            rel = rel[np.ix_(perm, perm)]
        if rng.random() < 0.8:
            rel |= np.eye(n, dtype=bool)
        if rng.random() < 0.4:
            for _ in range(n):
                rel |= (rel.astype(int) @ rel.astype(int)) > 0
        want = outcome(oracle_validate_partial_order, rel)
        assert outcome(validate_partial_order, rel) == want
        kinds[want[1].split(" ")[0] if want[0] != "ok" else "ok"] += 1
    assert set(kinds) == {"ok", "not", "antisymmetry", "transitivity"}


def test_one_element_lattice():
    lat = build_lattice([[True]])
    assert lat.n == 1 and lat.bot == 0 and lat.top == 0


def test_three_chain_tables():
    lat = chain(3)
    for a in range(3):
        for b in range(3):
            assert lat.meet[a, b] == min(a, b)
            assert lat.join[a, b] == max(a, b)
    assert lat.bot == 0 and lat.top == 2


def test_rejects_non_reflexive():
    m = np.eye(3, dtype=bool)
    m[1, 1] = False
    with pytest.raises(NotPartialOrder) as e:
        build_lattice(m)
    assert e.value.witness == (1,)


def test_rejects_antisymmetry_violation():
    m = np.eye(2, dtype=bool)
    m[0, 1] = m[1, 0] = True
    with pytest.raises(NotPartialOrder):
        build_lattice(m)


def test_rejects_non_transitive():
    m = np.eye(3, dtype=bool)
    m[0, 1] = m[1, 2] = True
    with pytest.raises(NotPartialOrder) as e:
        build_lattice(m)
    assert e.value.witness == (0, 1, 2)


def test_rejects_meetless_poset():
    # two incomparable points: no common lower bound
    with pytest.raises(NoMeet) as e:
        build_lattice(np.eye(2, dtype=bool))
    assert e.value.witness == (0, 1)


def test_rejects_joinless_poset():
    # bowtie: 0 below both 2, 3; pair (2, 3) has no upper bound
    leq = order_from_covers(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises((NoMeet, NoJoin)):
        build_lattice(leq)


def test_rejects_empty():
    with pytest.raises(NoBounds):
        build_lattice(np.zeros((0, 0), dtype=bool))


# --- distributivity ----------------------------------------------------------


def test_chains_distributive():
    for n in (1, 2, 3, 4, 5):
        assert is_distributive(chain(n))


def test_pentagon_is_lattice_but_not_distributive():
    lat = pentagon()
    w = oracle_distributive(lat)
    assert w is not None
    assert not is_distributive(lat)
    a, b, c = distributivity_witness(lat)
    assert lat.meet[a, lat.join[b, c]] != lat.join[lat.meet[a, b], lat.meet[a, c]]


def test_diamond_not_distributive():
    lat = diamond()
    assert oracle_distributive(lat) is not None
    assert not is_distributive(lat)


def test_distributivity_matches_oracle_on_catalog(small_lattices):
    for lat in small_lattices:
        assert is_distributive(lat) == (oracle_distributive(lat) is None)


# --- relative pseudocomplements ----------------------------------------------


def test_heyting_three_chain_frozen():
    lat = chain(3)
    table = heyting_table(lat)
    expected = oracle_heyting(lat)
    assert (table == expected).all()
    # frozen values: m -> 0 is 0, top -> m is m, a <= b gives top
    assert table.tolist() == [[2, 2, 2], [0, 2, 2], [0, 1, 2]]


def test_heyting_two_chain_is_classical():
    table = heyting_table(chain(2))
    assert table.tolist() == [[1, 1], [0, 1]]


def test_heyting_absent_on_pentagon():
    lat = pentagon()
    assert oracle_heyting(lat) is None
    assert heyting_table(lat) is None


def test_heyting_presence_matches_distributivity_exhaustively(six_lattices):
    for lat in six_lattices:
        assert (heyting_table(lat) is not None) == is_distributive(lat)
        got = heyting_table(lat)
        want = oracle_heyting(lat)
        if want is None:
            assert got is None
        else:
            assert (got == want).all()


# --- greatest-element kernel --------------------------------------------------


def assert_greatest_matches_oracle(order, cand):
    table, found = _greatest(order, cand)
    want_table, want_found = oracle_greatest(order, cand)
    assert (found == want_found).all()
    assert (table[found] == want_table[found]).all()
    return found


def test_greatest_matches_count_oracle_on_small_orders():
    # meets and joins on every bounded candidate order and labeled 4-poset,
    # lattices or not, plus the Heyting cube wherever a lattice comes out
    orders = [leq for n in range(1, 7) for leq in bounded_candidates(n)] + list(all_posets(4))
    assert len(orders) == 463
    partial = 0
    for leq in orders:
        for rel in (leq, leq.T):
            found = assert_greatest_matches_oracle(rel, rel[:, :, None] & rel[:, None, :])
            partial += not found.all()
        try:
            lat = build_lattice(leq)
        except (NoMeet, NoJoin, NoBounds):
            continue
        assert_greatest_matches_oracle(lat.leq, lat.leq[lat.meet])
    assert partial > 0


def test_greatest_matches_count_oracle_on_random_maps(small_lattices):
    # derive_arrow's residual cube on seeded random nablas, most of which have
    # no residual, and nabla_from_strong's least-preimage search on random boxes
    rng = np.random.default_rng(7)
    outcomes = set()
    for lat in small_lattices:
        for nab in [np.arange(lat.n)] + [rng.integers(0, lat.n, lat.n) for _ in range(40)]:
            cand = lat.leq[lat.meet[nab]]
            found = assert_greatest_matches_oracle(lat.leq, cand)
            arrow = derive_arrow(lat, nab)
            if arrow is not None:
                assert (arrow == oracle_greatest(lat.leq, cand)[0]).all()
            outcomes.add((bool(found.all()), arrow is not None))
            box = rng.integers(0, lat.n, lat.n)
            assert_greatest_matches_oracle(lat.leq.T, lat.leq[:, box].T)
    assert outcomes == {(False, False), (True, False), (True, True)}


# --- prime filters -----------------------------------------------------------


def test_prime_filters_three_chain():
    assert prime_filters(chain(3)) == [frozenset({2}), frozenset({1, 2})]


def test_prime_filters_two_chain():
    assert prime_filters(chain(2)) == [frozenset({1})]


def test_prime_filters_boolean_square():
    lat = boolean_square()
    pf = prime_filters(lat)
    assert len(pf) == 2
    assert pf == oracle_prime_filters(lat)
    assert len(join_irreducibles(lat)) == 2


def test_prime_filters_match_subset_oracle(six_lattices):
    for lat in six_lattices:
        got = prime_filters(lat)
        assert got == oracle_prime_filters(lat)
        for f in got:
            assert is_prime_filter(lat, f)


def test_prime_predicates_match_oracles(small_lattices):
    for lat in small_lattices:
        for s in subsets(range(lat.n)):
            assert is_prime_filter(lat, s) == is_prime_filter_oracle(lat, s)
        below = [[x for x in range(lat.n) if x != a and lat.leq[x, a]] for a in range(lat.n)]
        assert join_irreducibles(lat) == [
            a for a in range(lat.n)
            if a != lat.bot and not any(lat.join[x, y] == a for x in below[a] for y in below[a])]


def test_prime_filter_mask_matches_the_row_check(six_lattices):
    """``is_prime_filter``, which compares the set with [p) for its least
    member p and its complement with (k(p)], agrees with the batched mask it
    replaced and with the one-row check before that, on every subset of every
    lattice of at most 6 elements, and on the upsets of the 120-chain and
    seeded sets of its elements, which the batched mask reads across slabs."""
    for lat in six_lattices:
        rows = (np.arange(2 ** lat.n)[:, None] >> np.arange(lat.n) & 1).astype(bool)
        want = [prime_filter_row_oracle(lat, s) for s in rows]
        assert prime_filter_rows(lat, rows).tolist() == want
        assert [is_prime_filter(lat, np.flatnonzero(s)) for s in rows] == want
    lat = chain(120)
    rng = np.random.default_rng(5)
    rows = np.vstack([_upset_rows(lat.leq), rng.random((40, lat.n)) < 0.9])
    assert len(_slabs(len(rows), lat.n ** 2)) > 1
    want = prime_filter_rows(lat, rows)
    assert want.tolist() == [prime_filter_row_oracle(lat, s) for s in rows]
    assert [is_prime_filter(lat, np.flatnonzero(s)) for s in rows] == want.tolist()
    assert want.sum() == lat.n - 1


def test_kappa_check_matches_the_batched_mask(seven_lattices):
    """[p) is a prime filter iff the elements outside it are (k(p)]: over
    every principal filter of every lattice of at most 7 elements and of the
    larger seeded ones, the check by k agrees with the batched mask, and k(p)
    exists exactly at the join-primes; the kept generators are those p, in
    the order of their filters' rows."""
    lats = seven_lattices + larger_lattices(np.random.default_rng(8))
    for lat in lats:
        kappa, found = _kappa(lat, slice(None))
        got, check = _principal_primes(lat, slice(None))
        assert (got == kappa).all()
        assert check.tolist() == prime_filter_rows(lat, lat.leq).tolist()
        assert np.flatnonzero(check).tolist() == np.flatnonzero(found).tolist()
        gen, kept = _primes(lat)
        assert sorted(gen.tolist()) == np.flatnonzero(found).tolist()
        assert (kept == kappa[gen]).all()
        assert (lat.leq[gen] == _sorted_rows(lat.leq[gen])).all()


def test_prime_rows_refuse_a_non_join_prime(monkeypatch):
    """The atoms of M3 are join-irreducible but not join-prime: a patched
    ``_join_primes`` that admits them fails the check by k(p)."""
    monkeypatch.setattr(lattice, "_join_primes", join_irreducibles)
    with pytest.raises(CrossCheckError, match="enumerated set is not a prime filter"):
        prime_filters(diamond())


def test_prime_rows_refuse_a_wrong_kappa(monkeypatch):
    """A k helper that moves one k(p) to top, on a fresh Boolean square and
    3-chain, fails the check of the prime filters; the join-primes, read
    off where k exists, stay right."""
    kappa = lattice._kappa

    def wrong(lat, elems):
        table, found = kappa(lat, elems)
        table = table.copy()
        table[-1] = lat.top
        return table, found

    monkeypatch.setattr(lattice, "_kappa", wrong)
    for lat in (boolean_square(), chain(3)):
        with pytest.raises(CrossCheckError, match="enumerated set is not a prime filter"):
            prime_filters(lat)


def test_prime_filter_count_matches_join_irreducibles(seven_lattices):
    """Oracle for the count check ``_primes`` dropped: a lattice is
    distributive iff its join-primes are its join-irreducibles, so on every
    distributive lattice of at most 7 elements each join-irreducible
    generates one prime filter."""
    distributive = [lat for lat in seven_lattices if is_distributive(lat)]
    assert len(distributive) > 10
    for lat in distributive:
        assert len(_primes(lat)[0]) == len(join_irreducibles(lat))


def test_one_element_lattice_has_no_prime_filter():
    assert prime_filters(chain(1)) == []


@pytest.mark.parametrize("member", [-1, 3, True, 1.7, "1", 2 ** 70])
def test_prime_filter_members_outside_the_carrier_are_refused(member):
    """-1 would wrap around to the top of the 3-chain and pass as [2); True,
    1.7 and '1' were read as 1, and 2**70 overflowed."""
    with pytest.raises(ShapeError, match="is not an element index"):
        is_prime_filter(chain(3), [member])


@pytest.mark.parametrize("values", [[0, 1.5, 2], [False, True, True], ["0", "1", "2"],
                                    [0, 2 ** 70, 2], np.array([0, 1, 2], dtype=object),
                                    [0, True, 2], (0, np.True_, 2)])
def test_indices_refuse_entries_that_are_not_integers(values):
    """Each would be cast to 0..2 by ``np.asarray(values, dtype=np.int64)``
    (2**70 overflowed), with or without a bound."""
    for bound in (3, None):
        with pytest.raises(ShapeError, match="entries must be integers"):
            _indices(values, (3,), bound, "map")


@pytest.mark.parametrize("width", [1, 5, 8, 13, 70])
def test_row_order_matches_the_column_keys(width):
    """The packed-byte keys order rows as the columns taken one key each,
    members first, after the size; equal rows keep their order."""
    rng = np.random.default_rng(width)
    rows = rng.random((60, width)) < 0.5
    rows[40:] = rows[:20]
    want = np.lexsort([~col for col in rows.T[::-1]] + [rows.sum(axis=1)])
    assert (_row_order(rows) == want).all()


def test_relabel_matches_a_fresh_build(small_lattices):
    """``_relabel`` by a seeded permutation gives the order, tables, covers
    and bounds that ``build_lattice`` finds on the renamed order, and keeps
    the renamed Heyting table, equal to the one built from scratch, exactly
    where the lattice is distributive."""
    rng = np.random.default_rng(31)
    for lat in [*small_lattices, chain(96), boolean_256()]:
        heyting_table(lat)
        order = rng.permutation(lat.n)
        got, rename = _relabel(lat, order)
        assert (rename[order] == np.arange(lat.n)).all()
        want = build_lattice(lat.leq[order][:, order])
        for a, b in ((got.leq, want.leq), (got.meet, want.meet), (got.join, want.join),
                     (got.covers[0], want.covers[0]), (got.covers[1], want.covers[1])):
            assert a.dtype == b.dtype and (a == b).all()
        assert (got.bot, got.top) == (want.bot, want.top)
        fresh = heyting_table(want)
        assert (_build_heyting_table in got._kept) == (fresh is not None)
        assert fresh is None or (heyting_table(got) == fresh).all()


def test_indices_check_shape_always_and_range_against_a_bound():
    assert _indices(np.array([2, 0], dtype=np.uint8), (2,), 3, "map").dtype == np.int64
    assert _indices([-5, 2 ** 40], (2,), None, "block vector").tolist() == [-5, 2 ** 40]
    with pytest.raises(ShapeError, match="entries out of range"):
        _indices([-1, 0], (2,), 3, "map")
    with pytest.raises(ShapeError, match="must have length 2"):
        _indices([0, 1, 2], (2,), None, "block vector")
    with pytest.raises(ShapeError, match=r"must have shape \(2, 2\)"):
        _indices([0, 1], (2, 2), 2, "arrow table")


# --- upset lattices ----------------------------------------------------------


def test_upsets_one_point():
    fam = upset_lattice(np.eye(1, dtype=bool))
    assert fam.lattice.n == 2
    assert fam.members.tolist() == [[False], [True]]


def test_upsets_two_chain_gives_three_chain():
    fam = upset_lattice(chain_matrix(2))
    assert fam.lattice.n == 3
    assert lattice_iso(fam.lattice, chain(3)) is not None


def test_upsets_two_antichain_gives_boolean_square():
    fam = upset_lattice(np.eye(2, dtype=bool))
    assert fam.lattice.n == 4
    assert lattice_iso(fam.lattice, boolean_square()) is not None


def test_upset_lattices_match_the_inclusion_lattice(seven_lattices):
    """On the orders of every lattice up to 7 elements, the upset lattice
    with the complements as co-rows is ``build_lattice`` of the upsets'
    inclusion order, and its join is the union."""
    for lat in seven_lattices:
        fam = upset_lattice(lat.leq)
        rows = fam.members
        assert_inclusion_lattice(fam.lattice, rows)
        assert (rows[fam.lattice.join] == (rows[:, None] | rows[None])).all()


@pytest.mark.parametrize("leq, dropped", [
    (np.eye(2, dtype=bool), []),        # {} = {0} & {1}: a meet is missing
    (np.eye(2, dtype=bool), [0, 1]),    # {0, 1} = {0} | {1}: a join is missing
    (np.eye(3, dtype=bool), [0, 1]),    # {0, 1} = {0} | {1}, below {0, 1, 2}
], ids=["bottom", "top", "middle"])
def test_upset_family_with_a_row_dropped_is_refused(monkeypatch, leq, dropped):
    rows = _upset_rows(leq)
    fewer = rows[[np.flatnonzero(row).tolist() != dropped for row in rows]]
    assert len(fewer) == len(rows) - 1
    assert _family_lattice(fewer, ~fewer) is None
    monkeypatch.setattr(lattice, "_upset_rows", lambda arr: fewer)
    with pytest.raises(CrossCheckError, match="upsets must be closed under intersection and union"):
        upset_lattice(leq)


def test_all_upsets_matches_subset_oracle():
    for leq in (np.eye(3, dtype=bool), chain_matrix(3),
                order_from_covers(4, [(0, 1), (0, 2)]),
                order_from_covers(4, [(0, 2), (1, 2), (2, 3)]),
                *(leq for n in range(1, 5) for leq in all_posets(n))):
        assert all_upsets(leq) == oracle_upsets(leq)


def test_all_upsets_past_sixty_four_elements():
    # the upsets of a chain are its final segments
    assert all_upsets(chain_matrix(70)) == [frozenset(range(k, 70)) for k in range(70, -1, -1)]


def test_upset_count_is_bounded():
    assert len(all_upsets(np.eye(8, dtype=bool))) == SIZE_MAX == 256
    with pytest.raises(TooLarge):
        all_upsets(np.eye(9, dtype=bool))
    with pytest.raises(TooLarge):
        upset_lattice(np.eye(12, dtype=bool))


def bfs_upset_rows(arr):
    """The breadth-first closure _upset_rows replaced: each round unions the
    upsets new in the last round with every principal upset, and keeps the
    first occurrence of each row."""
    n = arr.shape[0]
    found = new = np.zeros((1, n), dtype=bool)
    while len(new):
        both = np.vstack([found, (new[:, None] | arr[None]).reshape(len(new) * n, n)])
        first = np.unique(_row_keys(both), return_index=True)[1]
        new = both[first[first >= len(found)]]
        found = np.vstack([found, new])
        if len(found) > SIZE_MAX:
            raise TooLarge(f"order has more than {SIZE_MAX} upsets")
    return _sorted_rows(found)


def random_poset(rng, n):
    leq = np.eye(n, dtype=bool) | np.triu(rng.random((n, n)) < rng.random(), 1)
    for _ in range(n):
        leq |= (leq.astype(int) @ leq.astype(int)) > 0
    perm = rng.permutation(n)
    return leq[np.ix_(perm, perm)]


def test_upset_rows_match_breadth_first_oracle():
    orders = [leq for n in range(6) for leq in all_posets(n)]
    rng = np.random.default_rng(14)
    orders += [random_poset(rng, int(n)) for n in rng.integers(5, 12, 300)]
    sizes = set()
    for leq in orders:
        try:
            want = bfs_upset_rows(leq)
        except TooLarge:
            with pytest.raises(TooLarge):
                _upset_rows(leq)
            sizes.add("too large")
            continue
        got = _upset_rows(leq)
        assert got.dtype == bool and got.tolist() == want.tolist()
        sizes.add(len(got))
    assert "too large" in sizes and max(s for s in sizes if s != "too large") > 64
    antichain = np.eye(9, dtype=bool)
    for upset_rows in (bfs_upset_rows, _upset_rows):
        with pytest.raises(TooLarge):
            upset_rows(antichain)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 12 - 1), st.integers(2, 4))
def test_upset_lattice_of_random_poset_is_heyting(bits, n):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    covers = [p for k, p in enumerate(pairs) if (bits >> k) & 1]
    leq = order_from_covers(n, covers)
    if (leq & leq.T & ~np.eye(n, dtype=bool)).any():
        return  # cyclic, not a poset
    fam = upset_lattice(leq)
    assert is_distributive(fam.lattice)
    assert heyting_table(fam.lattice) is not None


# --- enumeration and isomorphism ---------------------------------------------


def test_labeled_poset_counts():
    # known values: 1, 3, 19, 219 labeled posets on 1..4 elements
    for n, want in [(1, 1), (2, 3), (3, 19), (4, 219)]:
        assert sum(1 for _ in all_posets(n)) == want


def test_unlabeled_lattice_counts(seven_lattices):
    # known values (OEIS A006966): 1, 1, 1, 2, 5, 15, 53 lattice isomorphism
    # classes on 1..7 elements
    by_size = {}
    for lat in seven_lattices:
        by_size[lat.n] = by_size.get(lat.n, 0) + 1
    assert by_size == {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53}


def oracle_canonical(leq):
    """The least bytes of ``leq[p][:, p]`` over all n! permutations p."""
    perms = np.array(list(itertools.permutations(range(leq.shape[0]))), dtype=np.int64)
    return min(m.tobytes() for m in leq[perms[:, :, None], perms[:, None, :]])


def test_canonical_order_matrix_matches_permutation_oracle(seven_lattices):
    # every bounded candidate order up to 6 elements and labeled 4-poset,
    # seeded relabelings of the 7-element lattices (the antichain middles
    # give the most ties), and random relations, for which the search is
    # exact too
    rng = np.random.default_rng(7)
    orders = [leq for n in range(1, 7) for leq in bounded_candidates(n)] + list(all_posets(4))
    for lat in seven_lattices:
        if lat.n == 7:
            perm = rng.permutation(7)
            orders.append(lat.leq[np.ix_(perm, perm)])
    orders += list(rng.random((40, 5, 5)) < 0.5)
    orders.append(np.zeros((0, 0), dtype=bool))
    for leq in orders:
        assert canonical_order_matrix(leq) == oracle_canonical(leq)


def test_order_iso_separates_equal_signatures():
    # non-isomorphic 6-element posets with equal sorted signatures: only the
    # backtracker tells them apart, and it finds each one's relabeling
    a = order_from_covers(6, [(0, 1), (1, 4), (0, 5), (2, 5), (3, 4)])
    b = order_from_covers(6, [(0, 3), (1, 3), (2, 3), (2, 4), (4, 5)])
    assert sorted(_signatures(a)) == sorted(_signatures(b))
    assert _order_iso(a, b, _signatures(a), _signatures(b)) is None
    for leq in (a, b):
        flipped = leq[::-1, ::-1]
        iso = _order_iso(leq, flipped, _signatures(leq), _signatures(flipped))
        assert (flipped[np.ix_(iso, iso)] == leq).all()


def test_all_lattices_class_counts():
    # OEIS A006966
    counts = Counter(lat.n for lat in all_lattices(8))
    assert [counts[n] for n in range(1, 9)] == [1, 1, 1, 2, 5, 15, 53, 222]


def test_all_lattices_matches_per_candidate_canonical_dedupe():
    # the former route: a canonical form for every bounded candidate that is
    # a lattice, deduplicated and sorted per size; the permutation oracle
    # gives the forms up to 6 elements
    want = []
    for n in range(1, 8):
        canons = set()
        for leq in bounded_candidates(n):
            try:
                lat = build_lattice(leq)
            except (NoMeet, NoJoin, NoBounds):
                continue
            canons.add(canonical_order_matrix(lat.leq) if n == 7 else oracle_canonical(lat.leq))
        want += sorted(canons)
    assert [lat.leq.tobytes() for lat in all_lattices(7)] == want


def test_rejected_child_is_a_cross_check_failure(monkeypatch):
    # offered every subset as an upset, the growth step makes a child that is
    # no partial order: a fault of the library, not of any input
    def every_subset(leq):
        return np.array(list(itertools.product([False, True], repeat=len(leq))))

    monkeypatch.setattr(lattice, "_upset_rows", every_subset)
    with pytest.raises(CrossCheckError, match="an admissible new atom must leave a lattice"):
        all_lattices(4)


def test_isomorphic_classes_are_a_cross_check_failure(monkeypatch):
    # with the raw matrix in place of the canonical form, isomorphic children
    # stay apart (the pentagon grows from the 4-chain and from the square),
    # which the isomorphism check within signature buckets catches
    monkeypatch.setattr(lattice, "canonical_order_matrix", lambda leq: np.asarray(leq).tobytes())
    with pytest.raises(CrossCheckError,
                       match="lattices with distinct canonical forms must not be isomorphic"):
        all_lattices(5)


def test_all_lattices_agrees_with_poset_filtering():
    # growing one atom at a time must reach the same classes as filtering
    # every labeled poset
    from nablalg.errors import NoBounds, NoJoin, NoMeet
    from nablalg.lattice import canonical_order_matrix

    for n in (1, 2, 3, 4):
        from_posets = set()
        for leq in all_posets(n):
            try:
                lat = build_lattice(leq)
            except (NoMeet, NoJoin, NoBounds):
                continue
            from_posets.add(canonical_order_matrix(lat.leq))
        from_middles = {canonical_order_matrix(lat.leq)
                        for lat in all_lattices(n) if lat.n == n}
        assert from_posets == from_middles


def test_lattice_iso_finds_relabelings():
    lat = chain(3)
    perm = np.array([2, 0, 1])
    shuffled = build_lattice(lat.leq[np.ix_(perm, perm)])
    iso = lattice_iso(shuffled, lat)
    assert iso is not None
    for a in range(3):
        for b in range(3):
            assert shuffled.leq[a, b] == lat.leq[iso[a], iso[b]]


def test_lattice_iso_distinguishes_pentagon_diamond():
    assert lattice_iso(pentagon(), diamond()) is None
