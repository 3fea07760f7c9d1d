import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import nablalg.completion as completion
from nablalg.algebra import build_algebra, classify, derive_arrow
from nablalg.cli import main
from nablalg.completion import (
    _bound_rows,
    _closure_rows,
    _ideal_rows,
    dm_complete,
    is_normal_ideal,
    lower_bounds,
    lu_closure,
    normal_ideals,
    upper_bounds,
)
from nablalg.errors import CrossCheckError, ShapeError
from nablalg.gallery import gen_heyting, gen_trivial, gen_xn
from nablalg.kripke import build_frame, upset_algebra
from nablalg.lattice import (
    FiniteLattice,
    _compose,
    _family_lattice,
    _intersection_table,
    _locate,
    _partial_order,
    _row_keys,
    _slabs,
    _sorted_rows,
    _subset,
)
from nablalg.serialize import algebra_to_json, dumps

from conftest import (
    assert_inclusion_lattice,
    boolean_256,
    chain,
    order_from_covers,
    probe_rows,
    subsets,
)


# --- independent oracles: closures, ideals and lifted tables over frozensets ---


def oracle_lu_closure(lat, members):
    above = [u for u in range(lat.n) if all(lat.leq[s, u] for s in members)]
    return frozenset(x for x in range(lat.n) if all(lat.leq[x, u] for u in above))


def canonical_order(sets):
    return sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))


def oracle_normal_subsets(lat):
    return canonical_order(s for s in subsets(range(lat.n)) if oracle_lu_closure(lat, s) == s)


def oracle_normal_ideals(lat):
    """Principal ideals closed under pairwise intersection, canonically ordered."""
    closed = {lat.downset_of(a) for a in range(lat.n)}
    while True:
        new = {a & b for a in closed for b in closed} - closed
        if not new:
            return canonical_order(closed)
        closed |= new


def oracle_dm_complete(alg):
    """The ideals, the ideal order, meet, join, the lifted nabla, arrow and box,
    and the embedding, by the defining formulas over frozensets."""
    lat = alg.lat
    meet, nab = lat.meet.tolist(), alg.nabla.tolist()
    ideals = oracle_normal_ideals(lat)
    index = {m: i for i, m in enumerate(ideals)}
    return {
        "ideals": ideals,
        "leq": [[a <= b for b in ideals] for a in ideals],
        "meet": [[index[a & b] for b in ideals] for a in ideals],
        "join": [[index[oracle_lu_closure(lat, a | b)] for b in ideals] for a in ideals],
        "nabla": [index[oracle_lu_closure(lat, frozenset().union(
            *(lat.downset_of(nab[x]) for x in a)))] for a in ideals],
        "arrow": [[index[frozenset(x for x in range(lat.n)
                                   if all(meet[nab[x]][m] in b for m in a))]
                   for b in ideals] for a in ideals],
        "box": [index[frozenset(x for x in range(lat.n) if nab[x] in b)] for b in ideals],
        "embedding": tuple(index[lat.downset_of(x)] for x in range(lat.n)),
    }


# --- the generic routes the characterizations replaced, kept as oracles ------


def fixpoint_ideal_rows(lat):
    """The principal ideals closed under pairwise intersection by a fixpoint,
    each round deduplicated, in (size, members) order."""
    def distinct(rows):
        return rows[np.unique(_row_keys(rows), return_index=True)[1]]

    rows, size = lat.leq.T, 0
    while len(rows) > size:
        size = len(rows)
        rows = distinct(np.vstack([distinct((rows[s, None] & rows[None]).reshape(-1, lat.n))
                                   for s in _slabs(size)]))
    return _sorted_rows(rows)


def is_ideal_join(lat, rows, join):
    """Whether ``join[i, j]`` is the join of normal ideals i and j for every
    pair: its upper bounds must be those of both, ub(lu(I | J)) =
    ub(I) & ub(J), and a normal ideal is fixed by its upper bounds."""
    ub = _bound_rows(lat, rows, upper=True)
    return all((ub[join[s]] == (ub[s, None] & ub[None])).all() for s in _slabs(len(rows)))


def is_closure_join(lat, rows, join):
    """Whether each ``join[i, j]`` is the closure of the union of ideals i and j."""
    n = lat.n
    return all((rows[join[s].ravel()]
                == _closure_rows(lat, (rows[s, None] | rows[None]).reshape(-1, n))).all()
               for s in _slabs(len(rows)))


def gather_arrow(alg):
    """The lifted arrow by its defining sets, arrow((g], N) =
    {x : nabla(x) & g in N}: row (j, i) gathers ideal j at nabla(-) & g_i, a
    slab of ideals N at a time, and each set is located among the ideals."""
    lat, n = alg.lat, alg.n
    rows = _ideal_rows(lat)[0]
    k = len(rows)
    gen = np.argsort(_locate(rows, lat.leq.T)[0])     # gen[i]: the generator of ideal i
    meets = lat.meet[gen][:, alg.nabla]
    table = np.zeros((k, k), dtype=np.int64)
    for s in _slabs(k):
        pos, found = _locate(rows, rows[s].take(meets, axis=1).reshape(-1, n))
        assert found.all()
        table[:, s] = pos.reshape(-1, k).T
    return table


def coatom_meet_algebra(lat):
    """The algebra of the meet nabla x -> x & c for a largest coatom c."""
    coatoms = np.flatnonzero(lat.leq[:, lat.top] & (np.arange(lat.n) != lat.top))
    nab = lat.meet[:, max(coatoms, key=lambda c: lat.leq[:, c].sum())]
    return build_algebra(lat, nab, derive_arrow(lat, nab))


def subset_arrow(alg, rows):
    """The lifted arrow over every member of M: row (j, x) holds the m with
    nabla(x) & m in ideal j, and arrow(M, N_j) is the x whose row holds M."""
    lat, k, n = alg.lat, len(rows), alg.n
    table = np.zeros((k, k), dtype=np.int64)
    for s in _slabs(k):
        arrow = _subset(rows, rows[s][:, lat.meet[alg.nabla]].reshape(-1, n))
        pos, found = _locate(rows, arrow.reshape(-1, n))
        assert found.all()
        table[:, s] = pos.reshape(k, -1)
    return table


@pytest.mark.parametrize("make", [boolean_256, lambda: chain(256)], ids=["boolean", "chain"])
def test_characterizations_match_the_generic_routes(make):
    """On the Heyting Boolean 2^8 and 256-chain, whose ideals fill several
    slabs: the principal ideals are the intersection fixpoint, the
    upper-bound join check and the closure of unions give one verdict, also
    on a join table with two entries swapped, and the generator arrow is the
    arrow over every member of M."""
    alg = gen_heyting(make())
    lat = alg.lat
    rows, ub = _ideal_rows(lat)
    assert len(_slabs(len(rows))) > 1
    assert (rows == fixpoint_ideal_rows(lat)).all()
    assert (ub == _bound_rows(lat, rows, upper=True)).all()
    comp = dm_complete(alg)
    join = comp.algebra.lat.join
    assert is_ideal_join(lat, rows, join) and is_closure_join(lat, rows, join)
    bad = join.copy()
    bad[0, 1], bad[0, 2] = join[0, 2], join[0, 1]
    assert bad[0, 1] != join[0, 1]
    assert not is_ideal_join(lat, rows, bad) and not is_closure_join(lat, rows, bad)
    assert (comp.algebra.arrow == subset_arrow(alg, rows)).all()


@pytest.mark.parametrize("make", [boolean_256, lambda: chain(256)], ids=["boolean", "chain"])
def test_ideal_lattice_matches_the_inclusion_lattice(make):
    """The ideal lattice with the upper bounds as co-rows is, order, tables
    and bounds, ``build_lattice`` of the ideals' inclusion order, and that
    lattice's joins are the joins of ideals."""
    lat = make()
    rows, ub = _ideal_rows(lat)
    ideal_lat = _family_lattice(rows, ub)
    assert_inclusion_lattice(ideal_lat, rows)
    assert is_ideal_join(lat, rows, ideal_lat.join)


def test_ideals_of_a_meetless_order_are_refused():
    """Two tops above the same two atoms: the principal ideals of 3 and 4
    meet in {0, 1, 2}, which is no principal ideal, and their upper bounds
    have no common member.  Neither lookup finds a table, and the completion
    refuses the family."""
    leq, covers = _partial_order(order_from_covers(5, [(0, 1), (0, 2), (1, 3), (2, 3),
                                                      (1, 4), (2, 4)]))
    zeros = np.zeros((5, 5), dtype=np.int64)
    lat = FiniteLattice(leq, zeros, zeros, 0, 3, covers)
    rows, ub = _ideal_rows(lat)
    inclusion = _subset(rows, rows)
    assert _intersection_table(rows, inclusion) is None
    assert _intersection_table(ub, inclusion.T) is None
    assert _family_lattice(rows, ub) is None
    with pytest.raises(CrossCheckError, match="normal ideals must be principal"):
        dm_complete(SimpleNamespace(lat=lat, n=5))


def completion_peak(alg):
    tracemalloc.start()
    try:
        dm_complete(alg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_completion_peak_memory():
    """On the Heyting Boolean 2^8 one completion peaks under 6 MB: no
    k x k x n table is held whole, and the intersections of the 256-bit ideal
    and upper-bound rows are looked up a slab of rows at a time."""
    assert completion_peak(gen_heyting(boolean_256())) < 6 * 2 ** 20


def test_completion_of_the_heyting_chain_peak_memory():
    """On the Heyting 256-chain one completion peaks under 6 MB: the Heyting
    table of the ideal lattice comes from the recursion over lower covers,
    where the former (|J|, n, n) residual search alone was a 16 MB table,
    and the lifted arrow is its residual, with no k^2 sets gathered."""
    assert completion_peak(gen_heyting(chain(256))) < 6 * 2 ** 20


# --- the lifted arrow: the residual against the gather ---------------------


def test_lifted_arrow_matches_the_gather(full_catalog):
    """The residual of the lifted nabla is the gathered arrow over the
    catalog and ``gen_xn`` 1-6."""
    for alg in [*full_catalog, *(gen_xn(k) for k in range(1, 7))]:
        assert (dm_complete(alg).algebra.arrow == gather_arrow(alg)).all()


@pytest.mark.parametrize("make", [boolean_256, lambda: chain(256)], ids=["boolean", "chain"])
def test_lifted_arrow_matches_the_gather_at_256(make):
    """On the Boolean 2^8 and the 256-chain, whose ideals fill several slabs,
    with the Heyting nabla and with the meet nabla x -> x & c of a coatom c."""
    lat = make()
    for alg in (gen_heyting(lat), coatom_meet_algebra(lat)):
        assert (dm_complete(alg).algebra.arrow == gather_arrow(alg)).all()


def test_missing_residual_is_a_library_bug(monkeypatch, tmp_path, capsys, x1):
    """A lifted nabla without a residual fails a cross-check, so
    ``nablalg dm-complete`` exits 3 rather than report an adjunction failure."""
    monkeypatch.setattr(completion, "derive_arrow", lambda lat, nabla: None)
    with pytest.raises(CrossCheckError, match="the lifted nabla must have a residual"):
        dm_complete(x1)
    path = tmp_path / "x1.json"
    path.write_text(dumps(algebra_to_json(x1)))
    assert main(["dm-complete", str(path)]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == {
        "error": "internal", "message": "the lifted nabla must have a residual"}


def test_completion_locates_three_families(monkeypatch, full_catalog):
    """``dm_complete`` looks up three families among the ideals, the
    embedding, the lifted nabla and the lifted box, each of at most k rows."""
    calls, locate = [], completion._locate

    def counted(family, rows):
        calls.append(len(rows))
        return locate(family, rows)

    monkeypatch.setattr(completion, "_locate", counted)
    for alg in [*full_catalog, gen_heyting(boolean_256())]:
        calls.clear()
        dm_complete(alg)
        assert len(calls) == 3 and max(calls) <= alg.n


def assert_matches_oracle(alg):
    want = oracle_dm_complete(alg)
    comp = dm_complete(alg)
    got = comp.algebra
    assert [i.members for i in normal_ideals(alg)] == want["ideals"]
    assert [i.members for i in comp.ideals] == want["ideals"]
    assert got.lat.leq.tolist() == want["leq"]
    assert got.lat.meet.tolist() == want["meet"]
    assert got.lat.join.tolist() == want["join"]
    assert got.nabla.tolist() == want["nabla"]
    assert got.arrow.tolist() == want["arrow"]
    assert got.box.tolist() == want["box"]
    assert comp.embedding == want["embedding"]


def test_completion_matches_oracle_on_catalog(full_catalog):
    assert len(full_catalog) == 279
    for alg in full_catalog:
        assert_matches_oracle(alg)


def test_completion_matches_oracle_on_xn():
    for i in range(1, 6):
        assert_matches_oracle(gen_xn(i))


def test_completion_matches_oracle_on_boolean_relation_image():
    # the upsets of a 5-element antichain form the Boolean 2^5; nabla is the
    # image under a seeded relation
    rng = np.random.default_rng(20240611)
    alg = upset_algebra(build_frame(np.eye(5, dtype=bool), rng.random((5, 5)) < 0.4))
    assert alg.n == 32
    assert_matches_oracle(alg)


def test_lifted_nabla_unions_are_closed(full_catalog):
    """``dm_complete`` locates the union of the principal ideals of nabla
    over each ideal (g] without closing it, since nabla is monotone and the
    union is (nabla(g)]; the closure leaves every such union as it is, over
    the catalog, ``gen_xn`` 1-6 and both 256-element Heyting algebras."""
    algs = [*full_catalog, *(gen_xn(k) for k in range(1, 7)),
            gen_heyting(boolean_256()), gen_heyting(chain(256))]
    for alg in algs:
        rows = _ideal_rows(alg.lat)[0]
        union = _compose(rows, alg.lat.leq.T[alg.nabla])
        assert (_closure_rows(alg.lat, union) == union).all()


def test_row_closure_matches_subset_oracle(small_lattices):
    for lat in small_lattices:
        every = [frozenset(s) for s in subsets(range(lat.n))]
        rows = np.zeros((len(every), lat.n), dtype=bool)
        for i, s in enumerate(every):
            rows[i, list(s)] = True
        closed = _closure_rows(lat, rows)
        assert [frozenset(np.flatnonzero(r).tolist()) for r in closed] == \
            [oracle_lu_closure(lat, s) for s in every]
        fixed = [s for s, row, c in zip(every, rows, closed) if (row == c).all()]
        assert canonical_order(fixed) == oracle_normal_subsets(lat)


def test_lu_operators_three_chain():
    lat = chain(3)
    assert upper_bounds(lat, {0, 1}) == frozenset({1, 2})
    assert lower_bounds(lat, {1, 2}) == frozenset({0, 1})
    assert upper_bounds(lat, set()) == frozenset({0, 1, 2})
    assert lu_closure(lat, {1}) == frozenset({0, 1})
    assert lu_closure(lat, set()) == frozenset({0})


def test_is_normal_ideal_reads_an_iterator_once():
    """Members given as an iterator or a generator are read once: the
    closure and the comparison see the same set."""
    lat = chain(3)
    assert is_normal_ideal(lat, [0, 1])
    assert is_normal_ideal(lat, iter([0, 1]))
    assert is_normal_ideal(lat, (x for x in (0, 1)))
    assert not is_normal_ideal(lat, iter([1]))


@pytest.mark.parametrize("fn", [upper_bounds, lower_bounds, lu_closure, is_normal_ideal])
@pytest.mark.parametrize("member", [-1, 3, True, 1.7, "1", 2 ** 70])
def test_members_outside_the_carrier_are_refused(fn, member):
    """-1 would wrap around to the top of the 3-chain: ``lu_closure`` read
    [-2] as {0, 1}; True, 1.7 and '1' were read as 1, and 2**70
    overflowed."""
    with pytest.raises(ShapeError, match="is not an element index"):
        fn(chain(3), [member])


def test_normal_ideal_predicate_matches_the_closure_fixpoint(six_catalog_and_xn):
    """``is_normal_ideal`` against the sets the closure fixes, on every
    principal filter and ideal, their complements, the empty and full sets
    and eight random sets of each algebra's lattice of the six-element
    catalog and gen_xn 1-6."""
    rng = np.random.default_rng(29)
    for alg in six_catalog_and_xn:
        rows = probe_rows(alg.lat, rng)
        got = [is_normal_ideal(alg.lat, np.flatnonzero(row).tolist()) for row in rows]
        assert got == (_closure_rows(alg.lat, rows) == rows).all(axis=1).tolist()


def test_ideal_rows_are_closure_fixpoints(six_catalog_and_xn):
    """The upper bounds that ``_ideal_rows`` reads off the order are the
    upper-bound product of each principal ideal, and each ideal is the lower
    bounds of its upper bounds, on the lattices of the six-element catalog,
    gen_xn 1-6 and both 256-element lattices."""
    for lat in [*(alg.lat for alg in six_catalog_and_xn), boolean_256(), chain(256)]:
        rows, ub = _ideal_rows(lat)
        assert (ub == _bound_rows(lat, rows, upper=True)).all()
        assert (_bound_rows(lat, ub, upper=False) == rows).all()


def test_normal_ideals_three_chain(h3):
    ideals = [i.members for i in normal_ideals(h3)]
    assert ideals == [frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})]


def test_normal_ideals_one_element():
    alg = gen_trivial(chain(1))
    assert [i.members for i in normal_ideals(alg)] == [frozenset({0})]


def test_normal_ideals_boolean_square(b4):
    assert len(normal_ideals(b4)) == 4


def test_normal_ideals_match_closure_oracle(small_catalog):
    for alg in small_catalog[:60]:
        got = [i.members for i in normal_ideals(alg)]
        # in a finite lattice the nonempty closure fixpoints are exactly
        # the principal ideals; the empty set closes to {bot}
        want = [s for s in oracle_normal_subsets(alg.lat) if s]
        assert got == want
        for members in got:
            assert is_normal_ideal(alg.lat, members)


# --- completion --------------------------------------------------------------


def test_completion_of_x1_is_isomorphic(x1):
    comp = dm_complete(x1)
    assert comp.algebra.n == x1.n
    emb = np.array(comp.embedding)
    assert sorted(comp.embedding) == list(range(x1.n))
    assert (emb[x1.nabla] == comp.algebra.nabla[emb]).all()
    assert (emb[x1.arrow] == comp.algebra.arrow[emb[:, None], emb[None, :]]).all()


def test_completion_of_trivial_two_chain():
    alg = gen_trivial(chain(2))
    comp = dm_complete(alg)
    assert comp.algebra.n == 2
    assert (comp.algebra.nabla == comp.algebra.lat.bot).all()


def test_completion_of_boolean_square_identity(b4):
    comp = dm_complete(b4)
    assert comp.algebra.n == 4
    emb = np.array(comp.embedding)
    assert (comp.algebra.nabla[emb] == emb).all()


def test_completion_transports_flags(small_catalog):
    for alg in small_catalog:
        comp = dm_complete(alg)
        src = classify(alg)
        dst = classify(comp.algebra)
        for flag in ("H", "N", "R", "L", "Fa", "Fu"):
            if getattr(src, flag):
                assert getattr(dst, flag)


def test_lifted_pair_is_unique(small_catalog):
    # over every alternative nabla on the ideal lattice, the arrow is forced
    # by residuation; requiring the embedding to be a morphism pins the pair
    import itertools

    for alg in small_catalog:
        if alg.n > 3:
            continue
        comp = dm_complete(alg)
        ilat = comp.algebra.lat
        emb = np.array(comp.embedding)
        survivors = []
        for cand in itertools.product(range(ilat.n), repeat=ilat.n):
            nab = np.array(cand, dtype=np.int64)
            arrow = derive_arrow(ilat, nab)
            if arrow is None:
                continue
            if (emb[alg.nabla] != nab[emb]).any():
                continue
            if (emb[alg.arrow] != arrow[emb[:, None], emb[None, :]]).any():
                continue
            survivors.append((tuple(cand), tuple(map(tuple, arrow.tolist()))))
        expected = (tuple(int(v) for v in comp.algebra.nabla),
                    tuple(map(tuple, comp.algebra.arrow.tolist())))
        assert survivors == [expected]


def test_ideal_family_forms_no_cube():
    """On the Boolean 2^8 the normal ideals and their lattice peak under
    8 MB, half of one 256 x 256 x 256 boolean table: the pairwise
    intersections of the ideals and of their upper bounds are formed as
    packed bits.  The ideals, several slabs of them, are exactly the
    principal ones."""
    lat = boolean_256()
    assert len(_slabs(lat.n)) > 1
    tracemalloc.start()
    try:
        rows, ub = _ideal_rows(lat)
        ideal_lat = _family_lattice(rows, ub)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert (rows == _sorted_rows(lat.leq.T)).all()
    assert ideal_lat.n == lat.n
