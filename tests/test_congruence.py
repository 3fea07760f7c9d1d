import itertools

import numpy as np
import pytest

from nablalg import congruence
from nablalg.algebra import (
    AlgebraMorphism,
    NablaAlgebra,
    _build_profile,
    classify,
    identity_morphism,
)
from nablalg.congruence import (
    Congruence,
    _congruence_closure,
    _modal_filter_rows,
    _orbits,
    _power_criteria,
    all_congruences_oracle,
    all_modal_filters,
    canonical_blocks,
    check_congruence_extension,
    check_internal_cong_inequalities,
    congruence_from_filter,
    filter_from_congruence,
    is_congruence,
    is_modal_filter,
    is_simple,
    is_subdirectly_irreducible,
    modal_filter_closure,
)
from nablalg.errors import (
    InvalidMorphism,
    NotEmbedding,
    NotNormal,
    ShapeError,
    TooLarge,
    Trivial,
)
from nablalg.gallery import enumerate_algebras, gen_heyting, gen_trivial, gen_xn

from conftest import chain, subsets


# --- independent oracles -----------------------------------------------------


def oracle_closure(alg, seed):
    """Generated modal filter via bounded word closure, then meets, then upsets."""
    words = set(int(s) for s in seed) | {alg.lat.top}
    while True:
        new = words | {int(alg.nabla[v]) for v in words} | {int(alg.box[v]) for v in words}
        if new == words:
            break
        words = new
    meets = set(words)
    while True:
        new = meets | {int(alg.lat.meet[a, b]) for a in meets for b in meets}
        if new == meets:
            break
        meets = new
    out = set()
    for m in meets:
        out |= {y for y in range(alg.n) if alg.lat.leq[m, y]}
    return frozenset(out)


def oracle_modal_filters(alg):
    out = []
    for s in subsets(range(alg.n)):
        if s and is_modal_filter(alg, s):
            out.append(s)
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return out


def set_partitions(n):
    """All partitions of range(n) as canonical block vectors."""
    if n == 0:
        yield ()
        return

    def rec(i, blocks):
        if i == n:
            yield tuple(blocks)
            return
        used = max(blocks, default=-1)
        for b in range(used + 2):
            blocks.append(b)
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def oracle_congruences(alg):
    out = [blocks for blocks in set_partitions(alg.n) if is_congruence(alg, blocks)]
    out.sort(key=lambda b: (-len(set(b)), b))
    return out


def oracle_orbit(table, x):
    seen = []
    v = x
    while v not in seen:
        seen.append(v)
        v = int(table[v])
    return seen


def oracle_power_criteria(alg, table):
    """(simple, SI) by the orbit loops of ``table``."""
    lat = alg.lat
    others = [x for x in range(alg.n) if x != lat.top]
    simple = all(lat.bot in oracle_orbit(table, x) for x in others)
    si = any(all(any(lat.leq[v, x] for v in oracle_orbit(table, y)) for y in others)
             for x in others)
    return simple, si


def oracle_refines(theta, other):
    seen = {}
    for x, b in enumerate(theta.blocks):
        if b in seen:
            if other.blocks[x] != other.blocks[seen[b]]:
                return False
        else:
            seen[b] = x
    return True


def oracle_is_congruence(alg, blocks):
    """Every member of a block maps like the block's first member."""
    b = np.asarray(blocks, dtype=np.int64)
    lat = alg.lat
    reps = {}
    for x in range(alg.n):
        reps.setdefault(int(b[x]), []).append(x)
    for group in reps.values():
        x = group[0]
        for y in group[1:]:
            if b[alg.nabla[x]] != b[alg.nabla[y]]:
                return False
            for table in (lat.meet, lat.join, alg.arrow):
                if (b[table[x]] != b[table[y]]).any():
                    return False
                if (b[table[:, x]] != b[table[:, y]]).any():
                    return False
    return True


def oracle_si_witness(alg):
    """The first maximal x != top inside every modal filter generated by a y != top."""
    top = alg.lat.top
    common = frozenset.intersection(*(modal_filter_closure(alg, {y}).members
                                      for y in range(alg.n) if y != top)) - {top}
    maximal = [x for x in sorted(common)
               if not any(alg.lat.leq[x, y] and x != y for y in common)]
    return maximal[0] if maximal else None


def normal_distributive_algebras():
    """The normal distributive algebras up to 6 elements, gen_xn(1..4) and
    Heyting chains."""
    algs = [alg for alg in enumerate_algebras(6) if classify(alg).has("N", "D")]
    return algs + [gen_xn(k) for k in range(1, 5)] + [gen_heyting(chain(k)) for k in (2, 7, 30)]


# --- closure -----------------------------------------------------------------


def test_closure_x1_middle_generates_everything(x1):
    f = modal_filter_closure(x1, {1})
    assert f.members == frozenset({0, 1, 2})
    assert f.members == oracle_closure(x1, {1})


def test_closure_heyting_chain_is_principal_filter(h3):
    f = modal_filter_closure(h3, {1})
    assert f.members == frozenset({1, 2})
    assert f.members == oracle_closure(h3, {1})


def test_closure_empty_seed_gives_top_only(x1, h3, b4):
    for alg in (x1, h3, b4):
        assert modal_filter_closure(alg, set()).members == frozenset({alg.lat.top})


@pytest.mark.parametrize("fn", [is_modal_filter, modal_filter_closure])
@pytest.mark.parametrize("member", [-1, 3])
def test_members_outside_the_carrier_are_refused(h3, fn, member):
    """-1 would wrap around to the top of the 3-chain."""
    with pytest.raises(ShapeError, match="is not an element index"):
        fn(h3, [member])


def test_closure_requires_normal():
    with pytest.raises(NotNormal):
        modal_filter_closure(gen_trivial(chain(3)), {1})


def test_closure_matches_word_oracle_on_catalog(small_catalog):
    for alg in small_catalog:
        if not classify(alg).has("N"):
            continue
        for seed in subsets(range(alg.n)):
            got = modal_filter_closure(alg, seed).members
            assert got == oracle_closure(alg, seed)


def test_closure_monotone_and_idempotent(x1, h3, b4):
    for alg in (x1, h3, b4):
        seeds = list(subsets(range(alg.n)))
        for s in seeds:
            once = modal_filter_closure(alg, s).members
            assert modal_filter_closure(alg, once).members == once
            for t in seeds:
                if s <= t:
                    assert once <= modal_filter_closure(alg, t).members


# --- modal filter enumeration -------------------------------------------------


def test_modal_filters_x1(x1):
    assert [f.members for f in all_modal_filters(x1)] == [
        frozenset({2}),
        frozenset({0, 1, 2}),
    ]


def test_modal_filters_heyting_chain(h3):
    assert [f.members for f in all_modal_filters(h3)] == [
        frozenset({2}),
        frozenset({1, 2}),
        frozenset({0, 1, 2}),
    ]


def test_modal_filters_two_boolean(b2):
    assert len(all_modal_filters(b2)) == 2


def test_modal_filter_rows_match_definition(full_catalog):
    """The batched predicate against the definition read literally, on every
    subset of every algebra up to 5 elements."""
    for alg in full_catalog:
        lat, n = alg.lat, alg.n
        sets = list(subsets(range(n)))
        rows = np.array([[x in s for x in range(n)] for s in sets], dtype=bool).reshape(-1, n)
        want = [lat.top in s
                and all(y in s for x in s for y in range(n) if lat.leq[x, y])
                and all(alg.nabla[x] in s and alg.box[x] in s for x in s)
                and all(lat.meet[x, y] in s for x in s for y in s)
                for s in sets]
        assert _modal_filter_rows(alg, rows).tolist() == want
        assert [is_modal_filter(alg, s) for s in sets] == want


def test_modal_filters_match_subset_oracle(small_catalog):
    for alg in small_catalog:
        if not classify(alg).has("N"):
            continue
        got = [f.members for f in all_modal_filters(alg)]
        assert got == oracle_modal_filters(alg)


# --- the bijection -----------------------------------------------------------


def test_alpha_on_heyting_chain(h3):
    fs = all_modal_filters(h3)
    theta = congruence_from_filter(h3, fs[1])  # {m, top}
    assert theta.blocks == (0, 1, 1)
    ident = congruence_from_filter(h3, fs[0])  # {top}
    assert ident.blocks == (0, 1, 2)


def test_beta_total_on_x1(x1):
    total = Congruence(x1, (0, 0, 0))
    assert filter_from_congruence(x1, total).members == frozenset({0, 1, 2})


def test_bijection_on_catalog(small_catalog):
    for alg in small_catalog:
        if not classify(alg).has("N", "D"):
            continue
        filters = all_modal_filters(alg)
        congs = all_congruences_oracle(alg)
        assert len(filters) == len(congs)
        images = set()
        for f in filters:
            theta = congruence_from_filter(alg, f)
            assert filter_from_congruence(alg, theta).members == f.members
            images.add(theta.blocks)
        assert images == {c.blocks for c in congs}
        for theta in congs:
            f = filter_from_congruence(alg, theta)
            assert congruence_from_filter(alg, f).blocks == theta.blocks
        # monotone both ways
        for f in filters:
            for g in filters:
                if f.members <= g.members:
                    assert congruence_from_filter(alg, f).refines(
                        congruence_from_filter(alg, g))


# --- congruence oracle -------------------------------------------------------


def test_oracle_counts(x1, h3):
    assert len(all_congruences_oracle(x1)) == 2
    assert len(all_congruences_oracle(h3)) == 3
    one = gen_trivial(chain(1))
    assert len(all_congruences_oracle(one)) == 1


def test_oracle_matches_partition_enumeration(small_catalog):
    for alg in small_catalog:
        got = [c.blocks for c in all_congruences_oracle(alg)]
        assert got == oracle_congruences(alg)


def test_single_pair_closure_is_finest_congruence_relating_the_pair(small_catalog):
    for alg in small_catalog:
        n = alg.n
        congs = oracle_congruences(alg)
        xs, ys = np.triu_indices(n, 1)
        seeds = np.zeros((len(xs), n, n), dtype=bool)
        seeds[np.arange(len(xs)), xs, ys] = True
        for x, y, rel in zip(xs, ys, _congruence_closure(alg, seeds)):
            relating = [Congruence(alg, b) for b in congs if b[x] == b[y]]
            finest = relating[0]
            assert all(finest.refines(theta) for theta in relating)
            b = np.array(finest.blocks)
            assert (rel == (b[:, None] == b[None, :])).all()


def test_oracle_on_eight_chain_with_constant_dynamics():
    alg = gen_trivial(chain(8))
    got = [c.blocks for c in all_congruences_oracle(alg)]
    # the congruences are the 2^7 partitions of the chain into intervals,
    # found among all Bell(8) = 4140 partitions
    assert len(got) == 128
    assert got == oracle_congruences(alg)


def test_oracle_matches_partition_enumeration_on_six_elements():
    six = [alg for alg in enumerate_algebras(6) if alg.n == 6]
    rng = np.random.default_rng(6)
    for i in rng.choice(len(six), size=200, replace=False):
        alg = six[int(i)]
        assert [c.blocks for c in all_congruences_oracle(alg)] == oracle_congruences(alg)


def test_oracle_too_large():
    from nablalg.gallery import gen_xn

    with pytest.raises(TooLarge):
        all_congruences_oracle(gen_xn(4))


def test_congruences_respect_heyting_when_present(small_catalog):
    # automatic Heyting-respect is a consequence of the filter bijection,
    # so it is only promised under normality and distributivity
    for alg in small_catalog:
        if not classify(alg).has("N", "D", "H"):
            continue
        hey = alg.heyting
        for theta in all_congruences_oracle(alg):
            b = np.array(theta.blocks)
            for x in range(alg.n):
                for y in range(alg.n):
                    if theta.same(x, y):
                        assert (b[hey[x]] == b[hey[y]]).all()
                        assert (b[hey[:, x]] == b[hey[:, y]]).all()


def test_canonical_blocks():
    assert canonical_blocks([5, 5, 2, 5, 2]) == (0, 0, 1, 0, 1)


# --- verdicts ----------------------------------------------------------------


def test_subdirectly_irreducible_x1(x1):
    v = is_subdirectly_irreducible(x1)
    assert v.flag and v.witness == 1


def test_subdirectly_irreducible_heyting_chain(h3):
    v = is_subdirectly_irreducible(h3)
    assert v.flag and v.witness == 1


def test_boolean_square_not_subdirectly_irreducible(b4):
    assert not is_subdirectly_irreducible(b4).flag


def test_si_rejects_trivial():
    with pytest.raises(Trivial):
        is_subdirectly_irreducible(gen_trivial(chain(1)))


def test_simple_verdicts(x1, h3, b2):
    assert is_simple(x1).flag
    assert not is_simple(h3).flag
    assert is_simple(b2).flag


def test_verdicts_on_large_algebras():
    from nablalg.gallery import gen_xn

    v = is_simple(gen_heyting(chain(150)))
    assert not v.flag and v.witness == 1
    v = is_subdirectly_irreducible(gen_xn(6))
    assert v.flag and v.witness == 63


def test_simple_implies_subdirectly_irreducible(small_catalog):
    for alg in small_catalog:
        if alg.n == 1 or not classify(alg).has("N", "D"):
            continue
        if is_simple(alg).flag:
            assert is_subdirectly_irreducible(alg).flag


def test_si_agrees_with_congruence_oracle(small_catalog):
    for alg in small_catalog:
        if alg.n == 1 or not classify(alg).has("N", "D"):
            continue
        congs = all_congruences_oracle(alg)
        nontrivial = [c for c in congs if c.n_blocks() != alg.n]
        has_least = bool(nontrivial) and any(
            all(c.refines(d) for d in nontrivial) for c in nontrivial
        )
        assert is_subdirectly_irreducible(alg).flag == has_least
        assert is_simple(alg).flag == (len(congs) == 2)


def test_power_criteria_match_orbit_loops():
    seen = set()
    for alg in normal_distributive_algebras():
        for table in (alg.nabla, alg.box):
            got = _power_criteria(alg, table)
            assert got == oracle_power_criteria(alg, table)
            seen.add(got)
    assert seen == set(itertools.product((True, False), repeat=2))


def test_power_criteria_once_on_left_and_right_algebras(monkeypatch):
    """On a Heyting chain nabla = box = the identity, so the algebra is left
    and right, and each verdict takes the power criteria of that one table."""
    alg = gen_heyting(chain(5))
    assert classify(alg).has("L", "R")
    tables = []

    def counted(alg, table):
        tables.append(table)
        return _power_criteria(alg, table)

    monkeypatch.setattr(congruence, "_power_criteria", counted)
    for verdict in (is_simple, is_subdirectly_irreducible):
        tables.clear()
        verdict(alg)
        assert len(tables) == 1


def step_orbits(table):
    """The former orbit walk, one step of ``table`` at a time for n - 1 steps."""
    idx = cur = np.arange(len(table))
    orbits = np.eye(len(table), dtype=bool)
    for _ in range(len(table) - 1):
        cur = table[cur]
        orbits[idx, cur] = True
    return orbits


def test_orbits_by_doubling_match_the_step_walk():
    """Random maps, cyclic shifts (one orbit of all n points, so n - 1 steps
    are needed) and a path into a fixed point, on either side of each power
    of two the doubling rounds reach."""
    rng = np.random.default_rng(46)
    for n in [*range(1, 41), 75, 130]:
        maps = [rng.integers(0, n, n) for _ in range(3)]
        maps += [(np.arange(n) + 1) % n, np.maximum(np.arange(n) - 1, 0)]
        for table in maps:
            assert (_orbits(table) == step_orbits(table)).all()


def test_si_witness_matches_filter_oracle():
    witnesses = set()
    for alg in normal_distributive_algebras():
        if alg.n > 1:
            v = is_subdirectly_irreducible(alg)
            assert v.witness == oracle_si_witness(alg) and v.flag == (v.witness is not None)
            witnesses.add(v.witness)
    assert None in witnesses and len(witnesses) > 2


def test_simple_witness_is_first_element_with_a_nontrivial_closure():
    for alg in normal_distributive_algebras():
        failing = [x for x in range(alg.n) if x != alg.lat.top
                   and alg.lat.bot not in modal_filter_closure(alg, {x}).members]
        v = is_simple(alg)
        assert v.flag == (not failing) and v.witness == (failing[0] if failing else None)


def test_refines_matches_loop_on_five_element_catalog(full_catalog):
    outcomes = set()
    for alg in full_catalog:
        if alg.n == 5:
            congs = all_congruences_oracle(alg)
            for theta, other in itertools.product(congs, repeat=2):
                assert theta.refines(other) == oracle_refines(theta, other)
                outcomes.add(theta.refines(other))
    assert outcomes == {True, False}


def test_is_congruence_matches_loop_on_every_partition(full_catalog):
    outcomes = set()
    for alg in full_catalog:
        if alg.n <= 4 or alg.n == 5 and classify(alg).has("N", "D"):
            for blocks in set_partitions(alg.n):
                assert is_congruence(alg, blocks) == oracle_is_congruence(alg, blocks)
                outcomes.add(is_congruence(alg, blocks))
    assert outcomes == {True, False}


# --- inequality suite ----------------------------------------------------------


def test_internal_inequalities_pass(x1, h3, b4):
    for alg in (x1, h3, b4):
        rep = check_internal_cong_inequalities(alg)
        assert rep.ok and not rep.violations


def test_internal_inequalities_on_catalog(small_catalog):
    for alg in small_catalog:
        if classify(alg).has("N", "D"):
            assert check_internal_cong_inequalities(alg).ok


def oracle_internal_failures(alg):
    """First failing (x, y, z) of each inequality in row-major order, by loops."""
    n, leq, meet, join = alg.n, alg.lat.leq, alg.lat.meet, alg.lat.join
    arr, nab, box, hey = alg.arrow, alg.nabla, alg.box, alg.heyting

    def first(arity, holds):
        return next((t for t in itertools.product(range(n), repeat=arity)
                     if not holds(*t)), None)

    laws = {
        "meet-translation": first(3, lambda x, y, z: leq[arr[x, y], arr[meet[x, z], meet[y, z]]]),
        "join-translation": first(3, lambda x, y, z: leq[arr[x, y], arr[join[x, z], join[y, z]]]),
        "nabla-distribution": first(2, lambda x, y: leq[nab[arr[x, y]], arr[nab[x], nab[y]]]),
        "second-arg-composition": first(
            3, lambda x, y, z: leq[box[arr[x, y]], arr[arr[z, x], arr[z, y]]]),
        "first-arg-composition": first(
            3, lambda x, y, z: leq[box[arr[x, y]], arr[arr[y, z], arr[x, z]]]),
    }
    if hey is not None:
        laws["heyting-second-arg"] = first(
            3, lambda x, y, z: leq[arr[x, y], arr[hey[z, x], hey[z, y]]])
        laws["heyting-first-arg"] = first(
            3, lambda x, y, z: leq[arr[x, y], arr[hey[y, z], hey[x, z]]])
    return [(law, w) for law, w in laws.items() if w is not None]


def test_internal_inequality_witnesses_match_loop_oracle(full_catalog):
    # seeded broken tables over the normal distributive catalog, carrying the
    # profile of the algebra they were broken from
    nd = [alg for alg in full_catalog if classify(alg).has("N", "D")]
    rng = np.random.default_rng(23)
    seen = set()
    for _ in range(300):
        alg = nd[rng.integers(len(nd))]
        n = alg.n
        nab, arr = alg.nabla.copy(), alg.arrow.copy()
        for _ in range(rng.integers(1, 4)):
            arr[rng.integers(n), rng.integers(n)] = rng.integers(n)
        if rng.random() < 0.3:
            nab[rng.integers(n)] = rng.integers(n)
        broken = NablaAlgebra(alg.lat, nab, arr)
        broken._kept[_build_profile] = classify(alg)
        got = [(v.law, v.witness) for v in check_internal_cong_inequalities(broken).violations]
        assert got == oracle_internal_failures(broken)
        seen.update(law for law, _ in got)
    assert len(seen) == 7


# --- extension ----------------------------------------------------------------


def test_congruence_extension_bound_embedding(b2, h3):
    inclusion = AlgebraMorphism(b2, h3, (0, 2))
    rep = check_congruence_extension(b2, h3, inclusion)
    assert rep.ok and len(rep.cases) == 2


def test_congruence_extension_identity(h3):
    inclusion = AlgebraMorphism(h3, h3, (0, 1, 2))
    rep = check_congruence_extension(h3, h3, inclusion)
    assert rep.ok and len(rep.cases) == 3
    for case in rep.cases:
        assert case.extension.blocks == case.theta.blocks


def test_congruence_extension_restriction_matches_pair_loop():
    # bound-preserving embeddings of Heyting chains are algebra embeddings
    for k, m in ((3, 5), (4, 6)):
        sub, big = gen_heyting(chain(k)), gen_heyting(chain(m))
        for middle in itertools.combinations(range(1, m - 1), k - 2):
            fmap = (0, *middle, m - 1)
            rep = check_congruence_extension(sub, big, AlgebraMorphism(sub, big, fmap))
            for case in rep.cases:
                assert case.restricts == all(
                    case.theta.same(a, b) == case.extension.same(fmap[a], fmap[b])
                    for a in range(k) for b in range(k))


def test_congruence_extension_rejects_non_embedding(b2, h3):
    with pytest.raises(NotEmbedding):
        check_congruence_extension(b2, h3, AlgebraMorphism(b2, h3, (0, 0)))


# --- structures of another algebra ----------------------------------------------


@pytest.fixture(scope="module")
def chains234():
    return [gen_heyting(chain(k)) for k in (2, 3, 4)]


def test_extension_rejects_an_inclusion_into_another_algebra(chains234):
    """An inclusion from h2 into h3 does not include h2 in h4."""
    h2, h3, h4 = chains234
    with pytest.raises(InvalidMorphism):
        check_congruence_extension(h2, h4, AlgebraMorphism(h2, h3, (0, 2)))


def test_extension_rejects_an_inclusion_from_another_algebra(chains234):
    h2, h3, h4 = chains234
    with pytest.raises(InvalidMorphism):
        check_congruence_extension(h2, h3, identity_morphism(h4))


def test_extension_accepts_an_inclusion_between_equal_tables(chains234):
    h2, h3, _ = chains234
    twin = gen_heyting(chain(3))
    assert check_congruence_extension(h2, h3, AlgebraMorphism(h2, twin, (0, 2))).ok


def test_beta_rejects_a_congruence_of_another_algebra(chains234):
    """The identity congruence of h4 would read as the filter {2} of h3."""
    _, h3, h4 = chains234
    with pytest.raises(ShapeError, match="other tables"):
        filter_from_congruence(h3, all_congruences_oracle(h4)[0])


def test_alpha_rejects_a_filter_of_another_algebra(chains234):
    _, h3, h4 = chains234
    with pytest.raises(ShapeError, match="other tables"):
        congruence_from_filter(h3, all_modal_filters(h4)[1])


@pytest.mark.parametrize("blocks", [(0, 0), (0, 0, 1, 1)])
def test_is_congruence_rejects_a_block_vector_of_another_length(chains234, blocks):
    with pytest.raises(ShapeError, match="length 3"):
        is_congruence(chains234[1], blocks)


def test_refines_rejects_a_congruence_of_another_algebra(chains234):
    _, h3, h4 = chains234
    theta = all_congruences_oracle(h3)[0]
    with pytest.raises(ShapeError, match="other tables"):
        theta.refines(all_congruences_oracle(h4)[0])
    twin = gen_heyting(chain(3))
    assert theta.refines(all_congruences_oracle(twin)[-1])


def test_translations_are_built_once_per_algebra(monkeypatch, full_catalog):
    """The maps of ``_translations`` are kept on the algebra: the oracle and
    ``is_simple``, which runs the oracle again and every closure of both,
    build them once for each algebra."""
    built = []
    translations = congruence._translations

    def counted(alg):
        built.append(alg)
        return translations(alg)

    monkeypatch.setattr(congruence, "_translations", counted)
    algs = [alg for alg in full_catalog if alg.n >= 4 and classify(alg).has("N", "D")][:8]
    for alg in algs:
        all_congruences_oracle(alg)
        is_simple(alg)
        assert not congruence._kept(alg, counted).flags.writeable
    assert [id(a) for a in built] == [id(a) for a in algs]
