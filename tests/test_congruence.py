import itertools

import numpy as np
import pytest

from nablalg.algebra import AlgebraMorphism, NablaAlgebra, classify
from nablalg.congruence import (
    Congruence,
    _congruence_closure,
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
from nablalg.errors import NotEmbedding, NotNormal, TooLarge, Trivial
from nablalg.gallery import enumerate_algebras, gen_heyting, gen_trivial

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
        broken._profile = classify(alg)
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


def test_congruence_extension_rejects_non_embedding(b2, h3):
    with pytest.raises(NotEmbedding):
        check_congruence_extension(b2, h3, AlgebraMorphism(b2, h3, (0, 0)))
