import itertools
from collections import Counter

import numpy as np
import pytest

from nablalg.algebra import (
    AlgebraMorphism,
    algebra_iso,
    check_morphism,
    classify,
    identity_morphism,
    tables_equal,
)
from nablalg.errors import (
    FlagMismatch,
    NotCompatible,
    NotKripkeMorphism,
    NotSurjective,
)
import nablalg.kripke as kripke
from nablalg.gallery import gen_heyting, gen_trivial
from nablalg.kripke import (
    FrameMorphism,
    amalgamate_algebras,
    amalgamate_frames,
    build_frame,
    canonical_frame_embedding,
    check_frame_morphism,
    compose_frame_morphisms,
    frame_profile,
    frames_equal,
    inverse_image_morphism,
    prime_frame,
    prime_inverse_morphism,
    upset_algebra,
)
from nablalg.lattice import all_upsets, prime_filters

from conftest import boolean_square, chain, chain_matrix


def one_point_frame():
    e = np.ones((1, 1), dtype=bool)
    return build_frame(e, e)


def two_chain_frame(r=None):
    leq = chain_matrix(2)
    return build_frame(leq, leq if r is None else r)


def frames_isomorphic(a, b):
    if a.n != b.n:
        return False
    for perm in itertools.permutations(range(a.n)):
        p = np.array(perm)
        if (a.leq == b.leq[np.ix_(p, p)]).all() and (a.r == b.r[np.ix_(p, p)]).all():
            return True
    return False


def random_frame(rng, n):
    """A random poset on n worlds with a compatible R = leq ; S ; leq."""
    leq = np.eye(n, dtype=bool) | np.triu(rng.random((n, n)) < 0.4, 1)
    for _ in range(n):
        leq = leq | ((leq.astype(int) @ leq.astype(int)) > 0)
    perm = rng.permutation(n)
    leq = leq[np.ix_(perm, perm)]
    seed = rng.random((n, n)) < rng.random()
    rel = (leq.astype(int) @ seed.astype(int) @ leq.astype(int)) > 0
    return build_frame(leq, rel)


def oracle_upset_algebra_tables(frame):
    """Order, nabla and arrow of the upset algebra by direct set evaluation."""
    ups = all_upsets(frame.leq)
    index = {u: i for i, u in enumerate(ups)}
    worlds = range(frame.n)
    leq = [[u <= v for v in ups] for u in ups]
    nabla = [index[frozenset(x for x in worlds if any(frame.r[y, x] for y in u))]
             for u in ups]
    arrow = [[index[frozenset(x for x in worlds
                              if all(not frame.r[x, y] or y not in u or y in v
                                     for y in worlds))]
              for v in ups] for u in ups]
    return leq, nabla, arrow


def oracle_prime_relations(alg):
    """Per pair of prime filters: inclusion, nabla-image containment, and the
    definitional form (arrow(a, b) in P and a in Q force b in Q)."""
    primes = prime_filters(alg.lat)
    elems = range(alg.n)
    leq = [[p <= q for q in primes] for p in primes]
    image = [[all(int(alg.nabla[x]) in q for x in p) for q in primes] for p in primes]
    definitional = [[all(b in q for a in elems for b in elems
                         if int(alg.arrow[a, b]) in p and a in q)
                     for q in primes] for p in primes]
    return leq, image, definitional


def oracle_faithful_full(frame):
    """First failing world of the Fa and Fu clauses (None when the flag holds),
    by quantifier loops."""
    n, leq, r = frame.n, frame.leq, frame.r
    fa = next(((x,) for x in range(n) if not any(
        r[y, x] and all(not r[y, z] or leq[x, z] for z in range(n)) for y in range(n))), None)
    fu = next(((x,) for x in range(n) if not any(
        r[x, y] and all(not r[z, y] or leq[z, x] for z in range(n)) for y in range(n))), None)
    return {"Fa": fa, "Fu": fu}


def oracle_lift_witnesses(src, tgt, f):
    """First failing (k, lp) of each lifting clause in row-major order (None
    when it holds), by quantifier loops."""
    ls = range(src.n)

    def first(bad):
        return next(((k, lp) for k in ls for lp in range(tgt.n) if bad(k, lp)), None)

    return {
        "lift-successors": first(lambda k, lp: tgt.r[f[k], lp] and not any(
            src.r[k, l] and f[l] == lp for l in ls)),
        "lift-predecessors": first(lambda k, lp: tgt.r[lp, f[k]] and not any(
            src.r[l, k] and tgt.leq[lp, f[l]] for l in ls)),
        "lift-order": first(lambda k, lp: tgt.leq[f[k], lp] and not any(
            src.leq[k, l] and f[l] == lp for l in ls)),
    }


def oracle_detect_pi(order, rel):
    """The normality witness by a loop over the column maxima, or None and
    the first failure."""
    n = order.shape[0]
    pi = np.zeros(n, dtype=np.int64)
    for y in range(n):
        col = np.flatnonzero(rel[:, y])
        if len(col) == 0:
            return None, ("empty-column", (y,))
        maxes = [m for m in col if order[col, m].all()]
        if not maxes:
            return None, ("no-column-maximum", (y,))
        pi[y] = maxes[0]
    pairs = list(itertools.product(range(n), repeat=2))
    for u, v in pairs:
        if order[u, v] and not order[pi[u], pi[v]]:
            return None, ("witness-not-order-preserving", (u, v))
    for x, y in pairs:
        if rel[x, y] != order[x, pi[y]]:
            return None, ("witness-does-not-reproduce-relation", (x, y))
    return pi, None


def oracle_compatibility_witness(order, rel):
    """The first (k', l') outside R that le ; R ; le reaches, and the first
    chain k' <= k, (k, l) in R, l <= l' through it, by loops."""
    n = order.shape[0]
    for kp, lp in itertools.product(range(n), repeat=2):
        if rel[kp, lp]:
            continue
        for k, l in itertools.product(range(n), repeat=2):
            if order[kp, k] and rel[k, l] and order[l, lp]:
                return (kp, k, l, lp)
    return None


def oracle_preimages(src, tgt, f):
    """The successor-preimage condition of the witness characterization, by sets."""
    return all(
        {lp for lp in range(tgt.n) if tgt.leq[f[k], tgt.pi[lp]]}
        == {int(f[l]) for l in range(src.n) if src.leq[k, src.pi[l]]}
        for k in range(src.n)
    )


# --- construction ------------------------------------------------------------


def test_one_point_frame_pi_identity():
    k = one_point_frame()
    assert k.pi is not None and k.pi.tolist() == [0]


def test_two_chain_frame_with_order_relation():
    k = two_chain_frame()
    assert k.pi.tolist() == [0, 1]
    assert frame_profile(k).flags() == frozenset({"N", "R", "L", "Fa", "Fu"})


def test_two_chain_frame_with_full_relation():
    k = two_chain_frame(np.ones((2, 2), dtype=bool))
    assert k.pi.tolist() == [1, 1]
    profile = frame_profile(k)
    assert profile.has("N", "R") and not profile.L


def test_incompatible_relation_rejected():
    leq = chain_matrix(2)
    r = np.zeros((2, 2), dtype=bool)
    r[1, 0] = True  # 0 <= 1 and (1, 0) in R force (0, 0), missing
    with pytest.raises(NotCompatible) as e:
        build_frame(leq, r)
    assert e.value.witness == (0, 1, 0, 0)


def test_incompatible_witness_matches_loop_oracle():
    rng = np.random.default_rng(17)
    rejected = 0
    for _ in range(200):
        leq = random_frame(rng, int(rng.integers(1, 7))).leq
        rel = rng.random(leq.shape) < rng.random()
        want = oracle_compatibility_witness(leq, rel)
        if want is None:
            assert build_frame(leq, rel).n == leq.shape[0]
            continue
        with pytest.raises(NotCompatible) as e:
            build_frame(leq, rel)
        assert e.value.witness == want
        rejected += 1
    assert rejected > 50


def test_non_normal_frame_reported():
    # three-world antichain, two worlds relate into the third: no column max
    leq = np.eye(3, dtype=bool)
    r = np.zeros((3, 3), dtype=bool)
    r[0, 2] = r[1, 2] = True
    k = build_frame(leq, r)
    assert k.pi is None
    profile = frame_profile(k)
    assert not profile.N and profile.witnesses["N"] == ("empty-column", (0,))


def test_empty_frame_allowed():
    z = np.zeros((0, 0), dtype=bool)
    k = build_frame(z, z)
    assert k.n == 0 and frame_profile(k).has("N", "R", "L", "Fa", "Fu")


# --- profiles ----------------------------------------------------------------


def test_profile_one_point_all_true():
    assert frame_profile(one_point_frame()).flags() == frozenset(
        {"N", "R", "L", "Fa", "Fu"})


def test_profile_of_prime_frame_of_x1(x1):
    k = prime_frame(x1)
    assert k.n == 2
    assert k.leq.tolist() == [[True, True], [False, True]]
    assert k.r.tolist() == [[True, True], [False, False]]
    assert k.pi.tolist() == [0, 0]
    profile = frame_profile(k)
    assert profile.has("N", "L")
    assert not profile.R and not profile.Fa and not profile.Fu


# --- frame morphisms ---------------------------------------------------------


def test_collapse_two_chain_to_point_is_heyting_surjection():
    src = two_chain_frame()
    tgt = one_point_frame()
    rep = check_frame_morphism(FrameMorphism(src, tgt, (0, 0), heyting=True))
    assert rep.ok and rep.surjective and rep.heyting_ok


def test_identity_frame_morphism(x1):
    k = prime_frame(x1)
    rep = check_frame_morphism(FrameMorphism(k, k, tuple(range(k.n)), heyting=True))
    assert rep.ok and rep.surjective


def test_broken_frame_morphism_reports_clause():
    src = two_chain_frame(np.ones((2, 2), dtype=bool))
    tgt = two_chain_frame()
    rep = check_frame_morphism(FrameMorphism(src, tgt, (0, 1)))
    assert not rep.ok
    assert {v.law for v in rep.violations} & {
        "preserves-relation", "lift-successors", "lift-predecessors"}


def _mask_test_frames(full_catalog):
    rng = np.random.default_rng(11)
    frames = [random_frame(rng, int(n)) for n in rng.integers(1, 7, 60)]
    frames += [prime_frame(alg) for alg in full_catalog if classify(alg).D]
    return frames, rng


def test_detect_pi_matches_column_loop(full_catalog):
    frames, rng = _mask_test_frames(full_catalog)
    # arbitrary relations over the same orders reach every failure kind
    cases = [(k.leq, k.r) for k in frames]
    cases += [(k.leq, rng.random((k.n, k.n)) < rng.random()) for k in frames[:60] * 5]
    kinds = Counter()
    for order, rel in cases:
        pi, failure = kripke._detect_pi(order, rel)
        want_pi, want_failure = oracle_detect_pi(order, rel)
        assert failure == want_failure
        assert (pi is None and want_pi is None) or pi.tolist() == want_pi.tolist()
        kinds[failure and failure[0]] += 1
    assert len(kinds) == 5, kinds


def test_frame_profile_matches_loop_oracle(full_catalog):
    frames, _ = _mask_test_frames(full_catalog)
    for frame in frames:
        profile = frame_profile(frame)
        want = oracle_faithful_full(frame)
        for flag in ("Fa", "Fu"):
            assert getattr(profile, flag) == (want[flag] is None)
            assert profile.witnesses.get(flag) == want[flag]


def test_frame_morphism_clauses_match_loop_oracle(full_catalog):
    frames, rng = _mask_test_frames(full_catalog)
    checked = {"lift-successors": 0, "lift-predecessors": 0, "lift-order": 0}
    for _ in range(600):
        src, tgt = (frames[i] for i in rng.integers(len(frames), size=2))
        if src.n and not tgt.n:
            continue
        if rng.random() < 0.3:
            tgt = src
            f = np.arange(src.n) if rng.random() < 0.5 else rng.permutation(src.n)
        else:
            f = rng.integers(tgt.n, size=src.n)
        rep = check_frame_morphism(FrameMorphism(src, tgt, tuple(int(v) for v in f),
                                                 heyting=True))
        got = {v.law: v.witness for v in rep.violations}
        for law, witness in oracle_lift_witnesses(src, tgt, f).items():
            assert got.get(law) == witness
            checked[law] += witness is not None
        clauses = not ({"preserves-relation", "lift-successors", "lift-predecessors"}
                       & set(got))
        assert rep.ok == (clauses and "monotone" not in got and "lift-order" not in got)
        if "monotone" not in got and src.pi is not None and tgt.pi is not None:
            commutes = bool((f[src.pi] == tgt.pi[f]).all())
            assert (commutes and oracle_preimages(src, tgt, f)) == clauses
    assert min(checked.values()) > 0


# --- upsets of frames ---------------------------------------------------------


def test_upset_algebra_one_point_is_two_boolean(b2):
    alg = upset_algebra(one_point_frame())
    assert alg.n == 2
    assert algebra_iso(alg, b2) is not None


def test_upset_algebra_two_chain_is_heyting_chain(h3):
    alg = upset_algebra(two_chain_frame())
    assert alg.n == 3
    assert algebra_iso(alg, h3) is not None


def test_upset_algebra_of_prime_frame_of_x1(x1):
    alg = upset_algebra(prime_frame(x1))
    assert alg.n == 3
    assert algebra_iso(alg, x1) is not None


def test_upset_algebra_flag_transport():
    frames = [
        one_point_frame(),
        two_chain_frame(),
        two_chain_frame(np.ones((2, 2), dtype=bool)),
        build_frame(np.eye(2, dtype=bool), np.eye(2, dtype=bool)),
    ]
    for k in frames:
        aprof = classify(upset_algebra(k))
        for flag in frame_profile(k).flags():
            assert getattr(aprof, flag)


def test_upset_algebra_matches_set_oracle():
    rng = np.random.default_rng(20240517)
    frames = [random_frame(rng, n) for n in (0, 1, 1) + tuple(rng.integers(2, 6, 60))]
    assert any(k.pi is None for k in frames) and any(k.pi is not None for k in frames)
    for k in frames:
        alg = upset_algebra(k)
        leq, nabla, arrow = oracle_upset_algebra_tables(k)
        assert alg.lat.leq.tolist() == leq
        assert alg.nabla.tolist() == nabla
        assert alg.arrow.tolist() == arrow


def test_inverse_image_of_collapse_embeds_booleans(b2, h3):
    f = FrameMorphism(two_chain_frame(), one_point_frame(), (0, 0), heyting=True)
    m = inverse_image_morphism(f)
    assert m.map == (0, 2)
    rep = check_morphism(m)
    assert rep.ok and rep.injective


def test_inverse_image_of_identity_is_identity(x1):
    k = prime_frame(x1)
    m = inverse_image_morphism(FrameMorphism(k, k, tuple(range(k.n))))
    assert m.map == tuple(range(m.source.n))


def test_inverse_image_rejects_non_morphism():
    src = two_chain_frame(np.ones((2, 2), dtype=bool))
    tgt = two_chain_frame()
    with pytest.raises(NotKripkeMorphism):
        inverse_image_morphism(FrameMorphism(src, tgt, (0, 1)))


# --- prime frames ---------------------------------------------------------------


def test_prime_frame_of_two_boolean_is_point(b2):
    assert frames_equal(prime_frame(b2), one_point_frame())


def test_prime_frame_of_heyting_chain(h3):
    k = prime_frame(h3)
    assert frames_isomorphic(k, two_chain_frame())


def test_canonical_embedding_x1(x1):
    m = canonical_frame_embedding(x1)
    assert m.map == (0, 1, 2)
    rep = check_morphism(m)
    assert rep.ok and rep.injective and m.target.n == x1.n


def test_canonical_embedding_boolean_square(b4):
    m = canonical_frame_embedding(b4)
    assert m.target.n == 4
    # prime frame of the square is the two-world antichain
    assert frames_isomorphic(prime_frame(b4),
                             build_frame(np.eye(2, dtype=bool), np.eye(2, dtype=bool)))


def test_canonical_embedding_one_element():
    alg = gen_trivial(chain(1))
    m = canonical_frame_embedding(alg)
    assert m.map == (0,) and m.target.n == 1


def test_prime_frame_flag_transport(full_catalog):
    for alg in full_catalog:
        profile = classify(alg)
        if not profile.D:
            continue
        fprof = frame_profile(prime_frame(alg))
        for flag in ("N", "R", "L", "Fa", "Fu"):
            if getattr(profile, flag):
                assert getattr(fprof, flag)


def test_prime_frame_matches_set_oracle(full_catalog):
    rng = np.random.default_rng(7)
    algebras = [alg for alg in full_catalog if classify(alg).D]
    algebras += [upset_algebra(random_frame(rng, n)) for n in rng.integers(2, 6, 20)]
    for alg in algebras:
        k = prime_frame(alg)
        leq, image, definitional = oracle_prime_relations(alg)
        assert image == definitional
        assert k.leq.tolist() == leq and k.r.tolist() == image


def test_prime_inverse_of_bound_embedding(b2, h3):
    f = AlgebraMorphism(b2, h3, (0, 2), preserves_heyting=True)
    fm = prime_inverse_morphism(f)
    assert fm.source.n == 2 and fm.target.n == 1
    rep = check_frame_morphism(fm)
    assert rep.ok and rep.surjective


def test_prime_inverse_of_identity(x1):
    fm = prime_inverse_morphism(identity_morphism(x1))
    assert fm.map == tuple(range(fm.source.n))


# --- functoriality and naturality ----------------------------------------------


def test_upset_functor_preserves_composition():
    k2 = two_chain_frame()
    k1 = one_point_frame()
    f = FrameMorphism(k2, k1, (0, 0), heyting=True)
    ident = FrameMorphism(k2, k2, (0, 1), heyting=True)
    comp = compose_frame_morphisms(f, ident)
    lhs = inverse_image_morphism(comp)
    rhs_outer = inverse_image_morphism(ident)
    rhs_inner = inverse_image_morphism(f)
    from nablalg.algebra import compose_morphisms

    rhs = compose_morphisms(rhs_outer, rhs_inner)
    assert lhs.map == rhs.map


def test_prime_functor_preserves_composition(b2, h3):
    from nablalg.algebra import compose_morphisms

    inner = AlgebraMorphism(b2, b2, (0, 1), preserves_heyting=True)
    outer = AlgebraMorphism(b2, h3, (0, 2), preserves_heyting=True)
    comp = compose_morphisms(outer, inner)
    lhs = prime_inverse_morphism(comp)
    rhs = compose_frame_morphisms(prime_inverse_morphism(inner),
                                  prime_inverse_morphism(outer))
    assert lhs.map == rhs.map


def test_naturality_of_membership_map(b2, h3, x1):
    cases = [
        AlgebraMorphism(b2, h3, (0, 2), preserves_heyting=True),
        identity_morphism(x1, heyting=True),
    ]
    from nablalg.algebra import compose_morphisms

    for f in cases:
        i_src = canonical_frame_embedding(f.source)
        i_tgt = canonical_frame_embedding(f.target)
        through = inverse_image_morphism(prime_inverse_morphism(f))
        assert tables_equal(through.source, i_src.target)
        lhs = compose_morphisms(through, i_src)
        rhs = compose_morphisms(i_tgt, f)
        assert lhs.map == rhs.map


def test_membership_map_is_iso_on_distributive_catalog(full_catalog):
    for alg in full_catalog:
        if not classify(alg).D:
            continue
        m = canonical_frame_embedding(alg)
        assert m.target.n == alg.n
        assert sorted(m.map) == list(range(alg.n))


# --- amalgamation ----------------------------------------------------------------


def test_amalgamate_frames_trivial():
    k = one_point_frame()
    ident = FrameMorphism(k, k, (0,), heyting=True)
    pull, p, q = amalgamate_frames(k, k, k, ident, ident)
    assert pull.n == 1 and p.map == (0,) and q.map == (0,)


def test_amalgamate_frames_product_over_point():
    k1 = two_chain_frame()
    k0 = one_point_frame()
    f = FrameMorphism(k1, k0, (0, 0), heyting=True)
    pull, p, q = amalgamate_frames(k0, k1, k1, f, f)
    assert pull.n == 4
    grid = boolean_square()
    assert frames_isomorphic(pull, build_frame(grid.leq, grid.leq))
    assert frame_profile(pull).has("N", "R", "L", "Fa", "Fu")


def test_amalgamate_frames_with_identity_leg():
    k1 = two_chain_frame()
    k0 = one_point_frame()
    f = FrameMorphism(k1, k0, (0, 0), heyting=True)
    ident = FrameMorphism(k0, k0, (0,), heyting=True)
    pull, p, q = amalgamate_frames(k0, k1, k0, f, ident)
    assert frames_isomorphic(pull, k1)


def test_amalgamate_frames_rejects_fullness_request():
    k = one_point_frame()
    ident = FrameMorphism(k, k, (0,))
    with pytest.raises(FlagMismatch):
        amalgamate_frames(k, k, k, ident, ident, flags={"Fu"})


def test_amalgamate_frames_rejects_non_surjective():
    k1 = two_chain_frame()
    sub = FrameMorphism(k1, k1, (0, 1))
    non_surj = FrameMorphism(k1, k1, (1, 1))
    with pytest.raises((NotSurjective, Exception)):
        amalgamate_frames(k1, k1, k1, sub, non_surj)


def test_amalgamate_algebras_identity_span(b2):
    res = amalgamate_algebras(b2, b2, b2, identity_morphism(b2), identity_morphism(b2))
    assert res.b.n == 2
    assert algebra_iso(res.b, b2) is not None


def test_amalgamate_algebras_bound_span_gives_grid_upsets(b2, h3):
    f = AlgebraMorphism(b2, h3, (0, 2), preserves_heyting=True)
    res = amalgamate_algebras(b2, h3, h3, f, f, heyting=True)
    assert res.b.n == 6
    assert tuple(res.g1.map[v] for v in f.map) == tuple(res.g2.map[v] for v in f.map)
    assert classify(res.b).has("N", "D", "H", "R", "L", "Fa")


def test_amalgamate_algebras_x1_identity_span(x1):
    res = amalgamate_algebras(x1, x1, x1, identity_morphism(x1), identity_morphism(x1))
    assert algebra_iso(res.b, x1) is not None


# --- built once ----------------------------------------------------------------


def test_functors_cache_on_their_input():
    alg = gen_heyting(chain(4))
    assert prime_frame(alg) is prime_frame(alg)
    k = prime_frame(alg)
    assert upset_algebra(k) is upset_algebra(k)


def test_amalgamation_builds_each_frame_and_upset_algebra_once(monkeypatch):
    built = {"frames": 0, "upsets": 0}

    def spy(key, builder):
        def counted(arg):
            built[key] += 1
            return builder(arg)
        return counted

    monkeypatch.setattr(kripke, "_build_prime_frame",
                        spy("frames", kripke._build_prime_frame))
    monkeypatch.setattr(kripke, "_build_upset_algebra",
                        spy("upsets", kripke._build_upset_algebra))
    a0, a1, a2 = gen_heyting(chain(2)), gen_heyting(chain(5)), gen_heyting(chain(5))
    f1 = AlgebraMorphism(a0, a1, (0, 4), preserves_heyting=True)
    f2 = AlgebraMorphism(a0, a2, (0, 4), preserves_heyting=True)
    res = amalgamate_algebras(a0, a1, a2, f1, f2, heyting=True)
    assert res.b.n == 70
    assert built == {"frames": 3, "upsets": 3}
