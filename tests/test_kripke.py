import itertools
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from nablalg.algebra import (
    AlgebraMorphism,
    algebra_iso,
    build_algebra,
    check_morphism,
    classify,
    compose_morphisms,
    identity_morphism,
    tables_equal,
)
from nablalg.errors import (
    CrossCheckError,
    NotCompatible,
    NotKripkeMorphism,
    NotSurjective,
    ShapeError,
)
import nablalg.algebra as algebra
import nablalg.kripke as kripke
from nablalg.cli import main
from nablalg.gallery import enumerate_algebras, gen_heyting, gen_trivial, gen_xn
from nablalg.kripke import (
    AMALGAMATION_FLAGS,
    FrameMorphism,
    amalgamate_algebras,
    amalgamate_frames,
    build_frame,
    canonical_frame_embedding,
    check_frame_morphism,
    frame_profile,
    inverse_image_morphism,
    prime_frame,
    prime_inverse_morphism,
    upset_algebra,
)
from nablalg.lattice import (
    CUBE_MAX,
    all_upsets,
    build_lattice,
    heyting_table,
    prime_filters,
    upset_lattice,
)
from nablalg.serialize import algebra_to_json, dumps, frame_to_json

from conftest import (
    amalgamation_spans,
    boolean_square,
    chain,
    chain_matrix,
    drop_flag,
    product_order,
    subset_prime_tables,
)


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
    rep = check_frame_morphism(FrameMorphism(src, tgt, (0, 0), preserves_heyting=True))
    assert rep.ok and rep.surjective and rep.heyting_ok


def test_identity_frame_morphism(x1):
    k = prime_frame(x1)
    rep = check_frame_morphism(FrameMorphism(k, k, tuple(range(k.n)), preserves_heyting=True))
    assert rep.ok and rep.surjective


def test_broken_frame_morphism_reports_clause():
    src = two_chain_frame(np.ones((2, 2), dtype=bool))
    tgt = two_chain_frame()
    rep = check_frame_morphism(FrameMorphism(src, tgt, (0, 1)))
    assert not rep.ok
    assert {v.law for v in rep.violations} & {
        "preserves-relation", "lift-successors", "lift-predecessors"}


@pytest.mark.parametrize("fmap", [(0, 0.5), (False, True), ("0", "1"), (0, 2 ** 70)])
def test_frame_map_that_is_not_integers_is_refused(fmap):
    """A cast to int64 read (0, 0.5) as the map (0, 0) and True as 1."""
    with pytest.raises(ShapeError, match="must be integers"):
        check_frame_morphism(FrameMorphism(two_chain_frame(), two_chain_frame(), fmap))


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
                                                 preserves_heyting=True))
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
    """The upset algebra's order, nabla and arrow, the residual of nabla,
    against direct set evaluation.  The frames cover both routes of the
    Heyting table the residual reads, the cube up to ``CUBE_MAX`` upsets and
    the recursion over lower covers past it, each with an R other than the
    order."""
    rng = np.random.default_rng(20240517)
    frames = [random_frame(rng, n) for n in (0, 1, 1) + tuple(rng.integers(2, 6, 60))]
    assert any(k.pi is None for k in frames) and any(k.pi is not None for k in frames)
    routes = set()
    for k in frames:
        alg = upset_algebra(k)
        leq, nabla, arrow = oracle_upset_algebra_tables(k)
        assert alg.lat.leq.tolist() == leq
        assert alg.nabla.tolist() == nabla
        assert alg.arrow.tolist() == arrow
        if not (k.r == k.leq).all():
            routes.add(alg.n > CUBE_MAX)
    assert routes == {False, True}


def test_upset_lattices_and_algebras_carry_the_heyting_table(full_catalog):
    """Oracle for the Heyting checks the upset family and the upset algebra
    dropped: the upset lattice is checked distributive, and the Heyting
    table's build decides that it exists iff the lattice is distributive."""
    frames, _ = _mask_test_frames(full_catalog)
    for k in frames:
        assert heyting_table(upset_lattice(k.leq).lattice) is not None
        assert classify(upset_algebra(k)).H


def test_lost_frame_flag_fails_the_upset_transfer(monkeypatch):
    """An upset algebra without a flag its frame carries is a cross-check
    failure that names the flag."""
    frame = one_point_frame()
    assert "Fu" in frame_profile(frame).flags()
    drop_flag(monkeypatch, kripke, "classify", "Fu")
    with pytest.raises(CrossCheckError,
                       match=r"frame flags \['Fu'\] must transfer to the upset algebra"):
        upset_algebra(frame)


def test_lost_algebra_flag_fails_the_prime_frame_transfer(monkeypatch):
    """A prime frame without a flag its algebra carries is a cross-check
    failure that names the flag."""
    alg = gen_heyting(chain(3))
    assert classify(alg).L
    drop_flag(monkeypatch, kripke, "frame_profile", "L")
    with pytest.raises(CrossCheckError,
                       match=r"algebra flags \['L'\] must transfer to the prime frame"):
        prime_frame(alg)


def fresh_two_chain_frame():
    return build_frame(chain_matrix(2), np.ones((2, 2), dtype=bool))


def corrupt_residual(monkeypatch):
    """Change one entry of every residual candidate ``derive_arrow`` tests."""
    residual = algebra._residual

    def corrupted(lat, nab):
        table = residual(lat, nab).copy()
        table[-1, 0] = (table[-1, 0] + 1) % lat.n
        return table

    monkeypatch.setattr(algebra, "_residual", corrupted)


def test_corrupted_upset_residual_is_a_cross_check_failure(monkeypatch):
    """One changed entry of the residual on the upsets of a frame: no
    residual passes the Galois test, a cross-check failure, not an
    ``AdjunctionFailure`` of the input."""
    corrupt_residual(monkeypatch)
    with pytest.raises(CrossCheckError, match="the relation image on upsets must have a residual"):
        upset_algebra(fresh_two_chain_frame())


def test_corrupted_upset_residual_is_exit_three(monkeypatch, tmp_path, capsys):
    path = tmp_path / "frame.json"
    path.write_text(dumps(frame_to_json(fresh_two_chain_frame())))
    corrupt_residual(monkeypatch)
    assert main(["upset-algebra", str(path)]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == {"error": "internal",
                            "message": "the relation image on upsets must have a residual"}


def test_inverse_image_of_collapse_embeds_booleans(b2, h3):
    f = FrameMorphism(two_chain_frame(), one_point_frame(), (0, 0), preserves_heyting=True)
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
    assert tables_equal(prime_frame(b2), one_point_frame())


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


def boolean_matrix(k):
    sets = np.arange(2 ** k)
    return (sets[:, None] & ~sets[None, :]) == 0


def test_prime_tables_match_the_inclusion_products(full_catalog):
    """The prime frame's order and relation, read off the generators, equal
    the inclusion tests over the prime-filter rows they replaced, and so does
    the definitional table, which ``prime_frame`` requires to be the
    relation, as the k x n^2 product; on every distributive catalog algebra,
    gen_xn 1-6 and the Heyting 256-chain and Boolean 2^8."""
    algebras = [alg for alg in full_catalog if classify(alg).D]
    algebras += [gen_xn(i) for i in range(1, 7)]
    algebras += [gen_heyting(build_lattice(leq)) for leq in (chain_matrix(256), boolean_matrix(8))]
    for alg in algebras:
        frame = prime_frame(alg)
        leq, rel, definitional = subset_prime_tables(alg)
        assert (frame.leq == leq).all()
        assert (frame.r == rel).all() and (rel == definitional).all()


def test_wrong_kappa_fails_the_relation_cross_check(monkeypatch):
    """Generators whose last k(q) is moved to top, on fresh Heyting algebras:
    the definitional form then has no pair with q, while q <= nabla(q), so
    the two relation characterizations disagree."""
    primes = kripke._primes

    def wrong(lat):
        gen, kappa = primes(lat)
        kappa = kappa.copy()
        kappa[-1] = lat.top
        return gen, kappa

    monkeypatch.setattr(kripke, "_primes", wrong)
    for lat in (chain(3), boolean_square()):
        with pytest.raises(CrossCheckError, match="relation characterizations disagree"):
            prime_frame(gen_heyting(lat))


def test_prime_frame_of_the_heyting_chain_holds_no_cube():
    """prime_frame and canonical_frame_embedding on the Heyting 256-chain peak
    under 8 MB under tracemalloc; the inclusion products they replaced peaked
    at 176 MB there."""
    alg = gen_heyting(build_lattice(chain_matrix(256)))
    tracemalloc.start()
    try:
        assert prime_frame(alg).n == 255
        assert canonical_frame_embedding(alg).target.n == 256
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


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
    f = FrameMorphism(k2, k1, (0, 0), preserves_heyting=True)
    ident = FrameMorphism(k2, k2, (0, 1), preserves_heyting=True)
    comp = compose_morphisms(f, ident)
    lhs = inverse_image_morphism(comp)
    rhs_outer = inverse_image_morphism(ident)
    rhs_inner = inverse_image_morphism(f)
    rhs = compose_morphisms(rhs_outer, rhs_inner)
    assert lhs.map == rhs.map


def test_prime_functor_preserves_composition(b2, h3):
    inner = AlgebraMorphism(b2, b2, (0, 1), preserves_heyting=True)
    outer = AlgebraMorphism(b2, h3, (0, 2), preserves_heyting=True)
    comp = compose_morphisms(outer, inner)
    lhs = prime_inverse_morphism(comp)
    rhs = compose_morphisms(prime_inverse_morphism(inner), prime_inverse_morphism(outer))
    assert lhs.map == rhs.map


def oracle_compose_frame_morphisms(outer, inner):
    """The frame-only composition that compose_morphisms replaced."""
    middle, start = inner.target, outer.source
    if not (middle.n == start.n and (middle.leq == start.leq).all()
            and (middle.r == start.r).all()):
        raise CrossCheckError("composition needs matching middle frame")
    comp = tuple(int(outer.map[v]) for v in inner.map)
    return FrameMorphism(source=inner.source, target=outer.target, map=comp,
                         preserves_heyting=inner.preserves_heyting and outer.preserves_heyting)


def test_compose_morphisms_on_frames_matches_oracle():
    rng = np.random.default_rng(31)
    frames = [random_frame(rng, int(n)) for n in rng.integers(1, 6, 40)]
    for _ in range(300):
        src, mid, tgt = (frames[i] for i in rng.integers(len(frames), size=3))
        # the outer map may start at a separately built copy of the middle frame
        start = build_frame(mid.leq, mid.r) if rng.random() < 0.5 else mid
        if rng.random() < 0.2:
            start = frames[rng.integers(len(frames))]
        inner = FrameMorphism(src, mid, tuple(int(v) for v in rng.integers(mid.n, size=src.n)),
                              preserves_heyting=bool(rng.random() < 0.5))
        outer = FrameMorphism(start, tgt,
                              tuple(int(v) for v in rng.integers(tgt.n, size=start.n)),
                              preserves_heyting=bool(rng.random() < 0.5))
        try:
            want = oracle_compose_frame_morphisms(outer, inner)
        except CrossCheckError:
            with pytest.raises(CrossCheckError, match="composition needs matching middle"):
                compose_morphisms(outer, inner)
            continue
        got = compose_morphisms(outer, inner)
        assert type(got) is FrameMorphism and got == want
        assert got.source is src and got.target is tgt


def test_tables_equal_across_kinds(x1):
    frame = prime_frame(x1)
    assert not tables_equal(x1, frame) and not tables_equal(frame, x1)
    # equal tables held by different objects
    again = build_algebra(build_lattice(x1.lat.leq), x1.nabla, x1.arrow)
    assert again is not x1 and tables_equal(again, x1)
    copy = build_frame(frame.leq, frame.r)
    assert copy is not frame and tables_equal(copy, frame)
    assert not tables_equal(frame, one_point_frame()) and not tables_equal(x1, gen_heyting(chain(2)))
    with pytest.raises(CrossCheckError, match="composition needs matching middle"):
        compose_morphisms(FrameMorphism(frame, frame, tuple(range(frame.n))), identity_morphism(x1))


def test_naturality_of_membership_map(b2, h3, x1):
    cases = [
        AlgebraMorphism(b2, h3, (0, 2), preserves_heyting=True),
        identity_morphism(x1, heyting=True),
    ]
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
    ident = FrameMorphism(k, k, (0,), preserves_heyting=True)
    pull, p, q = amalgamate_frames(k, k, k, ident, ident)
    assert pull.n == 1 and p.map == (0,) and q.map == (0,)


def test_amalgamate_frames_product_over_point():
    k1 = two_chain_frame()
    k0 = one_point_frame()
    f = FrameMorphism(k1, k0, (0, 0), preserves_heyting=True)
    pull, p, q = amalgamate_frames(k0, k1, k1, f, f)
    assert pull.n == 4
    grid = boolean_square()
    assert frames_isomorphic(pull, build_frame(grid.leq, grid.leq))
    assert frame_profile(pull).has("N", "R", "L", "Fa", "Fu")


def test_amalgamate_frames_with_identity_leg():
    k1 = two_chain_frame()
    k0 = one_point_frame()
    f = FrameMorphism(k1, k0, (0, 0), preserves_heyting=True)
    ident = FrameMorphism(k0, k0, (0,), preserves_heyting=True)
    pull, p, q = amalgamate_frames(k0, k1, k0, f, ident)
    assert frames_isomorphic(pull, k1)


def test_algebra_and_prime_frame_share_the_amalgamation_class():
    """On each of the 330 normal distributive algebras of at most 6
    elements, the flags of {R, L, Fa} that the algebra carries are those its
    prime frame carries: ``amalgamate_frames`` finds on the prime frames the
    class that ``amalgamate_algebras`` requires of the amalgam."""
    seen = 0
    for alg in enumerate_algebras(6):
        profile = classify(alg)
        if profile.has("N", "D"):
            frame_class = frame_profile(prime_frame(alg)).flags() & AMALGAMATION_FLAGS
            assert profile.flags() & AMALGAMATION_FLAGS == frame_class
            seen += 1
    assert seen == 330


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


def heyting_chain_span(k1, k2, heyting):
    """The Heyting 2-chain into the Heyting k1- and k2-chains at their bounds."""
    a0, a1, a2 = gen_heyting(chain(2)), gen_heyting(chain(k1)), gen_heyting(chain(k2))
    return (a0, a1, a2, AlgebraMorphism(a0, a1, (0, k1 - 1), preserves_heyting=heyting),
            AlgebraMorphism(a0, a2, (0, k2 - 1), preserves_heyting=heyting))


def chain_spans():
    """The 2-chain into Heyting chains of (4, 4), (4, 5) and (3, 11)
    elements at their bounds, with ``heyting`` true and false."""
    for a, b in ((4, 4), (4, 5), (3, 11)):
        for heyting in (True, False):
            yield (*heyting_chain_span(a, b, heyting), heyting)


def test_legs_match_the_composite_route(full_catalog):
    """Each leg read off the prime-filter rows is the route it stands for:
    the preimage map along the projection after the membership embedding,
    in map and Heyting claim.  Runs every check of those stages, and that
    the embedding lands where the preimage map starts."""
    spans = [(*span, False) for span in amalgamation_spans(full_catalog)]
    claims = set()
    for a0, a1, a2, f1, f2, heyting in spans + list(chain_spans()):
        res = amalgamate_algebras(a0, a1, a2, f1, f2, heyting=heyting)
        for leg, alg, proj in ((res.g1, a1, res.projections[0]),
                               (res.g2, a2, res.projections[1])):
            up = inverse_image_morphism(proj)
            emb = canonical_frame_embedding(alg)
            assert tables_equal(emb.target, up.source) and up.target is res.b
            want = compose_morphisms(up, emb)
            assert (leg.map, leg.preserves_heyting) == (want.map, want.preserves_heyting)
            claims.add(leg.preserves_heyting)
    assert len(spans) == 24 and claims == {True, False}


# --- built once ----------------------------------------------------------------


def test_functors_cache_on_their_input():
    alg = gen_heyting(chain(4))
    assert prime_frame(alg) is prime_frame(alg)
    k = prime_frame(alg)
    assert upset_algebra(k) is upset_algebra(k)


def test_profiles_are_built_once_per_object(monkeypatch):
    import nablalg.algebra as algebra

    built = Counter()

    def spy(key, builder):
        def counted(arg):
            built[key] += 1
            return builder(arg)
        return counted

    monkeypatch.setattr(algebra, "_build_profile", spy("classify", algebra._build_profile))
    monkeypatch.setattr(kripke, "_build_frame_profile", spy("frame", kripke._build_frame_profile))
    algs = [gen_heyting(chain(3)), gen_heyting(chain(3))]
    for alg in algs * 2:
        assert classify(alg) is classify(alg)
        frame = prime_frame(alg)
        assert frame_profile(frame) is frame_profile(frame)
    # building a prime frame classifies the algebra and profiles the frame
    assert built == {"classify": 2, "frame": 2}


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
    assert built == {"frames": 3, "upsets": 1}


def test_amalgamation_builds_each_morphism_report_once(monkeypatch):
    """Reports are kept on the morphism: one amalgamation builds one report
    for each of its 4 algebra morphisms (the input embeddings f1, f2 and the
    legs g1, g2, read off the prime-filter rows) and 4 frame morphisms (the
    prime preimage maps and the projections), though the input embeddings
    and the projections are required valid at several stages."""
    checked = {"algebra": [], "frame": []}

    def counted(kind, builder):
        def run(m):
            checked[kind].append(m)
            return builder(m)
        return run

    monkeypatch.setattr(algebra, "_build_morphism_report",
                        counted("algebra", algebra._build_morphism_report))
    monkeypatch.setattr(kripke, "_build_frame_morphism_report",
                        counted("frame", kripke._build_frame_morphism_report))
    a0, a1, a2 = gen_heyting(chain(2)), gen_heyting(chain(3)), gen_heyting(chain(4))
    f1 = AlgebraMorphism(a0, a1, (0, 2), preserves_heyting=True)
    f2 = AlgebraMorphism(a0, a2, (0, 3), preserves_heyting=True)
    res = amalgamate_algebras(a0, a1, a2, f1, f2, heyting=True)
    for kind, count in (("algebra", 4), ("frame", 4)):
        assert len(checked[kind]) == len({id(m) for m in checked[kind]}) == count
    assert {id(m) for m in (f1, f2, res.g1, res.g2)} == {id(m) for m in checked["algebra"]}
    assert {id(m) for m in res.projections} <= {id(m) for m in checked["frame"]}


# --- derived frames are assembled --------------------------------------------


def assert_revalidates(frame):
    """The oracle of a frame that a construction assembled: ``build_frame``
    accepts its tables and finds the same frame and the same witness."""
    again = build_frame(frame.leq, frame.r)
    assert tables_equal(again, frame)
    assert (again.pi is None) == (frame.pi is None)
    assert frame.pi is None or np.array_equal(again.pi, frame.pi)
    assert again.pi_failure == frame.pi_failure


def test_prime_frames_pass_build_frame(six_catalog):
    """The prime frame of every distributive algebra of at most 6 elements,
    of gen_xn 1-6 and of the Heyting Boolean 2^8 and 256-chain."""
    algs = [alg for alg in six_catalog if classify(alg).D]
    algs += [gen_xn(k) for k in range(1, 7)]
    algs += [gen_heyting(build_lattice(product_order(*[chain_matrix(2)] * 8))),
             gen_heyting(chain(256))]
    normal = set()
    for alg in algs:
        frame = prime_frame(alg)
        assert_revalidates(frame)
        normal.add(frame.pi is not None)
    assert normal == {True, False}


def test_pullbacks_pass_build_frame(full_catalog):
    """Every frame of the criterion-8 spans' amalgamations and of the chain
    spans 2 -> (k1, k2), 3 <= k1, k2 <= 6, with ``heyting`` true and false."""
    spans = [(*span, False) for span in amalgamation_spans(full_catalog)]
    spans.append((*heyting_chain_span(3, 3, True), True))
    spans += [(*heyting_chain_span(k1, k2, heyting), heyting)
              for k1, k2 in itertools.product(range(3, 7), repeat=2) for heyting in (True, False)]
    for a0, a1, a2, f1, f2, heyting in spans:
        res = amalgamate_algebras(a0, a1, a2, f1, f2, heyting=heyting)
        for frame in res.frames.values():
            assert_revalidates(frame)
    assert len(spans) == 24 + 1 + 32


def test_derived_frames_decide_no_order(monkeypatch):
    """The prime frame and the pullback are frames by construction: neither
    validates its order, while a frame from outside still does."""
    calls = []
    validate = kripke.validate_partial_order

    def counted(leq):
        calls.append(len(leq))
        return validate(leq)

    monkeypatch.setattr(kripke, "validate_partial_order", counted)
    frame = prime_frame(gen_heyting(chain(4)))
    res = amalgamate_algebras(*heyting_chain_span(4, 5, True), heyting=True)
    assert frame.n == 3 and res.frames["pullback"].n == 12 and calls == []
    build_frame(frame.leq, frame.r)
    assert calls == [3]


def test_one_element_identity_span_amalgamates(tmp_path, capsys):
    """The one-element algebra's prime frames and pullback have no worlds, so
    the legs gather on empty projections; the amalgam is that algebra."""
    one = gen_heyting(chain(1))
    for heyting in (True, False):
        f = AlgebraMorphism(one, one, (0,), preserves_heyting=heyting)
        res = amalgamate_algebras(one, one, one, f, f, heyting=heyting)
        assert res.frames["pullback"].n == 0 and res.projections[0].map == ()
        assert tables_equal(res.b, one) and res.g1.map == res.g2.map == (0,)
        span = {"kind": "span", "a0": algebra_to_json(one), "a1": algebra_to_json(one),
                "a2": algebra_to_json(one), "f1": [0], "f2": [0], "heyting": heyting}
        path = tmp_path / "span.json"
        path.write_text(dumps(span))
        assert main(["amalgamate", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["b"], out["g1"], out["g2"]) == (algebra_to_json(one), [0], [0])


def test_assembled_frames_keep_their_cross_checks(monkeypatch, tmp_path, capsys):
    """A construction that goes wrong still ends in exit 3, not in an input
    error: here the pullback of the 2-chain into two Heyting 4-chains, its
    9 worlds given no normality witness."""
    detect = kripke._detect_pi

    def lost(order, rel):
        return (None, ("empty-column", (0,))) if len(order) == 9 else detect(order, rel)

    a0, a1, a2, _, _ = heyting_chain_span(4, 4, True)
    span = {"kind": "span", "a0": algebra_to_json(a0), "a1": algebra_to_json(a1),
            "a2": algebra_to_json(a2), "f1": [0, 3], "f2": [0, 3], "heyting": True}
    path = tmp_path / "span.json"
    path.write_text(dumps(span))
    monkeypatch.setattr(kripke, "_detect_pi", lost)
    assert main(["amalgamate", str(path)]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == {"error": "internal",
                            "message": "pullback of normal frames must be normal"}
