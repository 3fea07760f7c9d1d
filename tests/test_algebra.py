import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablalg import algebra, lattice
from nablalg.algebra import (
    AlgebraMorphism,
    StrongAlgebraCandidate,
    _assemble,
    _monotone,
    algebra_iso,
    build_algebra,
    check_equational_axioms,
    check_implication_axioms,
    check_morphism,
    classify,
    compose_morphisms,
    derive_arrow,
    identity_morphism,
    nabla_from_strong,
    tables_equal,
)
from nablalg.completion import dm_complete
from nablalg.errors import AdjunctionFailure, CrossCheckError, NotDistributive, ShapeError
from nablalg.gallery import (
    enumerate_algebras,
    gen_counterexample_cex3,
    gen_heyting,
    gen_trivial,
    gen_xn,
)
from nablalg.kripke import prime_frame, upset_algebra
from nablalg.lattice import (
    _residuated as residuated,
    all_lattices,
    build_lattice,
    heyting_table,
    is_distributive,
    join_irreducibles,
)

from conftest import (
    antitone_first,
    boolean_square,
    chain,
    chain_matrix,
    monotone_second,
    oracle_profile,
    pentagon,
    product_order,
)


# --- independent oracles -----------------------------------------------------


def oracle_adjunction_holds(lat, nabla, arrow):
    for a in range(lat.n):
        for b in range(lat.n):
            for c in range(lat.n):
                lhs = lat.leq[lat.meet[nabla[c], a], b]
                rhs = lat.leq[c, arrow[a, b]]
                if lhs != rhs:
                    return False
    return True


def oracle_derive_arrow(lat, nabla):
    arrow = np.zeros((lat.n, lat.n), dtype=int)
    for a in range(lat.n):
        for b in range(lat.n):
            cands = [c for c in range(lat.n) if lat.leq[lat.meet[nabla[c], a], b]]
            maxes = [m for m in cands if all(lat.leq[c, m] for c in cands)]
            if not maxes:
                return None
            arrow[a, b] = maxes[0]
    if not oracle_adjunction_holds(lat, nabla, arrow):
        return None
    return arrow


def first_failure(n, arity, holds):
    """The first tuple over range(n) in row-major order where ``holds`` is false."""
    return next((t for t in itertools.product(range(n), repeat=arity) if not holds(*t)), None)


def failures(witnesses):
    """(law, witness) of the failing laws, in the order given."""
    return [(law, w) for law, w in witnesses.items() if w is not None]


def oracle_equational_failures(lat, nab, arr):
    n, leq, meet, top = lat.n, lat.leq, lat.meet, lat.top
    # shift is scanned c-major and reported as (a, b, c)
    shift = first_failure(n, 3, lambda c, a, b: leq[meet[c, arr[meet[nab[c], a], b]], arr[a, b]])
    return failures({
        "meet-arrow-top": first_failure(n, 2, lambda a, b: arr[meet[a, b], a] == top),
        "nabla-meet": first_failure(n, 2, lambda a, b: leq[nab[meet[a, b]],
                                                           meet[nab[a], nab[b]]]),
        "detachment": first_failure(n, 2, lambda a, b: leq[meet[a, nab[arr[a, b]]], b]),
        "shift": shift and (shift[1], shift[2], shift[0]),
    })


def oracle_implication_failures(lat, arr):
    n, leq, meet, join = lat.n, lat.leq, lat.meet, lat.join
    laws = failures({
        "antitone-first": first_failure(
            n, 3, lambda ap, a, b: not leq[ap, a] or leq[arr[a, b], arr[ap, b]]),
        "monotone-second": first_failure(
            n, 3, lambda a, b, bp: not leq[b, bp] or leq[arr[a, b], arr[a, bp]]),
        "reflexivity": first_failure(n, 1, lambda a: arr[a, a] == lat.top),
        "transitivity": first_failure(
            n, 3, lambda a, b, c: leq[meet[arr[a, b], arr[b, c]], arr[a, c]]),
    })
    internalizing = failures({
        "meet": first_failure(
            n, 3, lambda a, b, c: arr[a, meet[b, c]] == meet[arr[a, b], arr[a, c]]),
        "join": first_failure(
            n, 3, lambda a, b, c: arr[join[a, b], c] == meet[arr[a, c], arr[b, c]]),
    })
    return laws, dict(internalizing)


def broken_tables(catalog, lattices, seed, count):
    """Seeded (lattice, nabla, arrow): uniform tables on the catalog lattices,
    alternating with catalog pairs that have a few entries changed."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        if i % 2:
            lat = lattices[rng.integers(len(lattices))]
            yield lat, rng.integers(lat.n, size=lat.n), rng.integers(lat.n, size=(lat.n, lat.n))
            continue
        alg = catalog[rng.integers(len(catalog))]
        n = alg.n
        nab, arr = alg.nabla.copy(), alg.arrow.copy()
        for _ in range(rng.integers(1, 3)):
            arr[rng.integers(n), rng.integers(n)] = rng.integers(n)
        if rng.random() < 0.3:
            nab[rng.integers(n)] = rng.integers(n)
        yield alg.lat, nab, arr


X1_NABLA = (0, 0, 2)
# computed by oracle_derive_arrow on the 3-chain (frozen):
X1_ARROW = [[2, 2, 2], [1, 2, 2], [1, 1, 2]]


def make_x1():
    lat = chain(3)
    return build_algebra(lat, np.array(X1_NABLA), np.array(X1_ARROW))


# --- construction ------------------------------------------------------------


def test_trivial_dynamics_validates():
    alg = gen_trivial(chain(3))
    assert oracle_adjunction_holds(alg.lat, alg.nabla, alg.arrow)


def test_identity_dynamics_validates():
    lat = chain(3)
    alg = gen_heyting(lat)
    assert (alg.arrow == heyting_table(lat)).all()
    assert oracle_adjunction_holds(alg.lat, alg.nabla, alg.arrow)


def test_identity_nabla_with_constant_top_arrow_fails():
    lat = chain(3)
    with pytest.raises(AdjunctionFailure) as e:
        build_algebra(lat, np.arange(3), np.full((3, 3), 2))
    a, b, c = e.value.witness
    # witness is a genuine violation: c <= arrow(a, b) yet nabla(c) & a > b
    assert lat.leq[c, 2] and not lat.leq[lat.meet[c, a], b]
    assert (a, b, c) == (1, 0, 1)


def test_shape_errors():
    lat = chain(2)
    with pytest.raises(ShapeError):
        build_algebra(lat, np.array([0, 1, 0]), np.zeros((2, 2), dtype=int))
    with pytest.raises(ShapeError):
        build_algebra(lat, np.array([0, 5]), np.zeros((2, 2), dtype=int))


@pytest.mark.parametrize("call", [
    lambda h3: derive_arrow(h3.lat, [0, 1.5, 2.2]),
    lambda h3: derive_arrow(h3.lat, ["0", "1", "2"]),
    lambda h3: build_algebra(h3.lat, np.array([False, True, True]), h3.arrow),
    lambda h3: build_algebra(h3.lat, [0, 2 ** 70, 2], h3.arrow),
    lambda h3: build_algebra(h3.lat, h3.nabla, [[2, 2, 2], [0, 2, 2], [0, 1, 2 ** 70]]),
    lambda h3: build_algebra(h3.lat, h3.nabla, h3.arrow.astype(float)),
    lambda h3: check_equational_axioms(h3.lat, h3.nabla, h3.arrow + 0.25),
    lambda h3: check_implication_axioms(StrongAlgebraCandidate(h3.lat, h3.arrow.astype(str))),
    lambda h3: nabla_from_strong(StrongAlgebraCandidate(h3.lat, h3.arrow == 2)),
    lambda h3: check_morphism(AlgebraMorphism(h3, h3, (0, 1.2, 2))),
], ids=["derive-float", "derive-str", "build-bool-nabla", "build-2**70-nabla",
        "build-2**70-arrow", "build-float-arrow", "equational-float", "implication-str",
        "strong-bool", "morphism-float"])
def test_index_tables_that_are_not_integers_are_refused(h3, call):
    """A cast to int64 read 1.5 and 2.2 as 1 and 2, so derive_arrow returned
    the identity's arrow and check_morphism accepted the map (0, 1.2, 2);
    True read as 1, and 2**70 overflowed."""
    with pytest.raises(ShapeError, match="must be integers"):
        call(h3)


def test_x1_fixture_tables():
    alg = make_x1()
    assert alg.box.tolist() == [1, 1, 2]
    assert alg.heyting is not None


# --- derive_arrow ------------------------------------------------------------


def test_derive_arrow_x1_matches_oracle():
    lat = chain(3)
    got = derive_arrow(lat, np.array(X1_NABLA))
    want = oracle_derive_arrow(lat, list(X1_NABLA))
    assert got is not None and (got == want).all()
    assert got.tolist() == X1_ARROW


def test_derive_arrow_constant_bottom_gives_constant_top():
    for lat in (chain(3), pentagon(), boolean_square()):
        got = derive_arrow(lat, np.full(lat.n, lat.bot))
        assert (got == lat.top).all()


def test_derive_arrow_absent_on_pentagon_identity():
    lat = pentagon()
    assert oracle_derive_arrow(lat, list(range(5))) is None
    assert derive_arrow(lat, np.arange(5)) is None


def test_derive_arrow_rejects_maxima_without_residuation():
    # non-monotone nabla on the 2-chain admits all pointwise maxima
    lat = chain(2)
    assert derive_arrow(lat, np.array([1, 0])) is None
    assert oracle_derive_arrow(lat, [1, 0]) is None


def test_derive_arrow_roundtrip_on_catalog(small_catalog):
    for alg in small_catalog:
        again = derive_arrow(alg.lat, alg.nabla)
        assert again is not None and (again == alg.arrow).all()


# --- one decision per adjunction ---------------------------------------------


def assembled_sites(catalog):
    """(name, build) for each library construction that hands a decided pair
    to ``_assemble``: ``gen_xn`` 1-6, ``gen_heyting`` on the distributive
    lattices up to 5 elements, ``gen_trivial`` on every lattice up to 5
    elements, ``enumerate_algebras(5)``, the upset algebra
    of the prime frame of each distributive catalog algebra and the
    completion of each catalog algebra.  Every build starts from fresh
    lattices, so nothing is kept from an earlier call, and returns the
    algebras it assembled."""
    sites = [(f"gen_xn({k})", lambda k=k: [gen_xn(k)]) for k in range(1, 7)]
    sites += [(f"gen_heyting on {i}", lambda lat=lat: [gen_heyting(build_lattice(lat.leq))])
              for i, lat in enumerate(all_lattices(5)) if is_distributive(lat)]
    sites += [(f"gen_trivial on {i}", lambda lat=lat: [gen_trivial(build_lattice(lat.leq))])
              for i, lat in enumerate(all_lattices(5))]
    sites.append(("enumerate_algebras(5)", lambda: list(enumerate_algebras(5))))
    for i, alg in enumerate(catalog):
        if classify(alg).D:
            sites.append((f"upset algebra of {i}", lambda alg=alg: [upset_algebra(prime_frame(
                build_algebra(build_lattice(alg.lat.leq), alg.nabla, alg.arrow)))]))
    sites += [(f"completion of {i}", lambda alg=alg: [dm_complete(alg).algebra])
              for i, alg in enumerate(catalog)]
    return sites


def test_each_adjunction_is_decided_once(monkeypatch, full_catalog, small_lattices):
    """``lattice._residuated``, counted in both namespaces that call it, by
    lattice, nabla and arrow: no site decides one pair twice.  The sites are
    the constructions above, ``build_algebra`` on the tables of each catalog
    algebra and ``derive_arrow`` on the identity nabla of each lattice up to
    5 elements, each on a fresh lattice; the identity's pair with the
    Heyting table is decided by that table's own cross-check alone."""
    decided = Counter()

    def counted(lat, nab, arr):
        decided[lat, nab.tobytes(), arr.tobytes()] += 1
        return residuated(lat, nab, arr)

    sites = assembled_sites(full_catalog)
    sites += [(f"build_algebra of {i}", lambda alg=alg: build_algebra(
        build_lattice(alg.lat.leq), alg.nabla, alg.arrow)) for i, alg in enumerate(full_catalog)]
    sites += [(f"derive_arrow of the identity on {i}", lambda lat=lat: derive_arrow(
        build_lattice(lat.leq), np.arange(lat.n))) for i, lat in enumerate(small_lattices)]
    monkeypatch.setattr(lattice, "_residuated", counted)
    monkeypatch.setattr(algebra, "_residuated", counted)
    total = 0
    for name, build in sites:
        decided.clear()
        build()
        total += sum(decided.values())
        assert max(decided.values(), default=0) <= 1, f"{name} decides one pair twice"
    assert total > len(sites)


def test_a_wrong_heyting_table_fails_the_identity_cross_check(monkeypatch):
    """The identity's pair is decided by comparison with the Heyting table.
    With that table wrong in one entry, the true Heyting pair of the 4-chain
    is rejected, and the scan that finds no failing triple makes that a
    cross-check failure, not an adjunction failure."""
    lat = chain(4)
    true = heyting_table(lat)
    wrong = true.copy()
    wrong[0, 0] = 2
    monkeypatch.setattr(algebra, "heyting_table", lambda lat: wrong)
    with pytest.raises(CrossCheckError, match="residuation characterizations disagree"):
        build_algebra(lat, np.arange(4), true)


def test_assembled_algebras_pass_build_algebra(full_catalog):
    """Each algebra ``_assemble`` takes from these constructions, validated
    again from its tables, is the same algebra."""
    seen = 0
    for _, build in assembled_sites(full_catalog):
        for alg in build():
            assert tables_equal(build_algebra(alg.lat, alg.nabla, alg.arrow), alg)
            seen += 1
    assert seen > len(full_catalog)


# --- equational laws ---------------------------------------------------------


def test_equational_axioms_pass_on_x1():
    alg = make_x1()
    rep = check_equational_axioms(alg.lat, alg.nabla, alg.arrow)
    assert rep.ok and not rep.violations


def test_equational_axioms_detachment_failure():
    lat = chain(2)
    rep = check_equational_axioms(lat, np.arange(2), np.full((2, 2), 1))
    assert not rep.ok
    laws = {v.law: v.witness for v in rep.violations}
    assert laws["detachment"] == (1, 0)


def test_equational_witnesses_match_loop_oracle(full_catalog, small_lattices):
    seen = set()
    for lat, nab, arr in broken_tables(full_catalog, small_lattices, 21, 400):
        rep = check_equational_axioms(lat, nab, arr)
        got = [(v.law, v.witness) for v in rep.violations]
        assert got == oracle_equational_failures(lat, nab, arr)
        assert rep.ok == (not got)
        seen.update(law for law, _ in got)
    assert seen == {"meet-arrow-top", "nabla-meet", "detachment", "shift"}


def test_equational_axioms_pass_on_trivial():
    for lat in (chain(3), pentagon()):
        alg = gen_trivial(lat)
        assert check_equational_axioms(lat, alg.nabla, alg.arrow).ok


def test_validator_agreement_sample(small_catalog):
    rng = np.random.default_rng(7)
    for alg in small_catalog[:40]:
        lat = alg.lat
        assert check_equational_axioms(lat, alg.nabla, alg.arrow).ok
        # perturb one arrow cell; both validators must agree on the verdict
        arrow = alg.arrow.copy()
        a = int(rng.integers(lat.n))
        b = int(rng.integers(lat.n))
        arrow[a, b] = int(rng.integers(lat.n))
        laws_ok = check_equational_axioms(lat, alg.nabla, arrow).ok
        try:
            build_algebra(lat, alg.nabla, arrow)
            adj_ok = True
        except AdjunctionFailure:
            adj_ok = False
        assert laws_ok == adj_ok


# --- classification ----------------------------------------------------------


def test_classify_two_boolean_identity_all_flags(b2):
    assert classify(b2).flags() == frozenset({"D", "H", "N", "R", "L", "Fa", "Fu"})


def test_classify_x1_frozen_profile():
    profile = classify(make_x1())
    assert profile.flags() == frozenset({"D", "H", "N", "L"})
    assert profile.witnesses["R"] == (1,)
    assert profile.witnesses["Fa"] == (1,)
    assert profile.witnesses["Fu"] == (0,)


def oracle_profile_witnesses(alg):
    """The first failing tuple of the N, R, L, Fa and Fu clauses, by loops;
    N reports the empty meet (top,) before any binary meet."""
    n, leq, meet, top = alg.n, alg.lat.leq, alg.lat.meet, alg.lat.top
    nab, box = alg.nabla, alg.box
    return dict(failures({
        "N": (top,) if nab[top] != top else first_failure(
            n, 2, lambda a, b: nab[meet[a, b]] == meet[nab[a], nab[b]]),
        "R": first_failure(n, 1, lambda a: leq[a, nab[a]]),
        "L": first_failure(n, 1, lambda a: leq[nab[a], a]),
        "Fa": first_failure(n, 1, lambda a: nab[box[a]] == a),
        "Fu": first_failure(n, 1, lambda a: box[nab[a]] == a),
    }))


def test_classify_witnesses_match_loop_oracle(full_catalog):
    for alg in full_catalog:
        profile = classify(alg)
        got = {k: w for k, w in profile.witnesses.items() if k not in ("D", "H")}
        assert got == oracle_profile_witnesses(alg)
        assert all(getattr(profile, flag) == (flag not in got)
                   for flag in ("N", "R", "L", "Fa", "Fu"))


def test_classify_trivial_on_three_chain():
    profile = classify(gen_trivial(chain(3)))
    assert profile.has("D", "H", "L")
    assert not profile.N and profile.witnesses["N"] == (2,)
    assert not profile.R and not profile.Fa and not profile.Fu


def test_classify_trivial_on_pentagon_not_distributive():
    profile = classify(gen_trivial(pentagon()))
    assert not profile.D and not profile.H
    assert profile.L


def test_classify_one_element():
    alg = gen_trivial(chain(1))
    assert classify(alg).flags() == frozenset({"D", "H", "N", "R", "L", "Fa", "Fu"})


def assert_profile_matches_oracle(alg):
    profile, want = classify(alg), oracle_profile(alg)
    assert profile == want
    assert profile.witnesses == want.witnesses


def join_preserving_nablas(lat, rng, count):
    """Seeded join-preserving maps of a distributive lattice: x & c for a few
    c, and monotone maps of the join-irreducibles extended by joins (each
    join-irreducible is join-prime, so the extension preserves joins)."""
    irr = join_irreducibles(lat)
    out = [lat.meet[int(c)] for c in rng.integers(0, lat.n, count)]
    for _ in range(count):
        f = {j: int(v) for j, v in zip(irr, rng.integers(0, lat.n, len(irr)))}
        f = {j: lat.join_all(f[i] for i in irr if lat.leq[i, j]) for j in irr}
        out.append(np.array([lat.join_all(f[j] for j in irr if lat.leq[j, x])
                             for x in range(lat.n)], dtype=np.int64))
    return out


def test_classify_matches_oracle_on_six_catalog(six_catalog):
    for alg in six_catalog:
        assert_profile_matches_oracle(alg)


def test_classify_matches_oracle_on_xn():
    for n in range(1, 7):
        assert_profile_matches_oracle(gen_xn(n))


def test_classify_matches_oracle_on_large_heyting_algebras():
    boolean8 = build_lattice(product_order(*[chain_matrix(2)] * 8))
    for lat in (boolean8, chain(256)):
        assert_profile_matches_oracle(gen_heyting(lat))


@pytest.mark.parametrize("factors", [(2,) * 5, (2,) * 6, (6, 8), (8, 12), (50,), (75,)],
                         ids=lambda f: "x".join(map(str, f)))
def test_classify_matches_oracle_on_table_shapes(factors):
    """The lattice shapes of the big-table benchmark, with the identity, the
    trivial pair and seeded join-preserving nablas and their residuals."""
    lat = build_lattice(product_order(*[chain_matrix(k) for k in factors]))
    algs = [gen_heyting(lat), gen_trivial(lat)]
    for nab in join_preserving_nablas(lat, np.random.default_rng(len(factors) * lat.n), 3):
        algs.append(build_algebra(lat, nab, derive_arrow(lat, nab)))
    flags = set()
    for alg in algs:
        assert_profile_matches_oracle(alg)
        flags.add(classify(alg).flags())
    assert len(flags) >= 3


# --- implication axioms ------------------------------------------------------


def test_valid_arrows_are_implications(small_catalog):
    for alg in small_catalog:
        rep = check_implication_axioms(StrongAlgebraCandidate(alg.lat, alg.arrow))
        assert rep.ok
        assert rep.meet_internalizing
        if classify(alg).D:
            assert rep.join_internalizing


def test_cex3_is_a_well_behaved_implication():
    cand = gen_counterexample_cex3()
    rep = check_implication_axioms(cand)
    assert rep.ok
    assert rep.meet_internalizing and rep.join_internalizing


def test_constant_bottom_arrow_fails_reflexivity():
    cand = StrongAlgebraCandidate(chain(2), np.zeros((2, 2), dtype=int))
    rep = check_implication_axioms(cand)
    laws = {v.law for v in rep.violations}
    assert "reflexivity" in laws


def test_implication_witnesses_match_loop_oracle(full_catalog, small_lattices):
    seen = set()
    for lat, _, arr in broken_tables(full_catalog, small_lattices, 22, 400):
        rep = check_implication_axioms(StrongAlgebraCandidate(lat, arr))
        laws, internalizing = oracle_implication_failures(lat, arr)
        assert [(v.law, v.witness) for v in rep.violations] == laws
        assert rep.internalizing_witnesses == internalizing
        assert rep.meet_internalizing == ("meet" not in internalizing)
        assert rep.join_internalizing == ("join" not in internalizing)
        seen.update(law for law, _ in laws)
        seen.update(internalizing)
    assert seen == {"antitone-first", "monotone-second", "reflexivity", "transitivity",
                    "meet", "join"}


def test_cover_monotonicity_matches_full_masks(six_catalog, six_lattices):
    """The order checks on covering pairs against the full masks, on every
    algebra up to 6 elements and on seeded tables that break them.  Nabla's
    monotonicity and arrow's in its second argument are decided with the
    adjunction (``lattice._residuated``), so of the three only antitonicity in
    the first argument is re-checked by _assemble, and it reports
    exactly when that fails."""
    for alg in six_catalog:
        leq, covers = alg.lat.leq, alg.lat.covers
        assert _monotone(leq, covers, alg.nabla[None]) and _monotone(leq, covers, alg.arrow)
        assert _monotone(leq.T, covers, alg.arrow.T)
        assert monotone_second(leq, alg.arrow).all() and antitone_first(leq, alg.arrow).all()
    seen = set()
    for lat, nab, arr in broken_tables(six_catalog, six_lattices, 23, 600):
        leq, covers = lat.leq, lat.covers
        checks = {
            "nabla must be order-preserving":
                ((~leq | leq[nab][:, nab]).all(), _monotone(leq, covers, nab[None])),
            "arrow must be order-preserving in its second argument":
                (monotone_second(leq, arr).all(), _monotone(leq, covers, arr)),
            "arrow must be antitone in its first argument":
                (antitone_first(leq, arr).all(), _monotone(leq.T, covers, arr.T)),
        }
        for message, (full, cover) in checks.items():
            assert full == cover
            seen.add((message, bool(full)))
        try:
            _assemble(lat, nab, arr)
            raised = None
        except CrossCheckError as err:
            raised = str(err)
        antitone = "arrow must be antitone in its first argument"
        assert raised not in set(checks) - {antitone}
        assert (raised == antitone) == (not checks[antitone][0])
    assert len(seen) == 6


# --- adjoint search ----------------------------------------------------------


def test_nabla_from_strong_recovers_x1():
    alg = make_x1()
    res = nabla_from_strong(StrongAlgebraCandidate(alg.lat, alg.arrow))
    assert res.found and tuple(res.nabla) == X1_NABLA


def test_nabla_from_strong_absent_on_cex3():
    res = nabla_from_strong(gen_counterexample_cex3())
    assert not res.found
    assert res.witness == (1, 0)
    assert res.reason == "arrow differs from boxed Heyting implication"


def test_nabla_from_strong_identity_on_heyting(h3):
    res = nabla_from_strong(StrongAlgebraCandidate(h3.lat, h3.arrow))
    assert res.found and tuple(res.nabla) == (0, 1, 2)


def test_nabla_from_strong_needs_distributive():
    with pytest.raises(NotDistributive):
        nabla_from_strong(StrongAlgebraCandidate(pentagon(), np.full((5, 5), 4)))


def test_nabla_from_strong_roundtrip_on_catalog(small_catalog):
    for alg in small_catalog:
        if not classify(alg).D:
            continue
        res = nabla_from_strong(StrongAlgebraCandidate(alg.lat, alg.arrow))
        assert res.found and (res.nabla == alg.nabla).all()


# --- morphisms ---------------------------------------------------------------


def test_identity_morphism_is_embedding():
    alg = make_x1()
    rep = check_morphism(identity_morphism(alg, heyting=True))
    assert rep.ok and rep.injective and rep.heyting_checked


def test_collapse_between_trivial_algebras():
    src = gen_trivial(chain(3))
    tgt = gen_trivial(chain(2))
    rep = check_morphism(AlgebraMorphism(src, tgt, (0, 1, 1)))
    assert rep.ok and not rep.injective


def test_bound_embedding_into_heyting_chain(b2, h3):
    m = AlgebraMorphism(b2, h3, (0, 2), preserves_heyting=True)
    rep = check_morphism(m)
    assert rep.ok and rep.injective and rep.heyting_checked


def test_broken_morphism_reports_witness(b2, h3):
    rep = check_morphism(AlgebraMorphism(b2, h3, (0, 1)))
    assert not rep.ok
    laws = {v.law for v in rep.violations}
    assert "one" in laws


def test_heyting_claim_without_tables_fails_outright():
    alg = gen_trivial(pentagon())
    rep = check_morphism(identity_morphism(alg, heyting=True))
    assert [(v.law, v.witness) for v in rep.violations] == [("heyting", ())]
    assert not rep.ok and not rep.heyting_checked
    assert rep.to_json() == {"ok": False, "violations": [{"axiom": "heyting", "witness": []}],
                             "injective": True, "heyting_checked": False}


def test_compose_morphisms(b2, h3):
    inner = AlgebraMorphism(b2, b2, (0, 1))
    outer = AlgebraMorphism(b2, h3, (0, 2))
    comp = compose_morphisms(outer, inner)
    assert comp.map == (0, 2)
    assert check_morphism(comp).ok


def test_composite_reports_on_its_own_map(b2, h3):
    """Reports are kept on the morphism, and a composite starts with none:
    after its inner morphism was checked, the composite's report is built on
    the composite's map.  A map given as a list is frozen as a tuple."""
    inner = AlgebraMorphism(b2, b2, [0, 1])
    outer = AlgebraMorphism(b2, h3, (0, 1))
    assert inner.map == (0, 1) and check_morphism(inner).ok
    comp = compose_morphisms(outer, inner)
    rep = check_morphism(comp)
    assert comp.map == (0, 1) and [v.law for v in rep.violations] == ["one", "arrow"]
    assert check_morphism(inner).ok and check_morphism(comp) is rep


# --- derived facts on the catalog ---------------------------------------------


def test_basic_inequalities_on_catalog(small_catalog):
    for alg in small_catalog:
        lat, idx = alg.lat, np.arange(alg.n)
        assert lat.leq[lat.meet[idx[:, None], alg.nabla[alg.arrow]], idx[None, :]].all()
        assert lat.leq[alg.nabla[alg.box], idx].all()
        assert lat.leq[idx, alg.box[alg.nabla]].all()


def test_faithful_members_satisfy_top_and_heyting_facts(small_catalog):
    seen = 0
    for alg in small_catalog:
        profile = classify(alg)
        if not profile.Fa:
            continue
        seen += 1
        assert int(alg.nabla[alg.lat.top]) == alg.lat.top
        assert ((alg.arrow == alg.lat.top) == alg.lat.leq).all()
        assert (alg.nabla[alg.arrow] == alg.heyting).all()
    assert seen > 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_derived_arrows_always_validate(data):
    lats = all_lattices(4)
    lat = data.draw(st.sampled_from(lats))
    nabla = np.array(
        data.draw(st.lists(st.integers(0, lat.n - 1),
                           min_size=lat.n, max_size=lat.n)))
    arrow = derive_arrow(lat, nabla)
    if arrow is None:
        return
    alg = build_algebra(lat, nabla, arrow)
    assert check_equational_axioms(lat, nabla, arrow).ok
    assert (alg.box == arrow[lat.top]).all()


def test_algebra_iso_finds_relabeled_copy():
    alg = make_x1()
    perm = np.array([2, 0, 1])
    inv = np.argsort(perm)
    leq = alg.lat.leq[np.ix_(perm, perm)]
    lat2 = build_lattice(leq)
    nab2 = np.array([inv[alg.nabla[perm[i]]] for i in range(3)])
    arr2 = np.array([[inv[alg.arrow[perm[i], perm[j]]] for j in range(3)] for i in range(3)])
    other = build_algebra(lat2, nab2, arr2)
    assert algebra_iso(other, alg) is not None
    assert algebra_iso(alg, gen_trivial(chain(3))) is None
