"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import time

import numpy as np
import pytest

from nablalg.algebra import (
    AlgebraMorphism,
    StrongAlgebraCandidate,
    build_algebra,
    check_equational_axioms,
    check_implication_axioms,
    check_morphism,
    classify,
    derive_arrow,
    nabla_from_strong,
)
from nablalg.congruence import (
    all_congruences_oracle,
    all_modal_filters,
    congruence_from_filter,
    filter_from_congruence,
    is_simple,
    is_subdirectly_irreducible,
    check_internal_cong_inequalities,
)
from nablalg.completion import dm_complete
from nablalg.errors import AdjunctionFailure
from nablalg.gallery import (
    enumerate_algebras,
    gen_counterexample_cex3,
    gen_heyting,
    gen_trivial,
    gen_xn,
)
from nablalg.kripke import (
    amalgamate_algebras,
    build_frame,
    canonical_frame_embedding,
    frame_profile,
    prime_frame,
    upset_algebra,
)
from nablalg.lattice import all_lattices, build_lattice

from completion_oracle import completion_differences, ideal_set_completion
from conftest import amalgamation_spans, boolean_square, chain, chain_matrix, order_from_covers


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def catalog(full_catalog):
    return full_catalog


@pytest.fixture(scope="module")
def fixture_algebras():
    grid_frame = build_frame(boolean_square().leq, boolean_square().leq)
    return [
        gen_xn(1), gen_xn(2), gen_xn(3),
        gen_heyting(chain(2)), gen_heyting(chain(3)), gen_heyting(chain(4)),
        gen_heyting(boolean_square()),
        gen_trivial(chain(1)), gen_trivial(chain(2)), gen_trivial(chain(3)),
        upset_algebra(grid_frame),  # six elements
    ]


# --- 1: the two validators agree ----------------------------------------------


def _batch_agreement(lat, nab, arrows):
    """Adjunction verdicts and equational-law verdicts for a batch of arrows."""
    n = lat.n
    idx = np.arange(n)
    leq, meet = lat.leq, lat.meet
    left = leq[meet[nab]]
    right = leq[:, arrows]                       # [c, k, a, b]
    adj = (right == left[:, None, :, :]).all(axis=(0, 2, 3))
    ok2 = (arrows[:, meet, idx[:, None]] == lat.top).all(axis=(1, 2))
    ok3 = bool(leq[nab[meet], meet[nab[:, None], nab[None, :]]].all())
    nb_arr = nab[arrows]
    ok4 = leq[meet[idx[None, :, None], nb_arr], idx[None, None, :]].all(axis=(1, 2))
    inner = arrows[:, meet[nab], :]              # [k, c, a, b]
    lhs = meet[idx[None, :, None, None], inner]
    ok5 = leq[lhs, arrows[:, None, :, :]].all(axis=(1, 2, 3))
    laws = ok2 & ok3 & ok4 & ok5
    return adj, laws


def _production_verdicts(lat, nab, arrow):
    laws_ok = check_equational_axioms(lat, nab, arrow).ok
    try:
        build_algebra(lat, nab, arrow)
        adj_ok = True
    except AdjunctionFailure:
        adj_ok = False
    return adj_ok, laws_ok


def test_criterion_1_validator_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    checked = 0
    spot = 0

    for lat in all_lattices(3):
        n = lat.n
        arrows = np.array(
            list(itertools.product(range(n), repeat=n * n)), dtype=np.int64
        ).reshape(-1, n, n)
        for nab_tuple in itertools.product(range(n), repeat=n):
            nab = np.array(nab_tuple, dtype=np.int64)
            adj, laws = _batch_agreement(lat, nab, arrows)
            assert (adj == laws).all()
            checked += len(arrows)
            # drive a sample through the production validators as well
            for k in map(int, rng.integers(0, len(arrows), size=2)):
                adj_ok, laws_ok = _production_verdicts(lat, nab, arrows[k])
                assert adj_ok == bool(adj[k]) and laws_ok == bool(laws[k])
                spot += 1

    pool = list(all_lattices(5))
    pool.append(build_lattice(chain_matrix(6)))
    pool.append(build_lattice(order_from_covers(
        6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)])))
    pool.append(build_lattice(order_from_covers(
        6, [(0, 1), (1, 2), (2, 5), (0, 3), (3, 5), (0, 4), (4, 5)])))
    pool.append(build_lattice(order_from_covers(
        6, [(0, 1), (1, 2), (2, 3), (3, 5), (1, 4), (4, 5)])))
    randoms = 0
    while randoms < 10_000:
        lat = pool[int(rng.integers(len(pool)))]
        nab = rng.integers(0, lat.n, size=lat.n)
        mode = int(rng.integers(3))
        if mode == 0:
            arrow = rng.integers(0, lat.n, size=(lat.n, lat.n))
        else:
            arrow = derive_arrow(lat, nab)
            if arrow is None:
                arrow = rng.integers(0, lat.n, size=(lat.n, lat.n))
            elif mode == 2:
                arrow = arrow.copy()
                arrow[int(rng.integers(lat.n)), int(rng.integers(lat.n))] = int(
                    rng.integers(lat.n))
        adj_ok, laws_ok = _production_verdicts(lat, nab, arrow)
        assert adj_ok == laws_ok
        randoms += 1

    _report(1, "validator equivalence", True,
            f"{checked} exhaustive triples, {spot} production spot checks, "
            f"{randoms} random triples, {time.time() - t0:.1f}s")


# --- 2: the simple family -------------------------------------------------------


def test_criterion_2_simple_family():
    t0 = time.time()
    for n, size in [(1, 3), (2, 5), (3, 9)]:
        alg = gen_xn(n)
        assert alg.n == size
        assert classify(alg).has("N", "H", "D")
        power = np.arange(alg.n)
        for _ in range(n):
            power = alg.nabla[power]
        assert all(int(power[u]) == alg.lat.bot
                   for u in range(alg.n) if u != alg.lat.top)
        assert is_simple(alg).flag
        assert len(all_congruences_oracle(alg)) == 2
    _report(2, "simple family sizes 3/5/9", True, f"{time.time() - t0:.1f}s")


# --- 3: filter/congruence bijection ---------------------------------------------


def _bijection_suite(alg):
    filters = all_modal_filters(alg)
    congs = all_congruences_oracle(alg)
    assert len(filters) == len(congs)
    alpha = {}
    for f in filters:
        theta = congruence_from_filter(alg, f)
        assert filter_from_congruence(alg, theta).members == f.members
        alpha[f.members] = theta
    assert {t.blocks for t in alpha.values()} == {c.blocks for c in congs}
    for theta in congs:
        f = filter_from_congruence(alg, theta)
        assert congruence_from_filter(alg, f).blocks == theta.blocks
    for f in filters:
        for g in filters:
            if f.members <= g.members:
                assert alpha[f.members].refines(alpha[g.members])
    for t1 in congs:
        for t2 in congs:
            if t1.refines(t2):
                assert filter_from_congruence(alg, t1).members <= \
                    filter_from_congruence(alg, t2).members


def test_criterion_3_filter_congruence_bijection(catalog, fixture_algebras):
    t0 = time.time()
    count = 0
    for alg in list(catalog) + fixture_algebras:
        if not classify(alg).has("N", "D"):
            continue
        _bijection_suite(alg)
        count += 1
    _report(3, "filter/congruence bijection", True,
            f"{count} algebras, {time.time() - t0:.1f}s")


# --- 4: irreducibility and simplicity criteria ----------------------------------


def test_criterion_4_si_simple_consistency(catalog, fixture_algebras):
    t0 = time.time()
    count = 0
    for alg in list(catalog) + fixture_algebras:
        profile = classify(alg)
        if alg.n == 1 or not profile.has("N", "D") or alg.n > 10:
            continue
        congs = all_congruences_oracle(alg)
        nontrivial = [c for c in congs if c.n_blocks() != alg.n]
        has_least = bool(nontrivial) and any(
            all(c.refines(d) for d in nontrivial) for c in nontrivial)
        si = is_subdirectly_irreducible(alg)
        assert si.flag == has_least
        if si.flag:
            assert si.witness is not None and si.witness != alg.lat.top
        simple = is_simple(alg)
        assert simple.flag == (len(congs) == 2)
        if simple.flag:
            assert si.flag
        # power-form specializations on one-sided algebras
        others = [y for y in range(alg.n) if y != alg.lat.top]
        for flagged, table in ((profile.L, alg.nabla), (profile.R, alg.box)):
            if not flagged:
                continue
            orbits = {}
            for y in others:
                seen = []
                v = y
                while v not in seen:
                    seen.append(v)
                    v = int(table[v])
                orbits[y] = seen
            power_si = any(
                all(any(alg.lat.leq[v, x] for v in orbits[y]) for y in others)
                for x in others)
            assert power_si == si.flag
            power_simple = all(alg.lat.bot in orbits[y] for y in others)
            assert power_simple == simple.flag
        count += 1
    _report(4, "irreducibility/simplicity criteria", True,
            f"{count} algebras, {time.time() - t0:.1f}s")


# --- 5: cut completion -----------------------------------------------------------


def test_criterion_5_completion(catalog, fixture_algebras):
    t0 = time.time()
    count = 0
    unique = 0
    for alg in list(catalog) + fixture_algebras:
        comp = dm_complete(alg)
        assert completion_differences(comp, ideal_set_completion(alg)) == []
        emb = np.array(comp.embedding)
        assert comp.algebra.n == alg.n and sorted(comp.embedding) == list(range(alg.n))
        assert (emb[alg.nabla] == comp.algebra.nabla[emb]).all()
        assert (emb[alg.arrow] == comp.algebra.arrow[emb[:, None], emb[None, :]]).all()
        src = classify(alg)
        if src.H:
            assert (emb[alg.heyting]
                    == comp.algebra.heyting[emb[:, None], emb[None, :]]).all()
        dst = classify(comp.algebra)
        for flag in ("H", "N", "R", "L", "Fa", "Fu"):
            if getattr(src, flag):
                assert getattr(dst, flag)
        count += 1
        if alg.n > 4:
            continue
        # uniqueness: the arrow is pinned by residuation, so search all nablas
        survivors = 0
        ilat = comp.algebra.lat
        for cand in itertools.product(range(ilat.n), repeat=ilat.n):
            nab = np.array(cand, dtype=np.int64)
            arrow = derive_arrow(ilat, nab)
            if arrow is None:
                continue
            if (emb[alg.nabla] != nab[emb]).any():
                continue
            if (emb[alg.arrow] != arrow[emb[:, None], emb[None, :]]).any():
                continue
            assert (nab == comp.algebra.nabla).all()
            assert (arrow == comp.algebra.arrow).all()
            survivors += 1
        assert survivors == 1
        unique += 1
    _report(5, "cut completion", True,
            f"{count} completions, {unique} uniqueness sweeps, {time.time() - t0:.1f}s")


# --- 6: finite representation round trip -----------------------------------------


def test_criterion_6_duality_round_trip(catalog, fixture_algebras):
    t0 = time.time()
    count = 0
    for alg in list(catalog) + fixture_algebras:
        profile = classify(alg)
        if not profile.D or alg.n > 6:
            continue
        emb = canonical_frame_embedding(alg)
        rep = check_morphism(emb)
        assert rep.ok and rep.injective
        assert emb.target.n == alg.n and sorted(emb.map) == list(range(alg.n))
        if profile.H:
            assert rep.heyting_checked
        fprof = frame_profile(prime_frame(alg))
        for flag in ("N", "R", "L", "Fa", "Fu"):
            if getattr(profile, flag):
                assert getattr(fprof, flag)
        count += 1
    frames = [
        build_frame(np.ones((1, 1), dtype=bool), np.ones((1, 1), dtype=bool)),
        build_frame(chain_matrix(2), chain_matrix(2)),
        build_frame(chain_matrix(2), np.ones((2, 2), dtype=bool)),
        build_frame(np.eye(2, dtype=bool), np.eye(2, dtype=bool)),
        build_frame(boolean_square().leq, boolean_square().leq),
        prime_frame(gen_xn(1)),
        prime_frame(gen_xn(2)),
    ]
    for frame in frames:
        aprof = classify(upset_algebra(frame))
        for flag in frame_profile(frame).flags():
            assert getattr(aprof, flag)
    _report(6, "finite representation round trip", True,
            f"{count} algebras, {len(frames)} frames, {time.time() - t0:.1f}s")


# --- 7: the counterexample stays a counterexample --------------------------------


def test_criterion_7_counterexample_regression():
    cand = gen_counterexample_cex3()
    rep = check_implication_axioms(cand)
    assert rep.ok
    assert rep.meet_internalizing and rep.join_internalizing
    # second-argument meet preservation, nullary case included
    assert (cand.arrow[:, cand.lat.top] == cand.lat.top).all()
    res = nabla_from_strong(cand)
    assert not res.found
    assert res.witness == (1, 0)
    _report(7, "counterexample regression", True)


# --- 8: amalgamation of embedding spans ------------------------------------------


def test_criterion_8_amalgamation(catalog):
    t0 = time.time()
    b2 = gen_heyting(chain(2))
    h3 = gen_heyting(chain(3))
    special_f = AlgebraMorphism(b2, h3, (0, 2), preserves_heyting=True)
    res = amalgamate_algebras(b2, h3, h3, special_f, special_f, heyting=True)
    assert res.b.n == 6
    assert tuple(res.g1.map[v] for v in special_f.map) == \
        tuple(res.g2.map[v] for v in special_f.map)
    assert classify(res.b).has("N", "D", "R", "L", "Fa")

    spans = amalgamation_spans(catalog)
    for a0, a1, a2, f1, f2 in spans:
        shared = (classify(a0).flags() & classify(a1).flags()
                  & classify(a2).flags()) & {"R", "L", "Fa"}
        out = amalgamate_algebras(a0, a1, a2, f1, f2)
        assert tuple(out.g1.map[v] for v in f1.map) == \
            tuple(out.g2.map[v] for v in f2.map)
        for m in (out.g1, out.g2):
            rep = check_morphism(m)
            assert rep.ok and rep.injective
        assert shared <= classify(out.b).flags()
    assert len(spans) + 1 >= 21
    _report(8, "amalgamation of spans", True,
            f"{len(spans) + 1} spans, {time.time() - t0:.1f}s")


# --- 9: inequality and derived-fact suites ----------------------------------------


def test_criterion_9_inequality_suites(catalog, fixture_algebras):
    t0 = time.time()
    basic = cong = faithful = 0
    for alg in list(catalog) + fixture_algebras:
        lat, idx = alg.lat, np.arange(alg.n)
        assert lat.leq[lat.meet[idx[:, None], alg.nabla[alg.arrow]], idx[None, :]].all()
        assert lat.leq[alg.nabla[alg.box], idx].all()
        assert lat.leq[idx, alg.box[alg.nabla]].all()
        basic += 1
        profile = classify(alg)
        if profile.has("N", "D"):
            rep = check_internal_cong_inequalities(alg)
            assert rep.ok and not rep.violations
            cong += 1
        if profile.Fa:
            assert int(alg.nabla[alg.lat.top]) == alg.lat.top
            assert ((alg.arrow == alg.lat.top) == lat.leq).all()
            assert alg.heyting is not None
            assert (alg.nabla[alg.arrow] == alg.heyting).all()
            faithful += 1
    assert faithful > 0
    _report(9, "inequality suites", True,
            f"{basic} basic, {cong} compatibility, {faithful} faithful, "
            f"{time.time() - t0:.1f}s")
