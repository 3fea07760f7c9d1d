"""The one first-witness scan, ``lattice._violations``, against the
whole-mask forms it replaced, kept in conftest: every law report with the
internalizing witnesses, the witness of ``AdjunctionFailure``, ``NoMeet`` and
``NoJoin``, and the distributivity witness.  The inputs are the catalog up to
5 elements, ``gen_xn`` 1-6 and the labelled 5-element posets, the algebras
each with one-entry perturbations.  Each comparison runs at the default
``SCAN_SLAB`` and at 8 entries, one first argument per slab, so that small
inputs fail in late slabs too; a 96-element chain fails in a late slab at the
default.  The law reports and the scan for a missing join hold no n^3 table.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

import nablalg.lattice as lattice
from nablalg.algebra import (
    LawReport,
    NablaAlgebra,
    StrongAlgebraCandidate,
    _build_profile,
    build_algebra,
    check_equational_axioms,
    check_implication_axioms,
    classify,
)
from nablalg.congruence import check_internal_cong_inequalities
from nablalg.errors import AdjunctionFailure, CrossCheckError, NablalgError, NoJoin
from nablalg.gallery import gen_heyting, gen_xn
from nablalg.lattice import (
    SCAN_SLAB,
    Violation,
    _coordinate_bound_table,
    _labeled_posets,
    _partial_order,
    _slabs,
    build_lattice,
    distributivity_witness,
)

from conftest import (
    adjunction_failure,
    bound_table,
    chain_matrix,
    cube_distributivity_witness,
    equational_violations,
    implication_violations,
    internal_violations,
)

SLABS = pytest.mark.parametrize("scan_slab", [SCAN_SLAB, 8], ids=["default", "row-per-slab"])

EQUATIONAL = {"meet-arrow-top", "nabla-meet", "detachment", "shift"}
IMPLICATION = {"antitone-first", "monotone-second", "reflexivity", "transitivity"}
INTERNAL = {"meet-translation", "join-translation", "nabla-distribution",
            "second-arg-composition", "first-arg-composition",
            "heyting-second-arg", "heyting-first-arg"}


@pytest.fixture(scope="module")
def algebras(full_catalog):
    return [*full_catalog, *(gen_xn(k) for k in range(1, 7))]


def perturbations(alg, rng, count=4):
    """(nabla, arrow) of ``alg`` and ``count`` copies with one entry changed:
    of nabla in every third copy, of the arrow in the others."""
    out = [(alg.nabla, alg.arrow)]
    for i in range(count if alg.n > 1 else 0):
        nab, arr = alg.nabla.copy(), alg.arrow.copy()
        table = nab if i % 3 == 2 else arr
        pos = tuple(int(rng.integers(k)) for k in table.shape)
        table[pos] = (table[pos] + rng.integers(1, alg.n)) % alg.n
        out.append((nab, arr))
    return out


def broken(alg, nab, arr):
    """The tables as an algebra, unvalidated, with the profile of ``alg``."""
    out = NablaAlgebra(alg.lat, nab, arr)
    out._kept[_build_profile] = classify(alg)
    return out


def adjunction_outcome(lat, nab, arr):
    try:
        build_algebra(lat, nab, arr)
    except AdjunctionFailure as err:
        return err.witness, err.direction
    return None


def outcome(fn, *args):
    try:
        out = fn(*args)
    except NablalgError as err:
        return type(err).__name__, str(err), err.witness
    return "ok", out.tolist()


def assert_reports_match(alg, nab, arr):
    """Each report on the tables against its whole-mask form; the failing
    law names."""
    lat = alg.lat
    want = equational_violations(lat, nab, arr)
    assert check_equational_axioms(lat, nab, arr) == LawReport(tuple(Violation(*v) for v in want))
    laws, internalizing = implication_violations(lat, arr)
    rep = check_implication_axioms(StrongAlgebraCandidate(lat, arr))
    assert [(v.law, v.witness) for v in rep.violations] == laws
    assert rep.internalizing_witnesses == internalizing
    assert rep.meet_internalizing == ("meet" not in internalizing)
    assert rep.join_internalizing == ("join" not in internalizing)
    assert adjunction_outcome(lat, nab, arr) == adjunction_failure(lat, nab, arr)
    failed = [law for law, _ in want + laws] + list(internalizing)
    if classify(alg).has("N", "D"):
        sub = broken(alg, nab, arr)
        inner = internal_violations(sub, classify(alg).H)
        assert check_internal_cong_inequalities(sub) == LawReport(
            tuple(Violation(*v) for v in inner))
        failed += [law for law, _ in inner]
    return failed


@SLABS
def test_reports_match_the_whole_masks(monkeypatch, scan_slab, algebras):
    """Every law report, internalizing witness and adjunction failure, on the
    catalog up to 5 elements and gen_xn 1-6 with one-entry perturbations."""
    monkeypatch.setattr(lattice, "SCAN_SLAB", scan_slab)
    rng = np.random.default_rng(61)
    seen = set()
    for alg in algebras:
        for nab, arr in perturbations(alg, rng):
            seen.update(assert_reports_match(alg, nab, arr))
    assert seen == EQUATIONAL | IMPLICATION | {"meet", "join"} | INTERNAL


def test_late_slab_failures_at_the_default_slab():
    """On the Heyting 96-chain, 7 first arguments to a slab, arrow(90, 5)
    changed to top breaks monotonicity in the second argument only at first
    argument 90, in the thirteenth slab; every report names the whole masks'
    witnesses."""
    alg = gen_heyting(build_lattice(chain_matrix(96)))
    arr = alg.arrow.copy()
    arr[90, 5] = alg.lat.top
    assert_reports_match(alg, alg.nabla, arr)
    rep = check_implication_axioms(StrongAlgebraCandidate(alg.lat, arr))
    first = {v.law: v.witness for v in rep.violations}["monotone-second"]
    assert first[0] == 90 >= _slabs(alg.n, size=SCAN_SLAB)[12].start


@SLABS
def test_missing_bounds_match_the_cube(monkeypatch, scan_slab):
    """The 4,231 labelled 5-element posets: the coordinate tables, or the
    first pair without a meet (join) that the cube names."""
    monkeypatch.setattr(lattice, "SCAN_SLAB", scan_slab)
    kinds = Counter()
    for leq in _labeled_posets(5):
        arr, covers = _partial_order(leq)
        for lower in (True, False):
            want = outcome(bound_table, arr, lower)
            assert outcome(_coordinate_bound_table, arr, covers, lower) == want
            kinds[want[0]] += 1
    assert set(kinds) == {"ok", "NoMeet", "NoJoin"}


@SLABS
def test_distributivity_witnesses_match_the_cube(monkeypatch, scan_slab, algebras):
    """The lattices among the labelled 5-element posets and those of the
    catalog and gen_xn 1-6, each fresh: the first bad triple of the cube."""
    monkeypatch.setattr(lattice, "SCAN_SLAB", scan_slab)
    lats = []
    for leq in _labeled_posets(5):
        try:
            lats.append(build_lattice(leq))
        except NablalgError:
            pass
    lats += [build_lattice(alg.lat.leq) for alg in algebras]
    verdicts = Counter()
    for lat in lats:
        want = cube_distributivity_witness(lat)
        assert distributivity_witness(lat) == want
        verdicts[want is None] += 1
    assert set(verdicts) == {True, False}


def test_law_reports_hold_no_cube():
    """Each law report on the Heyting Boolean 2^7 peaks under 8 MB under
    tracemalloc; the whole masks they replaced peaked at 28-36 MB there."""
    sets = np.arange(2 ** 7)
    alg = gen_heyting(build_lattice((sets[:, None] & ~sets[None, :]) == 0))
    classify(alg)
    cand = StrongAlgebraCandidate(alg.lat, alg.arrow)
    for report in (lambda: check_equational_axioms(alg.lat, alg.nabla, alg.arrow),
                   lambda: check_implication_axioms(cand),
                   lambda: check_internal_cong_inequalities(alg)):
        tracemalloc.start()
        try:
            assert report().ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


def test_missing_join_scan_holds_no_cube():
    """The 256-chain with its top no longer above 254: the pair (254, 255),
    in the last slab, has no join, and naming it peaks under 16 MB, where the
    cube of common upper bounds it replaced peaked at 49 MB."""
    leq = chain_matrix(256)
    leq[254, 255] = False
    tracemalloc.start()
    try:
        with pytest.raises(NoJoin) as err:
            build_lattice(leq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.witness == (254, 255)
    assert peak < 16 * 2 ** 20


def test_failed_lookup_with_every_bound_is_a_cross_check_failure(monkeypatch):
    """A coordinate lookup that fails where every pair has a meet and a join
    contradicts the coordinate lemma, and the scan that finds no pair says
    so."""
    monkeypatch.setattr(lattice, "_intersection_table", lambda rows, rel: None)
    with pytest.raises(CrossCheckError, match="coordinate lookup must fail only"):
        build_lattice(chain_matrix(3))
