"""Lattices carrying a modal pair (nabla, arrow) tied by residuation.

The defining law is the adjunction

    nabla(c) & a <= b   iff   c <= arrow(a, b)        for all a, b, c.

``box`` is the derived unary operation ``box(a) = arrow(top, a)``; it is the
right adjoint of ``nabla``.  Two independent validators exist: the direct
adjunction scan (``build_algebra``) and the equational laws
(``check_equational_axioms``); they must agree on every input, which the
test harness verifies exhaustively at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AdjunctionFailure,
    NotDistributive,
    ShapeError,
    ensure,
)
from .lattice import (
    FiniteLattice,
    _greatest,
    _order_iso,
    _signatures,
    distributivity_witness,
    heyting_table,
    is_distributive,
)


@dataclass(frozen=True)
class Violation:
    law: str
    witness: tuple

    def to_json(self) -> dict:
        return {"axiom": self.law, "witness": [int(v) for v in self.witness]}


@dataclass(frozen=True)
class LawReport:
    ok: bool
    violations: tuple

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_json() for v in self.violations]}


class NablaAlgebra:
    """Validated carrier; ``heyting`` is present exactly when the lattice is distributive."""

    __slots__ = ("lat", "nabla", "arrow", "box", "heyting", "_profile", "_frame")

    def __init__(self, lat: FiniteLattice, nabla: np.ndarray, arrow: np.ndarray):
        self.lat = lat
        nabla.setflags(write=False)
        arrow.setflags(write=False)
        self.nabla = nabla
        self.arrow = arrow
        self.box = arrow[lat.top].copy()
        self.box.setflags(write=False)
        self.heyting = heyting_table(lat)
        self._profile = None
        self._frame = None      # the prime frame, kept by kripke.prime_frame

    @property
    def n(self) -> int:
        return self.lat.n

    def __repr__(self):
        return f"NablaAlgebra(n={self.n}, nabla={tuple(int(v) for v in self.nabla)})"


def _check_tables(lat: FiniteLattice, nabla, arrow):
    nab = np.asarray(nabla, dtype=np.int64)
    arr = np.asarray(arrow, dtype=np.int64)
    n = lat.n
    if nab.shape != (n,):
        raise ShapeError(f"nabla table must have shape ({n},), got {nab.shape}")
    if arr.shape != (n, n):
        raise ShapeError(f"arrow table must have shape ({n}, {n}), got {arr.shape}")
    if nab.min(initial=0) < 0 or nab.max(initial=0) >= n:
        raise ShapeError("nabla entries out of range")
    if arr.min(initial=0) < 0 or arr.max(initial=0) >= n:
        raise ShapeError("arrow entries out of range")
    return nab, arr


def _adjunction_sides(lat: FiniteLattice, nab: np.ndarray, arr: np.ndarray):
    # left[c, a, b]: nabla(c) & a <= b;  right[c, a, b]: c <= arrow(a, b)
    left = lat.leq[lat.meet[nab]]
    right = lat.leq[:, arr]
    return left, right


def build_algebra(lat: FiniteLattice, nabla, arrow) -> NablaAlgebra:
    """Validate the adjunction and derive ``box`` plus the optional Heyting table.

    On failure raises :class:`AdjunctionFailure` with the lexicographically
    first bad (a, b, c).  On success the monotonicity and (co)limit
    preservation facts forced by the adjunction are re-derived as internal
    cross-checks.
    """
    nab, arr = _check_tables(lat, nabla, arrow)
    left, right = _adjunction_sides(lat, nab, arr)
    diff = left ^ right
    if diff.any():
        a, b, c = (int(v) for v in np.argwhere(diff.transpose(1, 2, 0))[0])
        direction = "forward" if left[c, a, b] else "backward"
        raise AdjunctionFailure(a, b, c, direction)
    alg = NablaAlgebra(lat, nab.copy(), arr.copy())
    _check_derived_laws(alg)
    return alg


def _check_derived_laws(alg: NablaAlgebra) -> None:
    lat, nab, arr, box = alg.lat, alg.nabla, alg.arrow, alg.box
    n = lat.n
    leq = lat.leq
    ensure((~leq | leq[nab][:, nab]).all(), "nabla must be order-preserving")
    mono2 = ~leq[None, :, :] | leq[arr[:, :, None], arr[:, None, :]]
    ensure(mono2.all(), "arrow must be order-preserving in its second argument")
    # anti1[a', a, b]: a' <= a implies arrow(a, b) <= arrow(a', b)
    anti1 = ~leq[:, :, None] | leq[arr[None, :, :], arr[:, None, :]]
    ensure(anti1.all(), "arrow must be antitone in its first argument")
    ensure(int(nab[lat.bot]) == lat.bot, "nabla must send bottom to bottom")
    ensure((nab[lat.join] == lat.join[nab[:, None], nab[None, :]]).all(),
           "nabla must preserve binary joins")
    ensure(int(box[lat.top]) == lat.top, "box must send top to top")
    ensure((box[lat.meet] == lat.meet[box[:, None], box[None, :]]).all(),
           "box must preserve binary meets")
    idx = np.arange(n)
    ensure(leq[lat.meet[idx[:, None], nab[arr]], idx[None, :]].all(),
           "a & nabla(arrow(a, b)) <= b must hold")
    ensure(leq[nab[box], idx].all(), "nabla(box(a)) <= a must hold")
    ensure(leq[idx, box[nab]].all(), "a <= box(nabla(a)) must hold")


def derive_arrow(lat: FiniteLattice, nabla):
    """The unique arrow residuating the given nabla, or None when there is none.

    Searches max{c : nabla(c) & a <= b} per pair and then re-validates the
    full adjunction; the re-check matters because an arbitrary nabla table
    can admit all the maxima yet break residuation (for instance when it is
    not order-preserving).
    """
    nab = np.asarray(nabla, dtype=np.int64)
    if nab.shape != (lat.n,) or nab.min() < 0 or nab.max() >= lat.n:
        raise ShapeError("nabla table has wrong shape or entries out of range")
    # cand[c, a, b]: nabla(c) & a <= b
    arrow, found = _greatest(lat.leq, lat.leq[lat.meet[nab]])
    if not found.all():
        return None
    left, right = _adjunction_sides(lat, nab, arrow)
    if (left != right).any():
        return None
    return arrow


EQUATIONAL_LAWS = {
    "meet-arrow-top": "arrow(a & b, a) = top",
    "nabla-meet": "nabla(a & b) <= nabla(a) & nabla(b)",
    "detachment": "a & nabla(arrow(a, b)) <= b",
    "shift": "c & arrow(nabla(c) & a, b) <= arrow(a, b)",
}


def check_equational_axioms(lat: FiniteLattice, nabla, arrow) -> LawReport:
    """Evaluate the four equational laws over all tuples.

    The laws axiomatize exactly the algebras accepted by ``build_algebra``;
    the harness checks that equivalence with zero discrepancies.
    """
    nab, arr = _check_tables(lat, nabla, arrow)
    n = lat.n
    idx = np.arange(n)
    leq, meet = lat.leq, lat.meet
    violations = []

    ok2 = arr[meet, idx[:, None]] == lat.top
    if not ok2.all():
        a, b = (int(v) for v in np.argwhere(~ok2)[0])
        violations.append(Violation("meet-arrow-top", (a, b)))

    ok3 = leq[nab[meet], meet[nab[:, None], nab[None, :]]]
    if not ok3.all():
        a, b = (int(v) for v in np.argwhere(~ok3)[0])
        violations.append(Violation("nabla-meet", (a, b)))

    ok4 = leq[meet[idx[:, None], nab[arr]], idx[None, :]]
    if not ok4.all():
        a, b = (int(v) for v in np.argwhere(~ok4)[0])
        violations.append(Violation("detachment", (a, b)))

    # inner[c, a, b] = arrow(nabla(c) & a, b)
    inner = arr[meet[nab], :]
    lhs = meet[idx[:, None, None], inner]
    ok5 = leq[lhs, arr[None, :, :]]
    if not ok5.all():
        c, a, b = (int(v) for v in np.argwhere(~ok5)[0])
        violations.append(Violation("shift", (a, b, c)))

    return LawReport(ok=not violations, violations=tuple(violations))


FLAG_NAMES = ("D", "H", "N", "R", "L", "Fa", "Fu")


@dataclass(frozen=True)
class PropertyProfile:
    """Classification flags with a counterexample tuple for every false flag."""

    D: bool
    H: bool
    N: bool
    R: bool
    L: bool
    Fa: bool
    Fu: bool
    witnesses: dict = field(compare=False)

    def flags(self) -> frozenset:
        return frozenset(name for name in FLAG_NAMES if getattr(self, name))

    def has(self, *names) -> bool:
        return all(getattr(self, name) for name in names)

    def to_json(self) -> dict:
        return {
            "kind": "property-profile",
            "flags": {name: bool(getattr(self, name)) for name in FLAG_NAMES},
            "witnesses": {k: [int(v) for v in w] for k, w in sorted(self.witnesses.items())},
        }


def _first_false(mask: np.ndarray):
    return tuple(int(v) for v in np.argwhere(~mask)[0])


def classify(alg: NablaAlgebra) -> PropertyProfile:
    """Compute the seven property flags.

    Each of R, L, Fa, Fu has several equivalent characterizations; all of
    them are evaluated and required to agree, so a disagreement surfaces a
    library bug immediately rather than a wrong flag.
    """
    if alg._profile is not None:
        return alg._profile
    lat, nab, arr, box = alg.lat, alg.nabla, alg.arrow, alg.box
    n, leq, meet = lat.n, lat.leq, lat.meet
    idx = np.arange(n)
    witnesses = {}

    d = is_distributive(lat)
    if not d:
        witnesses["D"] = distributivity_witness(lat)
    h = alg.heyting is not None
    if not h:
        witnesses["H"] = witnesses.get("D")

    n_mask = nab[meet] == meet[nab[:, None], nab[None, :]]
    n_flag = bool(n_mask.all()) and int(nab[lat.top]) == lat.top
    if not n_flag:
        witnesses["N"] = (lat.top,) if int(nab[lat.top]) != lat.top else _first_false(n_mask)

    r_mask = leq[idx, nab]
    r_flag = bool(r_mask.all())
    r_alt1 = bool(leq[meet[idx[:, None], arr], idx[None, :]].all())
    r_alt2 = bool(leq[box, idx].all())
    ensure(r_flag == r_alt1 == r_alt2, "right-condition characterizations disagree")
    if not r_flag:
        witnesses["R"] = _first_false(r_mask)

    l_mask = leq[nab, idx]
    l_flag = bool(l_mask.all())
    # c & a <= b implies c <= arrow(a, b), both sides indexed [c, a, b]
    l_alt1 = bool((~leq[meet] | leq[:, arr]).all())
    l_alt2 = bool(leq[idx, box].all())
    ensure(l_flag == l_alt1 == l_alt2, "left-condition characterizations disagree")
    if not l_flag:
        witnesses["L"] = _first_false(l_mask)

    fa_mask = nab[box] == idx
    fa_flag = bool(fa_mask.all())
    fa_surj = len(set(int(v) for v in nab)) == n
    fa_iii = bool((meet[idx[:, None], nab[arr]] == meet).all())
    # arrow(c, a) <= arrow(c, b) implies c & a <= b, indexed [a, b, c]
    arr_t = arr.T
    fa_iv = bool((~leq[arr_t[:, None, :], arr_t[None, :, :]]
                  | leq[meet[:, None, :], idx[None, :, None]]).all())
    fa_v = bool((~leq[box[:, None], box[None, :]] | leq).all())
    ensure(fa_flag == fa_surj == fa_iii == fa_v, "faithfulness characterizations disagree")
    ensure(fa_flag == fa_iv, "faithfulness cancellation characterization disagrees")
    if not fa_flag:
        witnesses["Fa"] = _first_false(fa_mask)

    fu_mask = box[nab] == idx
    fu_flag = bool(fu_mask.all())
    fu_surj = len(set(int(v) for v in box)) == n
    fu_emb = bool((~leq[nab[:, None], nab[None, :]] | leq).all())
    ensure(fu_flag == fu_surj == fu_emb, "fullness characterizations disagree")
    if not fu_flag:
        witnesses["Fu"] = _first_false(fu_mask)

    profile = PropertyProfile(D=d, H=h, N=n_flag, R=r_flag, L=l_flag,
                              Fa=fa_flag, Fu=fu_flag, witnesses=witnesses)
    if fa_flag:
        ensure(int(nab[lat.top]) == lat.top, "faithful algebras must fix the top under nabla")
        ensure(((arr == lat.top) == leq).all(),
               "on faithful algebras arrow(a, b) = top iff a <= b")
        ensure(alg.heyting is not None and (nab[arr] == alg.heyting).all(),
               "on faithful algebras nabla(arrow) must be the Heyting table")
    alg._profile = profile
    return profile


@dataclass(frozen=True)
class StrongAlgebraCandidate:
    """A bare arrow table over a lattice; nothing validated at construction."""

    lat: FiniteLattice
    arrow: np.ndarray


IMPLICATION_LAWS = {
    "antitone-first": "a' <= a implies arrow(a, b) <= arrow(a', b)",
    "monotone-second": "b <= b' implies arrow(a, b) <= arrow(a, b')",
    "reflexivity": "arrow(a, a) = top",
    "transitivity": "arrow(a, b) & arrow(b, c) <= arrow(a, c)",
}


@dataclass(frozen=True)
class ImplicationReport:
    ok: bool
    violations: tuple
    meet_internalizing: bool
    join_internalizing: bool
    internalizing_witnesses: dict = field(default_factory=dict, compare=False)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [v.to_json() for v in self.violations],
            "meet_internalizing": self.meet_internalizing,
            "join_internalizing": self.join_internalizing,
        }


def check_implication_axioms(cand: StrongAlgebraCandidate) -> ImplicationReport:
    """Order behavior, internal reflexivity and transitivity, plus the two
    internalization flags (meet in the second argument, join in the first)."""
    lat = cand.lat
    arr = np.asarray(cand.arrow, dtype=np.int64)
    n = lat.n
    if arr.shape != (n, n) or arr.min() < 0 or arr.max() >= n:
        raise ShapeError("arrow table has wrong shape or entries out of range")
    idx = np.arange(n)
    leq, meet, join = lat.leq, lat.meet, lat.join
    violations = []

    # anti[a', a, b]: a' <= a implies arrow(a, b) <= arrow(a', b)
    anti = ~leq[:, :, None] | leq[arr[None, :, :], arr[:, None, :]]
    if not anti.all():
        ap, a, b = _first_false(anti)
        violations.append(Violation("antitone-first", (ap, a, b)))

    mono = ~leq[None, :, :] | leq[arr[:, :, None], arr[:, None, :]]
    if not mono.all():
        a, b, bp = _first_false(mono)
        violations.append(Violation("monotone-second", (a, b, bp)))

    refl = arr[idx, idx] == lat.top
    if not refl.all():
        violations.append(Violation("reflexivity", (int(np.flatnonzero(~refl)[0]),)))

    trans = leq[meet[arr[:, :, None], arr[None, :, :]], arr[:, None, :]]
    if not trans.all():
        violations.append(Violation("transitivity", _first_false(trans)))

    iw = {}
    mi = arr[idx[:, None, None], meet[None, :, :]] == meet[arr[:, :, None], arr[:, None, :]]
    meet_int = bool(mi.all())
    if not meet_int:
        iw["meet"] = _first_false(mi)
    # ji[a, b, c]: arrow(a | b, c) == arrow(a, c) & arrow(b, c)
    ji = arr[join[:, :, None], idx[None, None, :]] == meet[arr[:, None, :], arr[None, :, :]]
    join_int = bool(ji.all())
    if not join_int:
        iw["join"] = _first_false(ji)

    return ImplicationReport(ok=not violations, violations=tuple(violations),
                             meet_internalizing=meet_int, join_internalizing=join_int,
                             internalizing_witnesses=iw)


@dataclass(frozen=True)
class AdjointSearch:
    """Outcome of looking for a nabla turning a strong candidate into a valid pair."""

    found: bool
    nabla: object = None
    witness: tuple = None
    reason: str = ""

    def to_json(self) -> dict:
        return {
            "ok": self.found,
            "nabla": None if self.nabla is None else [int(v) for v in self.nabla],
            "witness": None if self.witness is None else [int(v) for v in self.witness],
            "reason": self.reason,
        }


def nabla_from_strong(cand: StrongAlgebraCandidate) -> AdjointSearch:
    """Decide whether some nabla residuates the candidate arrow.

    On a finite distributive lattice this holds exactly when box = arrow(top, -)
    preserves all meets and arrow(b, c) = box(b => c) for the Heyting table =>;
    the witness pair reports the first failure.  When the test passes, the
    left adjoint of box is recovered by minimum search and the assembled
    algebra is re-validated.
    """
    lat = cand.lat
    if not is_distributive(lat):
        raise NotDistributive("adjoint search needs a distributive lattice")
    arr = np.asarray(cand.arrow, dtype=np.int64)
    if arr.shape != (lat.n, lat.n) or arr.min() < 0 or arr.max() >= lat.n:
        raise ShapeError("arrow table has wrong shape or entries out of range")
    box = arr[lat.top]
    if int(box[lat.top]) != lat.top:
        return AdjointSearch(False, witness=(lat.top,), reason="box must fix top")
    bm = box[lat.meet] == lat.meet[box[:, None], box[None, :]]
    if not bm.all():
        return AdjointSearch(False, witness=_first_false(bm),
                             reason="box does not preserve binary meets")
    hey = heyting_table(lat)
    ok = arr == box[hey]
    if not ok.all():
        return AdjointSearch(False, witness=_first_false(ok),
                             reason="arrow differs from boxed Heyting implication")
    # box preserves meets, so {b : a <= box(b)} has a minimum: the adjoint value
    nabla, found = _greatest(lat.leq.T, lat.leq[:, box].T)
    ensure(found.all(), "meet-preserving box must admit a pointwise adjoint")
    alg = build_algebra(lat, nabla, arr)
    return AdjointSearch(True, nabla=alg.nabla)


@dataclass(frozen=True)
class AlgebraMorphism:
    """Index map between algebras; ``preserves_heyting`` is a claim to verify."""

    source: NablaAlgebra = field(compare=False, repr=False)
    target: NablaAlgebra = field(compare=False, repr=False)
    map: tuple = ()
    preserves_heyting: bool = False


@dataclass(frozen=True)
class MorphismReport:
    ok: bool
    violations: tuple
    injective: bool
    heyting_checked: bool

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [v.to_json() for v in self.violations],
            "injective": self.injective,
            "heyting_checked": self.heyting_checked,
        }


def check_morphism(m: AlgebraMorphism) -> MorphismReport:
    """Verify preservation of bounds, meet, join, nabla, arrow (and the Heyting
    table when claimed); injectivity is reported, not required."""
    src, tgt = m.source, m.target
    f = np.asarray(m.map, dtype=np.int64)
    if f.shape != (src.n,):
        raise ShapeError(f"map must have length {src.n}")
    if src.n and (f.min() < 0 or f.max() >= tgt.n):
        raise ShapeError("map entries out of range")
    violations = []

    def bad(law, mask):
        if mask is True or bool(np.all(mask)):
            return
        if mask is False:
            violations.append(Violation(law, ()))
        else:
            violations.append(Violation(law, _first_false(np.asarray(mask))))

    bad("zero", int(f[src.lat.bot]) == tgt.lat.bot)
    bad("one", int(f[src.lat.top]) == tgt.lat.top)
    bad("meet", f[src.lat.meet] == tgt.lat.meet[f[:, None], f[None, :]])
    bad("join", f[src.lat.join] == tgt.lat.join[f[:, None], f[None, :]])
    bad("nabla", f[src.nabla] == tgt.nabla[f])
    bad("arrow", f[src.arrow] == tgt.arrow[f[:, None], f[None, :]])
    heyting_checked = False
    if m.preserves_heyting:
        if src.heyting is None or tgt.heyting is None:
            violations.append(Violation("heyting", ()))
        else:
            heyting_checked = True
            bad("heyting", f[src.heyting] == tgt.heyting[f[:, None], f[None, :]])
    injective = len(set(int(v) for v in f)) == src.n
    return MorphismReport(ok=not violations, violations=tuple(violations),
                          injective=injective, heyting_checked=heyting_checked)


def compose_morphisms(outer: AlgebraMorphism, inner: AlgebraMorphism) -> AlgebraMorphism:
    ensure(tables_equal(inner.target, outer.source),
           "composition needs matching middle algebra")
    comp = tuple(int(outer.map[v]) for v in inner.map)
    return AlgebraMorphism(source=inner.source, target=outer.target, map=comp,
                           preserves_heyting=inner.preserves_heyting and outer.preserves_heyting)


def identity_morphism(alg: NablaAlgebra, heyting: bool = False) -> AlgebraMorphism:
    return AlgebraMorphism(source=alg, target=alg, map=tuple(range(alg.n)),
                           preserves_heyting=heyting)


def tables_equal(a: NablaAlgebra, b: NablaAlgebra) -> bool:
    return (a.n == b.n and (a.lat.leq == b.lat.leq).all()
            and (a.nabla == b.nabla).all() and (a.arrow == b.arrow).all())


def algebra_iso(a: NablaAlgebra, b: NablaAlgebra):
    """An isomorphism map tuple or None.

    The lattice backtracker, with nabla's fixpoints added to the signatures
    and nabla and arrow checked on every complete map.
    """
    def sigs(alg):
        return [s + (int(alg.nabla[i] == i),) for i, s in enumerate(_signatures(alg.lat.leq))]

    def accept(f):
        return bool((f[a.nabla] == b.nabla[f]).all()
                    and (f[a.arrow] == b.arrow[f[:, None], f[None, :]]).all())

    return _order_iso(a.lat.leq, b.lat.leq, sigs(a), sigs(b), accept)
