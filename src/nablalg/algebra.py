"""Lattices carrying a modal pair (nabla, arrow) tied by residuation.

The defining law is the adjunction

    nabla(c) & a <= b   iff   c <= arrow(a, b)        for all a, b, c.

``box`` is the derived unary operation ``box(a) = arrow(top, a)``; it is the
right adjoint of ``nabla``.  Two independent validators exist: the direct
adjunction scan (``build_algebra``) and the equational laws
(``check_equational_axioms``); they must agree on every input, which the
test harness verifies exhaustively at small sizes.

Every checker here, in ``kripke`` and in ``congruence`` states its laws as
named boolean masks, true where the law holds, and ``_violations`` turns the
failing ones into witnesses: the first false entry in row-major order.  Index
tables from callers are checked for shape and range by ``_indices``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

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
    """The failed laws of a check; it passes when none failed.  Subclasses add
    fields, and ``to_json`` reports every compared field."""

    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        out.update(ok=self.ok, violations=[v.to_json() for v in self.violations])
        return out


def _violations(laws) -> tuple:
    """The failing laws among ``(name, mask)`` and ``(name, mask, axes)`` entries.

    A mask is true where its law holds; a 0-d mask states a law without
    variables and fails with the witness ().  A failed law's witness is the
    first false entry of its mask in row-major order, with its indices taken
    in ``axes`` order when that is given (a law scanned c-major reports
    (a, b, c)).  A name given several masks reports its first failing one.
    """
    found = {}
    for name, mask, *axes in laws:
        mask = np.asarray(mask)
        if name in found or mask.all():
            continue
        first = np.argwhere(~mask)[0]
        if axes:
            first = first[list(axes[0])]
        found[name] = Violation(name, tuple(int(v) for v in first))
    return tuple(found.values())


def _indices(values, shape: tuple, bound: int, what: str) -> np.ndarray:
    """``values`` as an int64 array of ``shape`` with entries in 0..bound-1."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.shape != shape:
        want = f"length {shape[0]}" if len(shape) == 1 else f"shape {shape}"
        raise ShapeError(f"{what} must have {want}")
    if arr.size and (arr.min() < 0 or arr.max() >= bound):
        raise ShapeError(f"{what} entries out of range")
    return arr


def _preserves(f: np.ndarray, src_op: np.ndarray, tgt_op: np.ndarray) -> np.ndarray:
    """[a, b]: f(a op b) = f(a) op' f(b)."""
    return f[src_op] == tgt_op[f[:, None], f[None, :]]


def _antitone_first(leq: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """[a', a, b]: a' <= a implies arrow(a, b) <= arrow(a', b)."""
    return ~leq[:, :, None] | leq[arr[None, :, :], arr[:, None, :]]


def _monotone_second(leq: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """[a, b, b']: b <= b' implies arrow(a, b) <= arrow(a, b')."""
    return ~leq[None, :, :] | leq[arr[:, :, None], arr[:, None, :]]


def _detachment(lat: FiniteLattice, nab: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """[a, b]: a & nabla(arrow(a, b)) <= b."""
    idx = np.arange(lat.n)
    return lat.leq[lat.meet[idx[:, None], nab[arr]], idx[None, :]]


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
    n = lat.n
    return _indices(nabla, (n,), n, "nabla table"), _indices(arrow, (n, n), n, "arrow table")


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
    # scanned a-major: the first (a, b, c) in lexicographic order
    failed = _violations([("residuation", (left == right).transpose(1, 2, 0))])
    if failed:
        a, b, c = failed[0].witness
        direction = "forward" if left[c, a, b] else "backward"
        raise AdjunctionFailure(a, b, c, direction)
    alg = NablaAlgebra(lat, nab.copy(), arr.copy())
    _check_derived_laws(alg)
    return alg


def _check_derived_laws(alg: NablaAlgebra) -> None:
    lat, nab, arr, box = alg.lat, alg.nabla, alg.arrow, alg.box
    leq = lat.leq
    ensure((~leq | leq[nab][:, nab]).all(), "nabla must be order-preserving")
    ensure(_monotone_second(leq, arr).all(),
           "arrow must be order-preserving in its second argument")
    ensure(_antitone_first(leq, arr).all(), "arrow must be antitone in its first argument")
    ensure(int(nab[lat.bot]) == lat.bot, "nabla must send bottom to bottom")
    ensure(_preserves(nab, lat.join, lat.join).all(), "nabla must preserve binary joins")
    ensure(int(box[lat.top]) == lat.top, "box must send top to top")
    ensure(_preserves(box, lat.meet, lat.meet).all(), "box must preserve binary meets")
    idx = np.arange(lat.n)
    ensure(_detachment(lat, nab, arr).all(), "a & nabla(arrow(a, b)) <= b must hold")
    ensure(leq[nab[box], idx].all(), "nabla(box(a)) <= a must hold")
    ensure(leq[idx, box[nab]].all(), "a <= box(nabla(a)) must hold")


def derive_arrow(lat: FiniteLattice, nabla):
    """The unique arrow residuating the given nabla, or None when there is none.

    Searches max{c : nabla(c) & a <= b} per pair and then re-validates the
    full adjunction; the re-check matters because an arbitrary nabla table
    can admit all the maxima yet break residuation (for instance when it is
    not order-preserving).
    """
    nab = _indices(nabla, (lat.n,), lat.n, "nabla table")
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
    idx = np.arange(lat.n)
    leq, meet = lat.leq, lat.meet
    # inner[c, a, b] = arrow(nabla(c) & a, b)
    inner = arr[meet[nab], :]
    return LawReport(_violations([
        ("meet-arrow-top", arr[meet, idx[:, None]] == lat.top),
        ("nabla-meet", leq[nab[meet], meet[nab[:, None], nab[None, :]]]),
        ("detachment", _detachment(lat, nab, arr)),
        # scanned c-major, reported as (a, b, c)
        ("shift", leq[meet[idx[:, None, None], inner], arr[None, :, :]], (1, 2, 0)),
    ]))


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

    witnesses.update((v.law, v.witness) for v in _violations([
        # N: nabla preserves the empty meet top, then binary meets
        ("N", (nab == idx) | (idx != lat.top)),
        ("N", _preserves(nab, meet, meet)),
        ("R", leq[idx, nab]),
        ("L", leq[nab, idx]),
        ("Fa", nab[box] == idx),
        ("Fu", box[nab] == idx),
    ]))
    n_flag, r_flag, l_flag, fa_flag, fu_flag = (
        name not in witnesses for name in ("N", "R", "L", "Fa", "Fu"))

    r_alt1 = bool(leq[meet[idx[:, None], arr], idx[None, :]].all())
    r_alt2 = bool(leq[box, idx].all())
    ensure(r_flag == r_alt1 == r_alt2, "right-condition characterizations disagree")

    # c & a <= b implies c <= arrow(a, b), both sides indexed [c, a, b]
    l_alt1 = bool((~leq[meet] | leq[:, arr]).all())
    l_alt2 = bool(leq[idx, box].all())
    ensure(l_flag == l_alt1 == l_alt2, "left-condition characterizations disagree")

    fa_surj = len(set(int(v) for v in nab)) == n
    fa_iii = bool((meet[idx[:, None], nab[arr]] == meet).all())
    # arrow(c, a) <= arrow(c, b) implies c & a <= b, indexed [a, b, c]
    arr_t = arr.T
    fa_iv = bool((~leq[arr_t[:, None, :], arr_t[None, :, :]]
                  | leq[meet[:, None, :], idx[None, :, None]]).all())
    fa_v = bool((~leq[box[:, None], box[None, :]] | leq).all())
    ensure(fa_flag == fa_surj == fa_iii == fa_v, "faithfulness characterizations disagree")
    ensure(fa_flag == fa_iv, "faithfulness cancellation characterization disagrees")

    fu_surj = len(set(int(v) for v in box)) == n
    fu_emb = bool((~leq[nab[:, None], nab[None, :]] | leq).all())
    ensure(fu_flag == fu_surj == fu_emb, "fullness characterizations disagree")

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
class ImplicationReport(LawReport):
    meet_internalizing: bool
    join_internalizing: bool
    internalizing_witnesses: dict = field(default_factory=dict, compare=False)


def check_implication_axioms(cand: StrongAlgebraCandidate) -> ImplicationReport:
    """Order behavior, internal reflexivity and transitivity, plus the two
    internalization flags (meet in the second argument, join in the first)."""
    lat = cand.lat
    n = lat.n
    arr = _indices(cand.arrow, (n, n), n, "arrow table")
    idx = np.arange(n)
    leq, meet, join = lat.leq, lat.meet, lat.join
    violations = _violations([
        ("antitone-first", _antitone_first(leq, arr)),
        ("monotone-second", _monotone_second(leq, arr)),
        ("reflexivity", arr[idx, idx] == lat.top),
        ("transitivity", leq[meet[arr[:, :, None], arr[None, :, :]], arr[:, None, :]]),
    ])
    iw = {v.law: v.witness for v in _violations([
        # [a, b, c]: arrow(a, b & c) == arrow(a, b) & arrow(a, c)
        ("meet", arr[idx[:, None, None], meet[None, :, :]]
         == meet[arr[:, :, None], arr[:, None, :]]),
        # [a, b, c]: arrow(a | b, c) == arrow(a, c) & arrow(b, c)
        ("join", arr[join[:, :, None], idx[None, None, :]]
         == meet[arr[:, None, :], arr[None, :, :]]),
    ])}
    return ImplicationReport(violations, meet_internalizing="meet" not in iw,
                             join_internalizing="join" not in iw, internalizing_witnesses=iw)


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
    arr = _indices(cand.arrow, (lat.n, lat.n), lat.n, "arrow table")
    idx = np.arange(lat.n)
    box = arr[lat.top]
    failed = _violations([
        ("box must fix top", (box == idx) | (idx != lat.top)),
        ("box does not preserve binary meets", _preserves(box, lat.meet, lat.meet)),
        ("arrow differs from boxed Heyting implication", arr == box[heyting_table(lat)]),
    ])
    if failed:
        return AdjointSearch(False, witness=failed[0].witness, reason=failed[0].law)
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
class MorphismReport(LawReport):
    injective: bool
    heyting_checked: bool


def check_morphism(m: AlgebraMorphism) -> MorphismReport:
    """Verify preservation of bounds, meet, join, nabla, arrow (and the Heyting
    table when claimed); injectivity is reported, not required."""
    src, tgt = m.source, m.target
    f = _indices(m.map, (src.n,), tgt.n, "map")
    laws = [
        ("zero", f[src.lat.bot] == tgt.lat.bot),
        ("one", f[src.lat.top] == tgt.lat.top),
        ("meet", _preserves(f, src.lat.meet, tgt.lat.meet)),
        ("join", _preserves(f, src.lat.join, tgt.lat.join)),
        ("nabla", f[src.nabla] == tgt.nabla[f]),
        ("arrow", _preserves(f, src.arrow, tgt.arrow)),
    ]
    heyting_checked = bool(m.preserves_heyting
                           and src.heyting is not None and tgt.heyting is not None)
    if m.preserves_heyting:
        # the claim fails outright when either side lacks the Heyting table
        laws.append(("heyting", heyting_checked
                     and _preserves(f, src.heyting, tgt.heyting)))
    return MorphismReport(_violations(laws), injective=len(set(int(v) for v in f)) == src.n,
                          heyting_checked=heyting_checked)


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
        return bool((f[a.nabla] == b.nabla[f]).all() and _preserves(f, a.arrow, b.arrow).all())

    return _order_iso(a.lat.leq, b.lat.leq, sigs(a), sigs(b), accept)
