"""Lattices carrying a modal pair (nabla, arrow) tied by residuation.

The defining law is the adjunction

    nabla(c) & a <= b   iff   c <= arrow(a, b)        for all a, b, c.

``box`` is the derived unary operation ``box(a) = arrow(top, a)``; it is the
right adjoint of ``nabla``.  Two independent validators exist: the
adjunction itself (``build_algebra``, decided by ``_decided``, with the scan
of all triples naming the first failure) and the equational laws
(``check_equational_axioms``); they must agree on every input, which the
test harness verifies exhaustively at small sizes.

Each adjunction is decided once, by ``_decided``.  A Heyting algebra is the
nabla-algebra whose nabla is the identity, and a residual is unique, so the
identity's pair is residuated iff its arrow is the Heyting table, which the
lattice module decided when it built that table; every other pair
``lattice._residuated`` decides.  Tables from outside (a document or a
caller) go through ``build_algebra``; a construction whose pair is already
decided (``derive_arrow``'s residual of a nabla, as the upset algebra's
arrow is, the completion's relabelling of a decided pair, or the identity
with the Heyting table) hands it to ``_assemble``, the one constructor of a
``NablaAlgebra``, which re-derives only the laws the adjunction forces.  ``gen_trivial``'s pair,
nabla = bottom and arrow = top, needs no decision.  Frames follow the same
rule: ``kripke.build_frame`` validates tables from outside, and the prime
frame and the pullback, frames by construction, go to the ``KripkeFrame``
constructor, which finds the normality witness as ``NablaAlgebra`` derives
its box.  So ``build_algebra`` and ``build_frame`` run only on the tables of
a document.

Every checker here, in ``kripke`` and in ``congruence`` states its laws as
named boolean masks, true where the law holds, and ``lattice._violations``
turns the failing ones into witnesses: the first false entry in row-major
order.  A law over triples is a function of a slice of its first variable,
which ``_violations`` evaluates a slab at a time up to its first failure, so
no report holds an n^3 table: the equational and implication laws, the
internalizing flags, the compatibility inequalities of ``congruence`` and the
scan that names an ``AdjunctionFailure``.  The masks are the one statement
of each checker's laws, and its docstring lists their formulas.  Index
tables and maps from callers are read by ``lattice._indices``, which checks
shape and range and refuses entries that numpy does not read as integers.
The seven flags are listed once, in ``FLAG_NAMES``; a frame carries the
last five and a completion keeps the last six.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import AdjunctionFailure, NotDistributive, ShapeError, ensure
from .lattice import (
    FiniteLattice,
    _adjunction,
    _at,
    _detachment,
    _greatest,
    _indices,
    _kept,
    _monotone,
    _order_iso,
    _residual,
    _residuated,
    _signatures,
    _violations,
    distributivity_witness,
    heyting_table,
    is_distributive,
)


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


def _preserves(f: np.ndarray, src_op: np.ndarray, tgt_op: np.ndarray) -> np.ndarray:
    """[a, b]: f(a op b) = f(a) op' f(b).  op' is re-indexed by f as a row
    take and a column take, the quickest square re-index measured: 0.6 us at
    n = 5 and 10-13 us at n = 96, against 1.9 and 12-14 us for
    ``op'[f][:, f]`` and 1.3 and 29 us for ``op'[f[:, None], f[None, :]]``."""
    return f[src_op] == tgt_op.take(f, axis=0).take(f, axis=1)


class NablaAlgebra:
    """Validated carrier; ``heyting`` is present exactly when the lattice is distributive."""

    __slots__ = ("lat", "nabla", "arrow", "box", "heyting", "_kept")

    def __init__(self, lat: FiniteLattice, nabla: np.ndarray, arrow: np.ndarray):
        self.lat = lat
        nabla.setflags(write=False)
        arrow.setflags(write=False)
        self.nabla = nabla
        self.arrow = arrow
        self.box = arrow[lat.top].copy()
        self.box.setflags(write=False)
        self.heyting = heyting_table(lat)
        self._kept = {}

    @property
    def n(self) -> int:
        return self.lat.n

    @property
    def tables(self) -> tuple:
        """The defining tables, which ``tables_equal`` compares."""
        return self.lat.leq, self.nabla, self.arrow

    def __repr__(self):
        return f"NablaAlgebra(n={self.n}, nabla={tuple(int(v) for v in self.nabla)})"


def _check_tables(lat: FiniteLattice, nabla, arrow):
    n = lat.n
    return _indices(nabla, (n,), n, "nabla table"), _indices(arrow, (n, n), n, "arrow table")


def build_algebra(lat: FiniteLattice, nabla, arrow) -> NablaAlgebra:
    """Validate tables from outside, a document's or a caller's: their shape
    and range, then the adjunction, then ``_assemble``.

    The adjunction is decided by ``_decided``: on the identity nabla by one
    comparison with the Heyting table, elsewhere by ``lattice._residuated``
    in O(n |covers| + n^2) past ``CUBE_MAX`` elements.  Only a failure pays
    for the scan of the triples by ``_violations``, up to the first slab of
    first arguments that fails, which raises :class:`AdjunctionFailure` with
    the lexicographically first bad (a, b, c); a scan that finds none is a
    cross-check failure of whichever route decided.  The same helper decides
    ``derive_arrow``'s candidate, so a library construction that has it
    decided, the upset algebra among them, calls ``_assemble`` directly, as
    the completion does with its relabelling of a decided pair.
    """
    nab, arr = _check_tables(lat, nabla, arrow)
    if not _decided(lat, nab, arr):
        failed = _violations([("residuation", lambda s: _adjunction(lat, nab, arr, s))], lat.n)
        ensure(bool(failed), "residuation characterizations disagree")
        a, b, c = failed[0].witness
        direction = "forward" if lat.leq[lat.meet[nab[c], a], b] else "backward"
        raise AdjunctionFailure(a, b, c, direction)
    return _assemble(lat, nab.copy(), arr.copy())


def _decided(lat: FiniteLattice, nab: np.ndarray, arr: np.ndarray) -> bool:
    """Whether nab(c) & a <= b iff c <= arr(a, b) for all a, b, c.  The
    identity's residual is the Heyting table, decided when the lattice built
    it, so that pair holds iff the table exists and is ``arr``; any other
    pair ``_residuated`` decides."""
    if nab.tolist() == list(range(lat.n)):
        heyting = heyting_table(lat)
        return heyting is not None and np.array_equal(heyting, arr)
    return _residuated(lat, nab, arr)


def _assemble(lat: FiniteLattice, nab: np.ndarray, arr: np.ndarray) -> NablaAlgebra:
    """The algebra of a pair whose adjunction is decided, which it takes
    over (frozen, not copied), with the laws the adjunction forces and
    ``_residuated`` does not decide re-derived as internal cross-checks.
    Nabla's and arrow(a, -)'s monotonicity and detachment ``_residuated``
    decides (up to ``CUBE_MAX``: they follow)."""
    alg = NablaAlgebra(lat, nab, arr)
    box, leq = alg.box, lat.leq
    # row b of arr.T is a -> arrow(a, b)
    ensure(_monotone(leq.T, lat.covers, arr.T), "arrow must be antitone in its first argument")
    ensure(int(nab[lat.bot]) == lat.bot, "nabla must send bottom to bottom")
    ensure(_preserves(nab, lat.join, lat.join).all(), "nabla must preserve binary joins")
    ensure(int(box[lat.top]) == lat.top, "box must send top to top")
    ensure(_preserves(box, lat.meet, lat.meet).all(), "box must preserve binary meets")
    idx = np.arange(lat.n)
    ensure(leq[nab[box], idx].all(), "nabla(box(a)) <= a must hold")
    ensure(leq[idx, box[nab]].all(), "a <= box(nabla(a)) must hold")
    return alg


def derive_arrow(lat: FiniteLattice, nabla):
    """The unique arrow residuating the given nabla, or None when there is none.

    ``lattice._residual`` gives one candidate table at every size: where the
    lattice has a Heyting table, box(a -> b) from the kept table, for box the
    right adjoint of nabla, O(n^2); elsewhere the join of the
    join-irreducibles j with nabla(j) & a <= b, O(n^2 |J|).  Then
    ``_decided``, the predicate of ``build_algebra``, decides it: the
    adjunction determines the arrow, so a candidate that passes is the
    residual, and where there is none every candidate fails (a box can exist
    for a nabla that is not order-preserving).  On the identity nabla one
    comparison with the Heyting table decides it.
    """
    nab = _indices(nabla, (lat.n,), lat.n, "nabla table")
    arrow = _residual(lat, nab)
    return arrow if _decided(lat, nab, arrow) else None


def check_equational_axioms(lat: FiniteLattice, nabla, arrow) -> LawReport:
    """Evaluate the four equational laws over all tuples, each a named mask:

        meet-arrow-top   arrow(a & b, a) = top
        nabla-meet       nabla(a & b) <= nabla(a) & nabla(b)
        detachment       a & nabla(arrow(a, b)) <= b
        shift            c & arrow(nabla(c) & a, b) <= arrow(a, b)

    The laws axiomatize exactly the algebras accepted by ``build_algebra``;
    the harness checks that equivalence with zero discrepancies.
    """
    nab, arr = _check_tables(lat, nabla, arrow)
    n, idx = lat.n, np.arange(lat.n)
    leq, meet = lat.leq, lat.meet

    def shift(s):
        # [c, a, b]: c & arrow(nabla(c) & a, b) <= arrow(a, b), as two flat
        # gathers (`lattice._at`) whose positions are formed in place; on the
        # Heyting Boolean 2^8 and 256-chain the report took 161-212 ms so and
        # 225-327 ms by two-index gathers (one core, 3 runs each, slabs of
        # 2^18 entries)
        pos = arr[meet[nab[s]]]
        pos += idx[s, None, None] * n
        pos = meet.ravel().take(pos) * n
        pos += arr
        return leq.ravel().take(pos)

    return LawReport(_violations([
        ("meet-arrow-top", _at(arr, meet, idx[:, None]) == lat.top),
        ("nabla-meet", _at(leq, nab[meet], meet.take(nab, axis=0).take(nab, axis=1))),
        ("detachment", _detachment(lat, nab, arr)),
        # scanned c-major, reported as (a, b, c)
        ("shift", shift, (1, 2, 0)),
    ], n))


FLAG_NAMES = ("D", "H", "N", "R", "L", "Fa", "Fu")


class _FlagProfile:
    """``flags()`` and ``has()`` over the flag names that ``FLAGS`` lists."""

    FLAGS = ()

    def flags(self) -> frozenset:
        return frozenset(name for name in self.FLAGS if getattr(self, name))

    def has(self, *names) -> bool:
        return all(getattr(self, name) for name in names)


@dataclass(frozen=True)
class PropertyProfile(_FlagProfile):
    """Classification flags with a counterexample tuple for every false flag."""

    FLAGS = FLAG_NAMES

    D: bool
    H: bool
    N: bool
    R: bool
    L: bool
    Fa: bool
    Fu: bool
    witnesses: dict = field(compare=False)

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
    library bug immediately rather than a wrong flag.  The two that quantify
    over three elements are restated over pairs by lemmas of the adjunction
    that ``build_algebra`` validated (see their comments), so every check
    costs O(n^2).
    """
    return _kept(alg, _build_profile)


def _build_profile(alg: NablaAlgebra) -> PropertyProfile:
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
    n_flag, r_flag, l_flag, fa_flag, fu_flag = (name not in witnesses for name in FLAG_NAMES[2:])

    # [a, b]: a & arrow(a, b) <= b
    r_alt1 = bool(_at(leq, _at(meet, idx[:, None], arr), idx).all())
    r_alt2 = bool(leq[box, idx].all())
    ensure(r_flag == r_alt1 == r_alt2, "right-condition characterizations disagree")

    # c & a <= b implies c <= arrow(a, b), for all (c, a, b), is
    # c <= arrow(a, c & a) for all (a, c), indexed [a, c], as arrow is
    # monotone in its second argument (validated with the adjunction)
    l_alt1 = bool(_at(leq, idx, _at(arr, idx[:, None], meet)).all())
    l_alt2 = bool(leq[idx, box].all())
    ensure(l_flag == l_alt1 == l_alt2, "left-condition characterizations disagree")

    fa_surj = len(set(nab.tolist())) == n
    fa_iii = bool((_at(meet, idx[:, None], nab[arr]) == meet).all())
    # arrow(c, a) <= arrow(c, b) implies c & a <= b, for all (a, b, c), is
    # arrow(c, -) injective on the elements below c, as arrow(c, a) =
    # arrow(c, c & a) and arrow(c, -) preserves meets: arrow(c, a) <=
    # arrow(c, b) makes arrow(c, c & a & b) = arrow(c, c & a), and
    # injectivity then gives c & a <= b; conversely x, y <= c with one value
    # lie below each other.  One count of the pairs (c, arrow(c, x)), x <= c
    fa_iv = bool(np.bincount((idx[:, None] * n + arr)[leq.T]).max() == 1)
    # box reflects the order
    fa_v = bool((leq.take(box, axis=0).take(box, axis=1) <= leq).all())
    ensure(fa_flag == fa_surj == fa_iii == fa_v, "faithfulness characterizations disagree")
    ensure(fa_flag == fa_iv, "faithfulness cancellation characterization disagrees")

    fu_surj = len(set(box.tolist())) == n
    # nabla reflects the order
    fu_emb = bool((leq.take(nab, axis=0).take(nab, axis=1) <= leq).all())
    ensure(fu_flag == fu_surj == fu_emb, "fullness characterizations disagree")

    profile = PropertyProfile(D=d, H=h, N=n_flag, R=r_flag, L=l_flag,
                              Fa=fa_flag, Fu=fu_flag, witnesses=witnesses)
    if fa_flag:
        ensure(int(nab[lat.top]) == lat.top, "faithful algebras must fix the top under nabla")
        ensure(((arr == lat.top) == leq).all(),
               "on faithful algebras arrow(a, b) = top iff a <= b")
        ensure(alg.heyting is not None and (nab[arr] == alg.heyting).all(),
               "on faithful algebras nabla(arrow) must be the Heyting table")
    return profile


@dataclass(frozen=True)
class StrongAlgebraCandidate:
    """A bare arrow table over a lattice; nothing validated at construction."""

    lat: FiniteLattice
    arrow: np.ndarray


@dataclass(frozen=True)
class ImplicationReport(LawReport):
    meet_internalizing: bool
    join_internalizing: bool
    internalizing_witnesses: dict = field(default_factory=dict, compare=False)


def check_implication_axioms(cand: StrongAlgebraCandidate) -> ImplicationReport:
    """Order behavior, internal reflexivity and transitivity, each a named
    mask, plus the two internalization flags (meet in the second argument,
    join in the first):

        antitone-first    a' <= a implies arrow(a, b) <= arrow(a', b)
        monotone-second   b <= b' implies arrow(a, b) <= arrow(a, b')
        reflexivity       arrow(a, a) = top
        transitivity      arrow(a, b) & arrow(b, c) <= arrow(a, c)
        meet              arrow(a, b & c) = arrow(a, b) & arrow(a, c)
        join              arrow(a | b, c) = arrow(a, c) & arrow(b, c)
    """
    lat, n = cand.lat, cand.lat.n
    arr = _indices(cand.arrow, (n, n), n, "arrow table")
    leq, meet, join = lat.leq, lat.meet, lat.join
    violations = _violations([
        # [a', a, b]: a' <= a implies arrow(a, b) <= arrow(a', b)
        ("antitone-first", lambda s: ~leq[s, :, None] | _at(leq, arr[None], arr[s, None, :])),
        # [a, b, b']: b <= b' implies arrow(a, b) <= arrow(a, b')
        ("monotone-second", lambda s: ~leq[None] | _at(leq, arr[s, :, None], arr[s, None, :])),
        ("reflexivity", arr.diagonal() == lat.top),
        # [a, b, c]: arrow(a, b) & arrow(b, c) <= arrow(a, c)
        ("transitivity",
         lambda s: _at(leq, _at(meet, arr[s, :, None], arr[None]), arr[s, None, :])),
    ], n)
    iw = {v.law: v.witness for v in _violations([
        # [a, b, c]: arrow(a, b & c) == arrow(a, b) & arrow(a, c)
        ("meet", lambda s: arr[s][:, meet] == _at(meet, arr[s, :, None], arr[s, None, :])),
        # [a, b, c]: arrow(a | b, c) == arrow(a, c) & arrow(b, c)
        ("join", lambda s: arr[join[s]] == _at(meet, arr[s, None, :], arr[None])),
    ], n)}
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
    left adjoint of box is recovered by minimum search, its adjunction with
    the arrow decided by ``_decided``, and the algebra assembled.
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
    ensure(_decided(lat, nabla, arr), "the recovered nabla must residuate the candidate arrow")
    return AdjointSearch(True, nabla=_assemble(lat, nabla.copy(), arr.copy()).nabla)


@dataclass(frozen=True)
class Morphism:
    """Index map between two algebras or two frames; ``preserves_heyting`` is
    a claim to verify.  Its law report is kept on it, so ``map`` is frozen as
    a tuple, and ``dataclasses.replace`` starts with nothing kept.  A map
    that numpy does not read as one row (a number, a dict, a set, a table)
    raises ``ShapeError``, where ``tuple`` would read a dict as its keys."""

    source: object = field(compare=False, repr=False)
    target: object = field(compare=False, repr=False)
    map: tuple = ()
    preserves_heyting: bool = False
    _kept: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if np.ndim(self.map) != 1:
            raise ShapeError("map must be a sequence or a 1-d array")
        object.__setattr__(self, "map", tuple(self.map))


class AlgebraMorphism(Morphism):
    """Index map between algebras; the claim is that it preserves the Heyting table."""


@dataclass(frozen=True)
class MorphismReport(LawReport):
    injective: bool
    heyting_checked: bool


def check_morphism(m: AlgebraMorphism) -> MorphismReport:
    """Verify preservation of bounds, meet, join, nabla, arrow (and the Heyting
    table when claimed); injectivity is reported, not required.  Kept on m."""
    return _kept(m, _build_morphism_report)


def _build_morphism_report(m: AlgebraMorphism) -> MorphismReport:
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
    return MorphismReport(_violations(laws), injective=len(set(f.tolist())) == src.n,
                          heyting_checked=heyting_checked)


def compose_morphisms(outer: Morphism, inner: Morphism) -> Morphism:
    """``outer`` after ``inner``, two algebra or two frame morphisms."""
    ensure(tables_equal(inner.target, outer.source),
           "composition needs matching middle structure")
    return replace(inner, target=outer.target, map=tuple(int(outer.map[v]) for v in inner.map),
                   preserves_heyting=inner.preserves_heyting and outer.preserves_heyting)


def identity_morphism(alg: NablaAlgebra, heyting: bool = False) -> AlgebraMorphism:
    return AlgebraMorphism(source=alg, target=alg, map=tuple(range(alg.n)),
                           preserves_heyting=heyting)


def tables_equal(a, b) -> bool:
    """Whether two algebras or two frames have equal defining tables; an
    algebra and a frame never do."""
    return type(a) is type(b) and all(np.array_equal(x, y) for x, y in zip(a.tables, b.tables))


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
