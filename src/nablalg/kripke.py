"""Kripke frames and the two functors linking them to distributive algebras.

A frame is a poset of worlds with a second relation R compatible with the
order (le ; R ; le stays inside R).  A frame is normal when R is
represented by an order-preserving witness pi via (x, y) in R iff
x <= pi(y); since that forces pi(y) to be the maximum of the R-column of
y, column maxima are the only candidates and witness detection is exact.

``upset_algebra`` sends a frame to the algebra of its upsets with

    nabla(U) = {x : some y in U has (y, x) in R}
    arrow(U, V) = {x : every R-successor of x inside U lies in V}

and ``prime_frame`` sends a distributive algebra to its prime filters
ordered by inclusion, with (P, Q) in R iff the nabla image of P lands in
Q; the characterization is cross-checked on every call against the
definitional form (arrow(a, b) in P and a in Q force b in Q).  The two
directions compose into the finite representation: the membership map
``canonical_frame_embedding`` is an isomorphism on finite distributive
carriers.  Pullbacks of surjective frame morphisms implement the
amalgamation of embedding spans.  The amalgam is the upset algebra of the
pullback of the prime frames; a leg, ``inverse_image_morphism`` after
``canonical_frame_embedding``, sends a to the pullback worlds whose
projection is a prime filter holding a, and is read off the prime-filter
rows directly, so an amalgamation builds one upset algebra.

Each fact about a frame is decided once.  ``build_frame`` validates tables
from outside, a document's or a caller's: the order is a partial order, and
the relation has its shape and is compatible with it.  The prime frame and
the pullback are frames by construction and go to the ``KripkeFrame``
constructor directly.  The prime frame's order is q <= p on the generators
of the prime filters, an order on them, and its relation q <= nabla(p) is
compatible with it because nabla is monotone.  The pullback's order and
relation are componentwise, so they inherit both facts from the frames
they pair.  The constructor finds the normality witness of every frame.
What a construction derives is still cross-checked where it is derived:
the prime frame's two relation characterizations and its flag transfers,
and the pullback's witness and flag class.

Both functors work by their characterizations, with no product of a family
against all pairs (Davey & Priestley, *Introduction to Lattices and Order*,
ch. 5 and 7).  A family of upsets or of prime filters is one k x n boolean
membership matrix, row i holding set i.  Upsets: nabla(U), the OR of U's
R-rows, is one relational product (the lattice module's ``_compose``), and
arrow(U, V) is the residual of nabla on the upset lattice, which
``derive_arrow`` finds as box o Heyting.  Prime filters: each is [p) for a
join-prime p, and the rest is the principal ideal (k(p)], k(p) the greatest
element not above p (the lattice module's ``_primes``).  So the order, the
relation and the definitional form are k x k tables read off the generators
by gathers: P inside Q iff q <= p, (P, Q) in R iff q <= nabla(p), and the
definitional form fails iff p <= arrow(q, k(q)).  A computed set is looked
up among the family's rows by its packed bits.  Each functor keeps its
result on its immutable input through the lattice module's ``_kept``: the
prime frame on the algebra and the upset algebra (with its upset family) on
the frame, so a pipeline that meets an input again reuses what was built;
nothing is cached at module level.
Morphism reports are kept on the morphism, so one amalgamation checks each
of its morphisms once though several stages require them valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    FLAG_NAMES,
    AlgebraMorphism,
    LawReport,
    Morphism,
    NablaAlgebra,
    _FlagProfile,
    _assemble,
    check_morphism,
    classify,
    derive_arrow,
    tables_equal,
)
from .errors import (
    InvalidMorphism,
    NotCompatible,
    NotDistributive,
    NotEmbedding,
    NotKripkeMorphism,
    NotNormal,
    NotSurjective,
    ShapeError,
    ensure,
)
from .lattice import (
    _compose,
    _greatest,
    _indices,
    _kept,
    _locate,
    _prime_rows,
    _primes,
    _upset_family,
    _violations,
    validate_partial_order,
)

FRAME_FLAGS = FLAG_NAMES[2:]


class KripkeFrame:
    """Worlds 0..n-1 with order ``leq`` and compatible relation ``r``.

    The one constructor of a frame.  It takes over (frozen, not copied) a
    pair whose order and compatibility are decided, and finds the normality
    witness itself, as ``NablaAlgebra`` derives its box: ``build_frame``
    hands it tables from outside once it has checked them, and the prime
    frame and the pullback hand it tables that are a frame by construction.
    """

    __slots__ = ("n", "leq", "r", "pi", "pi_failure", "_kept")

    def __init__(self, leq: np.ndarray, r: np.ndarray):
        self.n = int(leq.shape[0])
        leq.setflags(write=False)
        r.setflags(write=False)
        self.leq = leq
        self.r = r
        self.pi, self.pi_failure = _detect_pi(leq, r)
        self._kept = {}

    @property
    def tables(self) -> tuple:
        """The defining tables, which ``algebra.tables_equal`` compares."""
        return self.leq, self.r

    def __repr__(self):
        return f"KripkeFrame(n={self.n})"


def build_frame(leq, r) -> KripkeFrame:
    """Validate tables from outside, a document's or a caller's: the order is
    a partial order, the relation has its shape and is compatible with it;
    then ``KripkeFrame``, which detects the normality witness."""
    order = validate_partial_order(leq)
    rel = np.asarray(r, dtype=bool)
    if rel.shape != order.shape:
        raise ShapeError("order and relation must have the same shape")
    closed = _compose(_compose(order, rel), order)
    failed = _violations([("compatible", rel | ~closed)])
    if failed:
        kp, lp = failed[0].witness
        # the first chain k' <= k, (k, l) in R, l <= l' in row-major (k, l)
        k, l = _violations([("chain", ~(order[kp][:, None] & rel & order[:, lp]))])[0].witness
        witness = (kp, k, l, lp)
        raise NotCompatible(f"relation not compatible with order at {witness}",
                            witness=witness)
    return KripkeFrame(order.copy(), rel.copy())


def _detect_pi(order: np.ndarray, rel: np.ndarray):
    """pi(y), the maximum of the R-column of y, when it represents R.

    Otherwise None and the first failure: a column without a maximum, then a
    pi that is not order-preserving or does not reproduce R."""
    if not len(order):      # no column, and no candidate for _greatest to rank
        return np.zeros(0, dtype=np.int64), None
    pi, found = _greatest(order, rel)
    missing = _violations([("column", found)])
    if missing:
        y, = missing[0].witness
        return None, ("no-column-maximum" if rel[:, y].any() else "empty-column", (y,))
    failed = _violations([
        ("witness-not-order-preserving", ~order | order[pi][:, pi]),
        ("witness-does-not-reproduce-relation", rel == order[:, pi]),
    ])
    if failed:
        return None, (failed[0].law, failed[0].witness)
    pi.setflags(write=False)
    return pi, None


@dataclass(frozen=True)
class FrameProfile(_FlagProfile):
    FLAGS = FRAME_FLAGS

    N: bool
    R: bool
    L: bool
    Fa: bool
    Fu: bool
    pi: object = field(compare=False, default=None)
    witnesses: dict = field(compare=False, default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": "frame-profile",
            "flags": {f: bool(getattr(self, f)) for f in FRAME_FLAGS},
            "pi": None if self.pi is None else [int(v) for v in self.pi],
        }


def frame_profile(frame: KripkeFrame) -> FrameProfile:
    """Flags by their defining clauses; on normal frames the witness-based
    restatements are evaluated too and must agree."""
    return _kept(frame, _build_frame_profile)


def _build_frame_profile(frame: KripkeFrame) -> FrameProfile:
    n, leq, r = frame.n, frame.leq, frame.r
    witnesses = {} if frame.pi is not None else {"N": frame.pi_failure}
    witnesses.update((v.law, v.witness) for v in _violations([
        ("R", ~leq | r),
        ("L", ~r | leq),
        # Fa: x has an R-predecessor y whose R-successors all lie in [x);
        # they form an upset holding x, so some R-row is [x)
        ("Fa", _locate(r, leq)[1]),
        # Fu: x has an R-successor y whose R-predecessors all lie in (x];
        # they form a down-set holding x, so some R-column is (x]
        ("Fu", _locate(r.T, leq.T)[1]),
    ]))
    n_flag, r_flag, l_flag, fa_flag, fu_flag = (f not in witnesses for f in FRAME_FLAGS)
    profile = FrameProfile(N=n_flag, R=r_flag, L=l_flag, Fa=fa_flag, Fu=fu_flag,
                           pi=frame.pi, witnesses=witnesses)
    if n_flag:
        pi = frame.pi
        idx = np.arange(n)
        ensure(r_flag == bool(leq[idx, pi].all()),
               "reflexivity must match w <= pi(w) on normal frames")
        ensure(l_flag == bool(leq[pi, idx].all()),
               "sub-order must match pi(w) <= w on normal frames")
        emb = bool((~leq[pi][:, pi] | leq).all())
        ensure(fa_flag == emb, "faithfulness must match pi being an order embedding")
        ensure(fu_flag == (len(set(pi.tolist())) == n),
               "fullness must match pi being surjective")
    return profile


class FrameMorphism(Morphism):
    """World map between frames; the claim is the order-lifting clause."""


@dataclass(frozen=True)
class FrameMorphismReport(LawReport):
    surjective: bool
    heyting_ok: bool


def check_frame_morphism(m: FrameMorphism) -> FrameMorphismReport:
    """Direct quantifier evaluation of the morphism clauses.

    When both frames are normal and the map is order-preserving, the
    witness characterization (pi commutes with the map and successor
    preimages match) is evaluated independently and required to agree with
    the clause-by-clause verdict.  Kept on the morphism.
    """
    return _kept(m, _build_frame_morphism_report)


def _build_frame_morphism_report(m: FrameMorphism) -> FrameMorphismReport:
    src, tgt = m.source, m.target
    f = _indices(m.map, (src.n,), tgt.n, "map")
    # hit[l, u]: f(l) = u, so composing with it takes images
    hit = f[:, None] == np.arange(tgt.n)
    # [k, u]: u is the image of an R-successor of k
    lifted = _compose(src.r, hit)
    laws = [
        ("monotone", ~src.leq | tgt.leq[f][:, f]),
        ("preserves-relation", ~src.r | tgt.r[f][:, f]),
        # every R-successor of f(k) is the image of an R-successor of k
        ("lift-successors", ~tgt.r[f] | lifted),
        # every R-predecessor of f(k) lies below the image of an R-predecessor of k
        ("lift-predecessors", ~tgt.r[:, f].T | _compose(src.r.T, tgt.leq.T[f])),
    ]
    if m.preserves_heyting:
        # every element above f(k) is the image of an element above k
        laws.append(("lift-order", ~tgt.leq[f] | _compose(src.leq, hit)))
    violations = _violations(laws)
    failed = {v.law for v in violations}

    if "monotone" not in failed and src.pi is not None and tgt.pi is not None:
        commutes = bool((f[src.pi] == tgt.pi[f]).all())
        # {lp : f(k) <= pi(lp)} against the images of {l : k <= pi(l)}, the
        # R-successors of k: `_detect_pi` found src.leq[:, src.pi] = src.r
        preimages = bool((tgt.leq[f][:, tgt.pi] == lifted).all())
        relation_ok = failed.isdisjoint(
            {"preserves-relation", "lift-successors", "lift-predecessors"})
        ensure((commutes and preimages) == relation_ok,
               "witness characterization of frame morphisms disagrees with the clauses")

    return FrameMorphismReport(violations, surjective=len(set(f.tolist())) == tgt.n,
                               heyting_ok="lift-order" not in failed)


# --- frames to algebras -------------------------------------------------------


def upset_algebra(frame: KripkeFrame) -> NablaAlgebra:
    """Algebra of upsets; always carries the Heyting table, and every frame
    flag transfers to the corresponding algebra flag (checked).  Built once
    per frame and kept on it."""
    return _kept(frame, _build_upset_algebra)[1]


def _build_upset_algebra(frame: KripkeFrame):
    """The frame's upset family and its upset algebra, built together."""
    fam = _upset_family(frame.leq)     # a partial order: checked or constructed
    # nabla(U): the worlds some member of U relates to, the OR of U's R-rows
    nabla, found = _locate(fam.members, _compose(fam.members, frame.r))
    ensure(found.all(), "relation image of an upset must be an upset")
    # arrow(U, V), the worlds whose R-successors in U lie in V, is an upset,
    # and an upset W lies inside it iff nabla(W) & U lies in V: it is the
    # residual of nabla
    arrow = derive_arrow(fam.lattice, nabla)
    ensure(arrow is not None, "the relation image on upsets must have a residual")
    alg = _assemble(fam.lattice, nabla, arrow)
    missing = frame_profile(frame).flags() - classify(alg).flags()
    ensure(not missing, f"frame flags {sorted(missing)} must transfer to the upset algebra")
    return fam, alg


def inverse_image_morphism(f: FrameMorphism) -> AlgebraMorphism:
    """Preimage map on upsets; contravariant, embedding when f is onto."""
    rep = check_frame_morphism(f)
    if not rep.ok:
        raise NotKripkeMorphism("preimages only respect the pair along a frame morphism",
                                witness=rep.violations[0].witness if rep.violations else None)
    src_fam, src_alg = _kept(f.target, _build_upset_algebra)
    tgt_fam, tgt_alg = _kept(f.source, _build_upset_algebra)
    # x lies in the preimage of U iff f(x) lies in U
    pre = src_fam.members[:, np.asarray(f.map, dtype=np.int64)]
    out, found = _locate(tgt_fam.members, pre)
    ensure(found.all(), "preimage of an upset must be an upset")
    morphism = AlgebraMorphism(source=src_alg, target=tgt_alg,
                               map=tuple(int(v) for v in out),
                               preserves_heyting=bool(f.preserves_heyting and rep.heyting_ok))
    mrep = check_morphism(morphism)
    ensure(mrep.ok, "preimage map must be an algebra morphism")
    if rep.surjective:
        ensure(mrep.injective, "preimages along a surjection must be injective")
    return morphism


# --- algebras to frames -------------------------------------------------------


def prime_frame(alg: NablaAlgebra) -> KripkeFrame:
    """Prime filters under inclusion with the image-containment relation.

    The relation is computed as "nabla image of P inside Q", q <= nabla(p)
    for the generators [p) = P and [q) = Q, and cross-checked against the
    definitional detachment form, p not below arrow(q, k(q)); a mismatch is a
    hard failure, not a report.  Every table is k x k, O(k^2) for k prime
    filters.  Built once per algebra and kept on it.
    """
    return _kept(alg, _build_prime_frame)


def _build_prime_frame(alg: NablaAlgebra) -> KripkeFrame:
    aprof = classify(alg)
    if not aprof.D:
        raise NotDistributive("prime filter frames need a distributive carrier")
    # P = [p) and Q = [q), the i-th and j-th prime filters, with k(q) the
    # greatest element outside Q; every table is k x k, read off by gathers
    gen, kappa = _primes(alg.lat)
    above = alg.lat.leq[gen]                 # above[i, x]: p <= x, x in P
    # P inside Q iff q <= p
    leq = above[:, gen].T
    # nabla maps P into Q iff q <= nabla(p), nabla being monotone
    rel = above[:, alg.nabla[gen]].T
    # no arrow(a, b) in P has a in Q and b outside Q: arrow is antitone in a
    # and monotone in b, and P an upset, so (q, k(q)) is the pair to test
    definitional = ~above[:, alg.arrow[gen, kappa]]
    ensure((rel == definitional).all(),
           "relation characterizations disagree on prime filters")
    # a frame by construction: q <= p orders the prime filters, and for P'
    # inside P and Q inside Q' (p <= p', q' <= q) nabla's monotonicity gives
    # q' <= q <= nabla(p) <= nabla(p'), so the relation is compatible; the
    # transposed gathers are laid out by rows, as the frame's row gathers read
    frame = KripkeFrame(np.ascontiguousarray(leq), np.ascontiguousarray(rel))
    missing = aprof.flags().intersection(FRAME_FLAGS) - frame_profile(frame).flags()
    ensure(not missing, f"algebra flags {sorted(missing)} must transfer to the prime frame")
    return frame


def canonical_frame_embedding(alg: NablaAlgebra) -> AlgebraMorphism:
    """Membership map into the upsets of the prime frame; an isomorphism here
    because every carrier is finite."""
    fam, target = _kept(prime_frame(alg), _build_upset_algebra)
    # row a: the prime filters containing a
    out, found = _locate(fam.members, _prime_rows(alg.lat).T)
    ensure(found.all(), "membership image must be an upset of the prime frame")
    morphism = AlgebraMorphism(source=alg, target=target, map=tuple(int(v) for v in out),
                               preserves_heyting=classify(alg).H)
    rep = check_morphism(morphism)
    ensure(rep.ok and rep.injective, "membership map must be an embedding")
    ensure(alg.n == target.n, "membership map must be onto for finite carriers")
    return morphism


def prime_inverse_morphism(f: AlgebraMorphism) -> FrameMorphism:
    """Preimage map on prime filters; onto when f is injective."""
    for side in (f.source, f.target):
        if not classify(side).D:
            raise NotDistributive("prime preimages need distributive carriers")
    rep = check_morphism(f)
    if not rep.ok:
        raise InvalidMorphism("prime preimages need a validated algebra morphism")
    src_frame = prime_frame(f.target)
    tgt_frame = prime_frame(f.source)
    # x lies in the preimage of Q iff f(x) lies in Q
    pre = _prime_rows(f.target.lat)[:, np.asarray(f.map, dtype=np.int64)]
    out, found = _locate(_prime_rows(f.source.lat), pre)
    ensure(found.all(), "preimage of a prime filter must be prime")
    fm = FrameMorphism(source=src_frame, target=tgt_frame, map=tuple(int(v) for v in out),
                       preserves_heyting=bool(f.preserves_heyting))
    frep = check_frame_morphism(fm)
    ensure(frep.ok, "prime preimage map must be a frame morphism")
    if rep.injective:
        ensure(frep.surjective, "prime preimages along an embedding must be onto")
    return fm


# --- amalgamation -------------------------------------------------------------


AMALGAMATION_FLAGS = frozenset({"R", "L", "Fa"})


def amalgamate_frames(k0: KripkeFrame, k1: KripkeFrame, k2: KripkeFrame,
                      f: FrameMorphism, g: FrameMorphism):
    """Pullback of two surjective frame morphisms onto a shared base.

    Worlds are the pairs agreeing on the base, order and relation are
    componentwise, and the normality witness is the pair of witnesses.
    The class, the flags of {R, L, Fa} that all three frames carry,
    transfers to the pullback, and both projections are surjective frame
    morphisms.
    """
    carried = [frame_profile(k).flags() for k in (k0, k1, k2)]
    if not all("N" in have for have in carried):
        raise NotNormal("amalgamation needs normal frames")
    cls = frozenset.intersection(*carried) & AMALGAMATION_FLAGS
    for name, m, tgt in (("first", f, k1), ("second", g, k2)):
        if not tables_equal(m.target, k0):
            raise InvalidMorphism(f"{name} leg must land in the shared base")
        if not tables_equal(m.source, tgt):
            raise InvalidMorphism(f"{name} leg has the wrong source")
        rep = check_frame_morphism(m)
        if not rep.ok:
            raise InvalidMorphism(f"{name} leg is not a frame morphism")
        if not rep.surjective:
            raise NotSurjective(f"{name} leg must be surjective")

    # worlds: the pairs (y, z) with f(y) = g(z), y-major
    ys, zs = np.nonzero(np.asarray(f.map)[:, None] == np.asarray(g.map)[None, :])
    leq = k1.leq[np.ix_(ys, ys)] & k2.leq[np.ix_(zs, zs)]
    rel = k1.r[np.ix_(ys, ys)] & k2.r[np.ix_(zs, zs)]
    # a frame by construction: order and relation are componentwise, so they
    # inherit the order and the compatibility of k1 and k2 coordinatewise
    pullback = KripkeFrame(leq, rel)
    pprof = frame_profile(pullback)
    ensure(pprof.N, "pullback of normal frames must be normal")
    windex = np.full((k1.n, k2.n), -1, dtype=np.int64)
    windex[ys, zs] = np.arange(len(ys))
    ensure((pullback.pi == windex[k1.pi[ys], k2.pi[zs]]).all(),
           "pullback witness must be the componentwise witness pair")
    ensure(cls <= pprof.flags(), "pullback must inherit the shared flag class")

    heyting = f.preserves_heyting and g.preserves_heyting
    p = FrameMorphism(source=pullback, target=k1,
                      map=tuple(int(y) for y in ys), preserves_heyting=heyting)
    q = FrameMorphism(source=pullback, target=k2,
                      map=tuple(int(z) for z in zs), preserves_heyting=heyting)
    for name, proj in (("first", p), ("second", q)):
        rep = check_frame_morphism(proj)
        ensure(rep.ok, f"{name} projection must be a frame morphism")
        ensure(rep.surjective, f"{name} projection must be surjective")
    ensure(tuple(f.map[v] for v in p.map) == tuple(g.map[v] for v in q.map),
           "projections must commute over the base")
    return pullback, p, q


@dataclass(frozen=True)
class AmalgamationResult:
    b: NablaAlgebra
    g1: AlgebraMorphism
    g2: AlgebraMorphism
    frames: dict = field(compare=False, default_factory=dict)
    projections: tuple = field(compare=False, default=())


def amalgamate_algebras(a0: NablaAlgebra, a1: NablaAlgebra, a2: NablaAlgebra,
                        f1: AlgebraMorphism, f2: AlgebraMorphism,
                        heyting: bool = False) -> AmalgamationResult:
    """Complete a span of embeddings to a commuting square of embeddings.

    Pipeline: prime frames of the three algebras, preimage morphisms of the
    two embeddings (surjective by the embedding/surjection exchange), frame
    pullback and its upsets, the amalgam B.  Leg g_i sends a to the
    pullback worlds whose i-th projection is a prime filter holding a: the
    preimage along the projection of a's membership upset, which is
    ``inverse_image_morphism`` after ``canonical_frame_embedding`` without
    the upset algebras of the legs' prime frames.  It claims the Heyting
    table as that composite does: when the projection claims and lifts the
    order (a_i, being distributive, carries the table).  Every stage re-validates its output; the final square
    is checked to commute exactly and to carry the shared flag class.
    """
    carried = []
    for name, alg in (("a0", a0), ("a1", a1), ("a2", a2)):
        profile = classify(alg)
        carried.append(profile.flags())
        if not profile.N:
            raise NotNormal(f"{name} must be normal")
        if not profile.D:
            raise NotDistributive(f"{name} must be distributive")
    cls = frozenset.intersection(*carried) & AMALGAMATION_FLAGS
    for name, m, tgt in (("f1", f1, a1), ("f2", f2, a2)):
        if not (tables_equal(m.source, a0) and tables_equal(m.target, tgt)):
            raise InvalidMorphism(f"{name} must map the shared algebra into its leg")
        rep = check_morphism(m)
        if not (rep.ok and rep.injective):
            raise NotEmbedding(f"{name} must be a validated embedding")
        if heyting and not (m.preserves_heyting and rep.heyting_checked):
            raise NotEmbedding(f"{name} must preserve the Heyting table")

    k0, k1, k2 = prime_frame(a0), prime_frame(a1), prime_frame(a2)
    pf1 = prime_inverse_morphism(f1)
    pf2 = prime_inverse_morphism(f2)
    pullback, p, q = amalgamate_frames(k0, k1, k2, pf1, pf2)

    fam, b = _kept(pullback, _build_upset_algebra)
    legs = []
    for alg, proj in ((a1, p), (a2, q)):
        # g(a): the pullback worlds whose projection is a prime filter holding a
        rows = _prime_rows(alg.lat).T[:, np.asarray(proj.map, dtype=np.intp)]
        out, found = _locate(fam.members, rows)
        ensure(found.all(), "pulled-back membership row must be an upset of the pullback")
        # the composite's claim: the membership embedding claims H, which every
        # distributive a_i carries, and the preimage map claims what proj lifts
        legs.append(AlgebraMorphism(
            source=alg, target=b, map=tuple(int(v) for v in out),
            preserves_heyting=bool(proj.preserves_heyting
                                   and check_frame_morphism(proj).heyting_ok)))
    g1, g2 = legs

    for name, gm in (("g1", g1), ("g2", g2)):
        rep = check_morphism(gm)
        ensure(rep.ok and rep.injective, f"{name} must be an embedding")
        if heyting:
            ensure(rep.heyting_checked, f"{name} must preserve the Heyting table")
    ensure(tuple(g1.map[v] for v in f1.map) == tuple(g2.map[v] for v in f2.map),
           "the amalgamation square must commute")
    bprof = classify(b)
    ensure(bprof.has("N", "D"), "the amalgam must stay normal and distributive")
    ensure(cls <= bprof.flags(), "the amalgam must carry the shared flag class")
    return AmalgamationResult(
        b=b, g1=g1, g2=g2,
        frames={"k0": k0, "k1": k1, "k2": k2, "pullback": pullback},
        projections=(p, q),
    )
