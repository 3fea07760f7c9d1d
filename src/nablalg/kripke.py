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
amalgamation of embedding spans.

Both functors work on boolean membership matrices: a family of upsets or of
prime filters is one k x n matrix, row i holding set i.  nabla(U) is the OR
of U's R-rows, arrow(U, V) one matrix product of the worlds of U outside V
with the successor rows, and a computed set is looked up among the family's
rows by its packed bits.  Each functor keeps its result on its immutable
input, the prime frame on the algebra and the upset algebra (with its upset
family) on the frame, so a pipeline that meets an input again reuses what
was built; nothing is cached at module level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraMorphism,
    LawReport,
    NablaAlgebra,
    _indices,
    _violations,
    build_algebra,
    check_morphism,
    classify,
    compose_morphisms,
    tables_equal,
)
from .errors import (
    FlagMismatch,
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
from .lattice import _greatest, _locate, _prime_rows, upset_lattice, validate_partial_order

FRAME_FLAGS = ("N", "R", "L", "Fa", "Fu")


class KripkeFrame:
    """Worlds 0..n-1 with order ``leq`` and compatible relation ``r``."""

    __slots__ = ("n", "leq", "r", "pi", "pi_failure", "_profile", "_upsets")

    def __init__(self, leq, r, pi, pi_failure):
        self.n = int(leq.shape[0])
        leq.setflags(write=False)
        r.setflags(write=False)
        self.leq = leq
        self.r = r
        self.pi = pi
        self.pi_failure = pi_failure
        self._profile = None
        self._upsets = None

    def __repr__(self):
        return f"KripkeFrame(n={self.n})"


def build_frame(leq, r) -> KripkeFrame:
    """Validate compatibility and detect the normality witness when it exists."""
    order = validate_partial_order(leq)
    rel = np.asarray(r, dtype=bool)
    if rel.shape != order.shape:
        raise ShapeError("order and relation must have the same shape")
    closed = (order.astype(np.int64) @ rel.astype(np.int64) @ order.astype(np.int64)) > 0
    failed = _violations([("compatible", rel | ~closed)])
    if failed:
        kp, lp = failed[0].witness
        # the first chain k' <= k, (k, l) in R, l <= l' in row-major (k, l)
        k, l = (int(v) for v in np.argwhere(order[kp][:, None] & rel & order[:, lp])[0])
        witness = (kp, k, l, lp)
        raise NotCompatible(f"relation not compatible with order at {witness}",
                            witness=witness)
    pi, failure = _detect_pi(order, rel)
    return KripkeFrame(order.copy(), rel.copy(), pi, failure)


def _detect_pi(order: np.ndarray, rel: np.ndarray):
    """pi(y), the maximum of the R-column of y, when it represents R.

    Otherwise None and the first failure: a column without a maximum, then a
    pi that is not order-preserving or does not reproduce R."""
    if not len(order):      # no column, and no candidate for _greatest to rank
        return np.zeros(0, dtype=np.int64), None
    pi, found = _greatest(order, rel)
    if not found.all():
        y = int(np.argmin(found))
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
class FrameProfile:
    N: bool
    R: bool
    L: bool
    Fa: bool
    Fu: bool
    pi: object = field(compare=False, default=None)
    witnesses: dict = field(compare=False, default_factory=dict)

    def flags(self) -> frozenset:
        return frozenset(f for f in FRAME_FLAGS if getattr(self, f))

    def has(self, *names) -> bool:
        return all(getattr(self, f) for f in names)

    def to_json(self) -> dict:
        return {
            "kind": "frame-profile",
            "flags": {f: bool(getattr(self, f)) for f in FRAME_FLAGS},
            "pi": None if self.pi is None else [int(v) for v in self.pi],
        }


def frame_profile(frame: KripkeFrame) -> FrameProfile:
    """Flags by their defining clauses; on normal frames the witness-based
    restatements are evaluated too and must agree."""
    if frame._profile is not None:
        return frame._profile
    n, leq, r = frame.n, frame.leq, frame.r
    witnesses = {} if frame.pi is not None else {"N": frame.pi_failure}
    # beside[y, x] counts the R-successors of y outside [x), and
    # below[x, y] the R-predecessors of y outside (x]
    rf, off = r.astype(np.float32), (~leq).astype(np.float32)
    beside, below = rf @ off.T, off.T @ rf
    witnesses.update((v.law, v.witness) for v in _violations([
        ("R", ~leq | r),
        ("L", ~r | leq),
        # Fa: x has an R-predecessor whose R-successors all lie above x
        ("Fa", (r & (beside == 0)).any(axis=0)),
        # Fu: x has an R-successor whose R-predecessors all lie below x
        ("Fu", (r & (below == 0)).any(axis=1)),
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
        ensure(fu_flag == (len(set(int(v) for v in pi)) == n),
               "fullness must match pi being surjective")
    frame._profile = profile
    return profile


@dataclass(frozen=True)
class FrameMorphism:
    """World map between frames; ``heyting`` claims the order-lifting clause."""

    source: KripkeFrame = field(compare=False, repr=False)
    target: KripkeFrame = field(compare=False, repr=False)
    map: tuple = ()
    heyting: bool = False


@dataclass(frozen=True)
class FrameMorphismReport(LawReport):
    surjective: bool
    heyting_ok: bool


def check_frame_morphism(m: FrameMorphism) -> FrameMorphismReport:
    """Direct quantifier evaluation of the morphism clauses.

    When both frames are normal and the map is order-preserving, the
    witness characterization (pi commutes with the map and successor
    preimages match) is evaluated independently and required to agree with
    the clause-by-clause verdict.
    """
    src, tgt = m.source, m.target
    f = _indices(m.map, (src.n,), tgt.n, "map")
    # hit[l, u] = 1 where f(l) = u: a product with it sums over preimages
    hit = np.zeros((src.n, tgt.n), dtype=np.float32)
    hit[np.arange(src.n), f] = 1
    laws = [
        ("monotone", ~src.leq | tgt.leq[f][:, f]),
        ("preserves-relation", ~src.r | tgt.r[f][:, f]),
        # every R-successor of f(k) is the image of an R-successor of k
        ("lift-successors", ~tgt.r[f] | ((src.r @ hit) > 0)),
        # every R-predecessor of f(k) lies below the image of an R-predecessor of k
        ("lift-predecessors",
         ~tgt.r[:, f].T | ((src.r.T @ tgt.leq.T[f].astype(np.float32)) > 0)),
    ]
    if m.heyting:
        # every element above f(k) is the image of an element above k
        laws.append(("lift-order", ~tgt.leq[f] | ((src.leq @ hit) > 0)))
    violations = _violations(laws)
    failed = {v.law for v in violations}

    if "monotone" not in failed and src.pi is not None and tgt.pi is not None:
        commutes = bool((f[src.pi] == tgt.pi[f]).all())
        # {lp : f(k) <= pi(lp)} against the images of {l : k <= pi(l)}
        preimages = bool((tgt.leq[f][:, tgt.pi] == ((src.leq[:, src.pi] @ hit) > 0)).all())
        relation_ok = failed.isdisjoint(
            {"preserves-relation", "lift-successors", "lift-predecessors"})
        ensure((commutes and preimages) == relation_ok,
               "witness characterization of frame morphisms disagrees with the clauses")

    return FrameMorphismReport(violations, surjective=len(set(int(v) for v in f)) == tgt.n,
                               heyting_ok="lift-order" not in failed)


def compose_frame_morphisms(outer: FrameMorphism, inner: FrameMorphism) -> FrameMorphism:
    ensure(frames_equal(inner.target, outer.source),
           "composition needs matching middle frame")
    comp = tuple(int(outer.map[v]) for v in inner.map)
    return FrameMorphism(source=inner.source, target=outer.target, map=comp,
                         heyting=inner.heyting and outer.heyting)


def frames_equal(a: KripkeFrame, b: KripkeFrame) -> bool:
    return a.n == b.n and (a.leq == b.leq).all() and (a.r == b.r).all()


# --- frames to algebras -------------------------------------------------------


def upset_algebra(frame: KripkeFrame) -> NablaAlgebra:
    """Algebra of upsets; always carries the Heyting table, and every frame
    flag transfers to the corresponding algebra flag (checked).  Built once
    per frame and kept on it."""
    if frame._upsets is None:
        frame._upsets = _build_upset_algebra(frame)
    return frame._upsets[1]


def _upset_dual(frame: KripkeFrame):
    """The frame's upset family and its upset algebra, built together."""
    alg = upset_algebra(frame)
    return frame._upsets[0], alg


def _build_upset_algebra(frame: KripkeFrame):
    fam = upset_lattice(frame.leq)
    ups = fam.members
    k, n = ups.shape
    # float32 products count worlds exactly and run on BLAS
    rel = frame.r.astype(np.float32)
    # nabla(U): the worlds some member of U relates to, the OR of U's R-rows
    image = (ups.astype(np.float32) @ rel) > 0
    nabla, found = _locate(ups, image)
    ensure(found.all(), "relation image of an upset must be an upset")
    # arrow(U, V): the worlds with no R-successor in U outside V
    escape = (ups[:, None, :] & ~ups[None, :, :]).reshape(k * k, n)
    guard = (escape.astype(np.float32) @ rel.T) == 0
    arrow, found = _locate(ups, guard)
    ensure(found.all(), "arrow of upsets must be an upset")
    alg = build_algebra(fam.lattice, nabla, arrow.reshape(k, k))
    profile = classify(alg)
    ensure(profile.H, "upset algebras always carry the Heyting structure")
    fprof = frame_profile(frame)
    for flag in FRAME_FLAGS:
        if getattr(fprof, flag):
            ensure(getattr(profile, flag),
                   f"frame flag {flag} must transfer to the upset algebra")
    return fam, alg


def inverse_image_morphism(f: FrameMorphism) -> AlgebraMorphism:
    """Preimage map on upsets; contravariant, embedding when f is onto."""
    rep = check_frame_morphism(f)
    if not rep.ok:
        raise NotKripkeMorphism("preimages only respect the pair along a frame morphism",
                                witness=rep.violations[0].witness if rep.violations else None)
    src_fam, src_alg = _upset_dual(f.target)
    tgt_fam, tgt_alg = _upset_dual(f.source)
    # x lies in the preimage of U iff f(x) lies in U
    pre = src_fam.members[:, np.asarray(f.map, dtype=np.int64)]
    out, found = _locate(tgt_fam.members, pre)
    ensure(found.all(), "preimage of an upset must be an upset")
    morphism = AlgebraMorphism(source=src_alg, target=tgt_alg,
                               map=tuple(int(v) for v in out),
                               preserves_heyting=bool(f.heyting and rep.heyting_ok))
    mrep = check_morphism(morphism)
    ensure(mrep.ok, "preimage map must be an algebra morphism")
    if rep.surjective:
        ensure(mrep.injective, "preimages along a surjection must be injective")
    return morphism


# --- algebras to frames -------------------------------------------------------


def prime_frame(alg: NablaAlgebra) -> KripkeFrame:
    """Prime filters under inclusion with the image-containment relation.

    The relation is computed as "nabla image of P inside Q" and
    cross-checked against the definitional detachment form; a mismatch is a
    hard failure, not a report.  Built once per algebra and kept on it.
    """
    if alg._frame is None:
        alg._frame = _build_prime_frame(alg)
    return alg._frame


def _build_prime_frame(alg: NablaAlgebra) -> KripkeFrame:
    if not classify(alg).D:
        raise NotDistributive("prime filter frames need a distributive carrier")
    primes = _prime_rows(alg.lat)
    k, n = primes.shape
    # float32 products count elements exactly and run on BLAS
    inside = primes.astype(np.float32)
    outside = 1 - inside
    leq = (inside @ outside.T) == 0
    # rel[P, Q]: no x in P has nabla(x) outside Q
    rel = (inside @ outside[:, alg.nabla].T) == 0
    # definitional[P, Q]: no (a, b) has arrow(a, b) in P, a in Q and b outside Q
    detach = inside[:, alg.arrow].reshape(k, n * n)
    escape = (inside[:, :, None] * outside[:, None, :]).reshape(k, n * n)
    definitional = (detach @ escape.T) == 0
    ensure((rel == definitional).all(),
           "relation characterizations disagree on prime filters")
    frame = build_frame(leq, rel)
    aprof = classify(alg)
    fprof = frame_profile(frame)
    for flag in FRAME_FLAGS:
        if getattr(aprof, flag):
            ensure(getattr(fprof, flag),
                   f"algebra flag {flag} must transfer to the prime frame")
    return frame


def canonical_frame_embedding(alg: NablaAlgebra) -> AlgebraMorphism:
    """Membership map into the upsets of the prime frame; an isomorphism here
    because every carrier is finite."""
    fam, target = _upset_dual(prime_frame(alg))
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
                       heyting=bool(f.preserves_heyting))
    frep = check_frame_morphism(fm)
    ensure(frep.ok, "prime preimage map must be a frame morphism")
    if rep.injective:
        ensure(frep.surjective, "prime preimages along an embedding must be onto")
    return fm


# --- amalgamation -------------------------------------------------------------


AMALGAMATION_FLAGS = frozenset({"R", "L", "Fa"})


def _flag_class(carried: dict, flags, lacking: str) -> frozenset:
    """The flag class an amalgamation must preserve.

    ``carried`` maps each input's name to its flag set.  Without a request
    the class is the amalgamation flags every input carries; a request must
    lie inside {R, L, Fa} and be carried by every input, else ``lacking``
    (formatted with the input's name) is raised.
    """
    if flags is None:
        return frozenset.intersection(*carried.values()) & AMALGAMATION_FLAGS
    cls = frozenset(flags)
    if not cls <= AMALGAMATION_FLAGS:
        raise FlagMismatch(
            f"flag class must lie inside {sorted(AMALGAMATION_FLAGS)}, got {sorted(cls)}")
    for name, have in carried.items():
        if not cls <= have:
            raise FlagMismatch(lacking.format(name=name))
    return cls


def amalgamate_frames(k0: KripkeFrame, k1: KripkeFrame, k2: KripkeFrame,
                      f: FrameMorphism, g: FrameMorphism, flags=None):
    """Pullback of two surjective frame morphisms onto a shared base.

    Worlds are the pairs agreeing on the base, order and relation are
    componentwise, and the normality witness is the pair of witnesses.
    Flags in the requested class (a subset of {R, L, Fa}; fullness is
    rejected up front) transfer to the pullback, and both projections are
    surjective frame morphisms.
    """
    profiles = {name: frame_profile(k) for name, k in (("k0", k0), ("k1", k1), ("k2", k2))}
    for p in profiles.values():
        if not p.N:
            raise NotNormal("amalgamation needs normal frames")
    cls = _flag_class({name: p.flags() for name, p in profiles.items()}, flags,
                      "every frame must carry the requested flag class")
    for name, m, tgt in (("first", f, k1), ("second", g, k2)):
        if not frames_equal(m.target, k0):
            raise InvalidMorphism(f"{name} leg must land in the shared base")
        if not frames_equal(m.source, tgt):
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
    pullback = build_frame(leq, rel)
    pprof = frame_profile(pullback)
    ensure(pprof.N, "pullback of normal frames must be normal")
    windex = np.full((k1.n, k2.n), -1, dtype=np.int64)
    windex[ys, zs] = np.arange(len(ys))
    ensure((pullback.pi == windex[k1.pi[ys], k2.pi[zs]]).all(),
           "pullback witness must be the componentwise witness pair")
    ensure(cls <= pprof.flags(), "pullback must inherit the shared flag class")

    heyting = f.heyting and g.heyting
    p = FrameMorphism(source=pullback, target=k1,
                      map=tuple(int(y) for y in ys), heyting=heyting)
    q = FrameMorphism(source=pullback, target=k2,
                      map=tuple(int(z) for z in zs), heyting=heyting)
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
                        flags=None, heyting: bool = False) -> AmalgamationResult:
    """Complete a span of embeddings to a commuting square of embeddings.

    Pipeline: prime frames of the three algebras, preimage morphisms of the
    two embeddings (surjective by the embedding/surjection exchange), frame
    pullback, upsets of the pullback, and composition with the membership
    embeddings.  Every stage re-validates its output; the final square is
    checked to commute exactly and to carry the shared flag class.
    """
    carried = {}
    for name, alg in (("a0", a0), ("a1", a1), ("a2", a2)):
        profile = classify(alg)
        carried[name] = profile.flags()
        if not profile.N:
            raise NotNormal(f"{name} must be normal")
        if not profile.D:
            raise NotDistributive(f"{name} must be distributive")
        if heyting and not profile.H:
            raise FlagMismatch(f"{name} must carry the Heyting structure")
    cls = _flag_class(carried, flags, "{name} must carry the requested flag class")
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
    pullback, p, q = amalgamate_frames(k0, k1, k2, pf1, pf2, flags=cls)

    up = inverse_image_morphism(p)
    uq = inverse_image_morphism(q)
    i1 = canonical_frame_embedding(a1)
    i2 = canonical_frame_embedding(a2)
    ensure(tables_equal(i1.target, up.source), "pipeline stage mismatch on the first leg")
    ensure(tables_equal(i2.target, uq.source), "pipeline stage mismatch on the second leg")
    g1 = compose_morphisms(up, i1)
    g2 = compose_morphisms(uq, i2)
    b = up.target

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
