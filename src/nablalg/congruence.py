"""Modal filters, congruences, and the bijection between them.

On a normal distributive algebra the modal filters (upsets closed under
meet, nabla and box) correspond one-to-one with the congruences via

    alpha(F) = {(x, y) : arrow(x, y) & arrow(y, x) in F}
    beta(theta) = {x : (x, top) in theta}

and the simplicity / subdirect-irreducibility verdicts reduce to
membership tests in generated modal filters.

Every filter of a finite lattice is principal, and [a) is closed under
nabla iff a <= nabla(a) and under box iff nabla(a) <= a.  So the modal
filters are the [f) with nabla(f) = f, and the one table g[x], the
greatest fixpoint of nabla below x, gives them all: the closure of a seed
is [g[meet of the seed]), the algebra is simple iff g[x] = bot for every
x != top, and subdirectly irreducible iff the join of those g[x] is not
top.  g comes from the lattice module's greatest-element kernel, and every
principal filter is re-checked against the full modal-filter predicate.

A congruence oracle that never mentions filters keeps the two routes
independently checkable.  While it computes, a congruence is an n x n
boolean equivalence matrix; one batched closure takes a (k, n, n) stack
of relations to the least congruences containing them (images under nabla
and the translations of meet, join and arrow, converse, one float32
squaring per round), and the blocks are read off each row's least member.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraMorphism,
    LawReport,
    NablaAlgebra,
    _violations,
    check_morphism,
    classify,
)
from .errors import (
    NotDistributive,
    NotEmbedding,
    NotNormal,
    TooLarge,
    Trivial,
    ensure,
)
from .lattice import _greatest, _row_keys

ORACLE_BOUND = 10


@dataclass(frozen=True)
class ModalFilter:
    algebra: NablaAlgebra = field(compare=False, repr=False)
    members: frozenset = frozenset()

    def to_json(self) -> list:
        return sorted(int(x) for x in self.members)


@dataclass(frozen=True)
class Congruence:
    """Partition as a block-id vector, labels by first occurrence."""

    algebra: NablaAlgebra = field(compare=False, repr=False)
    blocks: tuple = ()

    def same(self, x: int, y: int) -> bool:
        return self.blocks[x] == self.blocks[y]

    def n_blocks(self) -> int:
        return len(set(self.blocks))

    def refines(self, other: "Congruence") -> bool:
        """Inclusion of relations: every pair of self is a pair of other."""
        seen = {}
        for x, b in enumerate(self.blocks):
            if b in seen:
                if other.blocks[x] != other.blocks[seen[b]]:
                    return False
            else:
                seen[b] = x
        return True

    def to_json(self) -> list:
        return [int(b) for b in self.blocks]


def canonical_blocks(raw) -> tuple:
    relabel = {}
    out = []
    for b in raw:
        out.append(relabel.setdefault(b, len(relabel)))
    return tuple(out)


def _require_normal(alg: NablaAlgebra) -> None:
    if not classify(alg).N:
        raise NotNormal("operation needs a normal algebra (nabla preserving finite meets)")


def _require_distributive(alg: NablaAlgebra) -> None:
    if not classify(alg).D:
        raise NotDistributive("operation needs a distributive algebra")


def is_modal_filter(alg: NablaAlgebra, members) -> bool:
    """Contains top, upward closed, closed under meet, nabla and box."""
    lat = alg.lat
    inside = np.zeros(alg.n, dtype=bool)
    inside[list(members)] = True
    idx = np.flatnonzero(inside)
    return bool(inside[lat.top]
                and (lat.leq[idx] <= inside).all()
                and inside[alg.nabla[idx]].all() and inside[alg.box[idx]].all()
                and inside[lat.meet[idx[:, None], idx]].all())


def _greatest_fixpoints(alg: NablaAlgebra) -> np.ndarray:
    """g[x]: the greatest fixpoint of nabla below x.

    nabla fixes bottom and preserves joins, so the fixpoints below x have
    a join and it is again a fixpoint.  Every filter of a finite lattice is
    principal, and [a) is closed under nabla iff a <= nabla(a) and under box
    iff nabla(a) <= a; that equivalence is re-checked on every element.
    """
    lat = alg.lat
    fixed = alg.nabla == np.arange(alg.n)
    for a in range(alg.n):
        ensure(is_modal_filter(alg, np.flatnonzero(lat.leq[a])) == fixed[a],
               "principal modal filters must be the filters of nabla's fixpoints")
    g, found = _greatest(lat.leq, fixed[:, None] & lat.leq)
    ensure(found.all(), "the fixpoints of nabla below an element must have a greatest one")
    return g


def modal_filter_closure(alg: NablaAlgebra, seed) -> ModalFilter:
    """Least modal filter containing ``seed``: [g), for g the greatest
    fixpoint of nabla below the meet of the seed."""
    _require_normal(alg)
    lat = alg.lat
    f = ModalFilter(alg, lat.upset_of(_greatest_fixpoints(alg)[lat.meet_all(seed)]))
    ensure(is_modal_filter(alg, f.members), "closure must produce a modal filter")
    return f


def all_modal_filters(alg: NablaAlgebra) -> list:
    """Every modal filter, ordered by (size, members).

    These are the principal filters of nabla's fixpoints; the equivalence is
    re-checked against the full predicate on every principal filter.
    """
    _require_normal(alg)
    g = _greatest_fixpoints(alg)
    out = [ModalFilter(alg, alg.lat.upset_of(a)) for a in range(alg.n) if g[a] == a]
    out.sort(key=lambda f: (len(f.members), tuple(sorted(f.members))))
    return out


def is_congruence(alg: NablaAlgebra, blocks) -> bool:
    b = np.asarray(blocks, dtype=np.int64)
    lat = alg.lat
    reps = {}
    for x in range(alg.n):
        reps.setdefault(int(b[x]), []).append(x)
    for group in reps.values():
        x = group[0]
        for y in group[1:]:
            if b[alg.nabla[x]] != b[alg.nabla[y]]:
                return False
            for table in (lat.meet, lat.join, alg.arrow):
                if (b[table[x]] != b[table[y]]).any():
                    return False
                if (b[table[:, x]] != b[table[:, y]]).any():
                    return False
    return True


def congruence_from_filter(alg: NablaAlgebra, f: ModalFilter) -> Congruence:
    """alpha: relate x and y when both arrows between them lie in the filter."""
    _require_normal(alg)
    _require_distributive(alg)
    memb = np.zeros(alg.n, dtype=bool)
    memb[sorted(f.members)] = True
    rel = memb[alg.lat.meet[alg.arrow, alg.arrow.T]]
    square = rel.astype(np.float32)
    ensure(bool(rel.diagonal().all()) and (rel == rel.T).all()
           and (rel >= ((square @ square) > 0)).all(),
           "filter biimplication relation must be an equivalence")
    theta = Congruence(alg, canonical_blocks(rel.argmax(axis=1)))
    ensure(is_congruence(alg, theta.blocks), "alpha must produce a congruence")
    return theta


def filter_from_congruence(alg: NablaAlgebra, theta: Congruence) -> ModalFilter:
    """beta: the block of the top element."""
    _require_normal(alg)
    _require_distributive(alg)
    top_block = theta.blocks[alg.lat.top]
    members = frozenset(x for x in range(alg.n) if theta.blocks[x] == top_block)
    f = ModalFilter(alg, members)
    ensure(is_modal_filter(alg, members), "beta must produce a modal filter")
    return f


def _congruence_closure(alg: NablaAlgebra, rels: np.ndarray) -> np.ndarray:
    """Least congruences containing each relation of a (k, n, n) batch.

    A round relates the images of x and of the least element related to x
    under nabla and under every translation of meet, join and arrow, adds
    the converse, and squares the relation once; it repeats on the batch
    members that still change.  At the fixpoint the relation is an
    equivalence whose blocks each map into one block, so it is a congruence,
    and every pair added lies in any congruence containing the seed.
    """
    lat = alg.lat
    maps = np.concatenate([alg.nabla[None], lat.meet, lat.meet.T, lat.join, lat.join.T,
                           alg.arrow, alg.arrow.T])
    rels = rels | rels.transpose(0, 2, 1) | np.eye(alg.n, dtype=bool)
    live = np.arange(len(rels))
    while live.size:
        cur = rels[live]
        grown = cur.copy()
        least = maps[:, cur.argmax(axis=2)].transpose(1, 0, 2)
        grown[np.arange(len(cur))[:, None, None], maps, least] = True
        grown |= grown.transpose(0, 2, 1)
        square = grown.astype(np.float32)
        grown |= (square @ square) > 0
        changed = (grown != cur).any(axis=(1, 2))
        rels[live] = grown
        live = live[changed]
    return rels


def all_congruences_oracle(alg: NablaAlgebra) -> list:
    """Every congruence, with no reference to modal filters.

    Every congruence is the join of the principal congruences it contains.
    The principal congruences of all pairs come from one batched closure;
    then each congruence found is joined, once, with every principal
    congruence it does not contain, until no new one appears.  Ordered
    finest-first.
    """
    n = alg.n
    if n > ORACLE_BOUND:
        raise TooLarge(f"congruence oracle bounded at {ORACLE_BOUND} elements")
    xs, ys = np.triu_indices(n, 1)
    seeds = np.zeros((len(xs), n, n), dtype=bool)
    seeds[np.arange(len(xs)), xs, ys] = True
    found, seen = [], set()

    def add(rels):
        for key, rel in zip(_row_keys(rels.reshape(len(rels), n * n)), rels):
            key = key.tobytes()
            if key not in seen:
                seen.add(key)
                found.append(rel)

    add(_congruence_closure(alg, seeds))
    principal = np.array(found, dtype=bool).reshape(-1, n, n)
    for theta in found:
        outside = (principal & ~theta).any(axis=(1, 2))
        add(_congruence_closure(alg, principal[outside] | theta))
    found.append(np.eye(n, dtype=bool))
    out = [Congruence(alg, canonical_blocks(rel.argmax(axis=1))) for rel in found]
    for theta in out:
        ensure(is_congruence(alg, theta.blocks), "oracle produced a non-congruence")
    out.sort(key=lambda t: (-t.n_blocks(), t.blocks))
    return out


@dataclass(frozen=True)
class Verdict:
    flag: bool
    witness: object = None

    def to_json(self) -> dict:
        return {"ok": self.flag,
                "witness": None if self.witness is None else int(self.witness)}


def _orbit(table: np.ndarray, x: int) -> list:
    seen = []
    v = x
    while v not in seen:
        seen.append(v)
        v = int(table[v])
    return seen


def is_subdirectly_irreducible(alg: NablaAlgebra) -> Verdict:
    """True when some x != top lies in every modal filter generated by a y != top.

    Those filters are [g(y)), for g(y) the greatest fixpoint of nabla below
    y, so their common part is [j) for j the join of all g(y).  On left
    (resp. right) algebras the verdict is cross-checked against the
    nabla-power (resp. box-power) criterion.
    """
    _require_normal(alg)
    _require_distributive(alg)
    if alg.n == 1:
        raise Trivial("verdict undefined on the one-element algebra")
    lat = alg.lat
    top = lat.top
    others = [y for y in range(alg.n) if y != top]
    g = _greatest_fixpoints(alg)
    common = lat.upset_of(lat.join_all(g[others]))
    candidates = sorted(common - {top})
    flag = bool(candidates)
    # canonical witness: a maximal candidate (the second-largest element in
    # the Heyting special case)
    witness = None
    if flag:
        witness = next(x for x in candidates
                       if not any(lat.leq[x, y] and x != y for y in candidates))

    profile = classify(alg)
    for flagged, table in ((profile.L, alg.nabla), (profile.R, alg.box)):
        if not flagged:
            continue
        power = any(
            all(any(lat.leq[v, x] for v in _orbit(table, y)) for y in others)
            for x in others
        )
        ensure(power == flag, "power criterion disagrees with closure-membership verdict")
    return Verdict(flag, witness)


def is_simple(alg: NablaAlgebra) -> Verdict:
    """True when every singleton-generated modal filter reaches bottom, that
    is, when bottom is the only fixpoint of nabla below any x != top.

    Cross-checked against the congruence count (exactly two on non-trivial
    simple algebras) whenever the oracle bound allows, and against the
    power criteria on left / right algebras.
    """
    _require_normal(alg)
    _require_distributive(alg)
    top, bot = alg.lat.top, alg.lat.bot
    others = [x for x in range(alg.n) if x != top]
    g = _greatest_fixpoints(alg)
    failing = [x for x in others if g[x] != bot]
    flag = not failing
    witness = None if flag else failing[0]

    if 2 <= alg.n <= ORACLE_BOUND:
        count = len(all_congruences_oracle(alg))
        ensure((count == 2) == flag, "congruence count disagrees with simplicity verdict")
    profile = classify(alg)
    for flagged, table in ((profile.L, alg.nabla), (profile.R, alg.box)):
        if not flagged:
            continue
        power = all(bot in (int(v) for v in _orbit(table, x)) for x in others)
        ensure(power == flag, "power criterion disagrees with simplicity verdict")
    return Verdict(flag, witness)


INTERNAL_LAWS = {
    "meet-translation": "arrow(x, y) <= arrow(x & z, y & z)",
    "join-translation": "arrow(x, y) <= arrow(x | z, y | z)",
    "nabla-distribution": "nabla(arrow(x, y)) <= arrow(nabla(x), nabla(y))",
    "second-arg-composition": "box(arrow(x, y)) <= arrow(arrow(z, x), arrow(z, y))",
    "first-arg-composition": "box(arrow(x, y)) <= arrow(arrow(y, z), arrow(x, z))",
    "heyting-second-arg": "arrow(x, y) <= arrow(heyting(z, x), heyting(z, y))",
    "heyting-first-arg": "arrow(x, y) <= arrow(heyting(y, z), heyting(x, z))",
}


def check_internal_cong_inequalities(alg: NablaAlgebra):
    """The compatibility inequalities behind the filter/congruence bijection."""
    _require_normal(alg)
    _require_distributive(alg)
    lat, arr, nab, box = alg.lat, alg.arrow, alg.nabla, alg.box
    leq, meet, join = lat.leq, lat.meet, lat.join
    lhs, arr_t = arr[:, :, None], arr.T
    laws = [
        ("meet-translation", leq[lhs, arr[meet[:, None, :], meet[None, :, :]]]),
        ("join-translation", leq[lhs, arr[join[:, None, :], join[None, :, :]]]),
        ("nabla-distribution", leq[nab[arr], arr[nab[:, None], nab[None, :]]]),
        ("second-arg-composition",
         leq[box[arr][:, :, None], arr[arr_t[:, None, :], arr_t[None, :, :]]]),
        ("first-arg-composition",
         leq[box[arr][:, :, None], arr[arr[None, :, :], arr[:, None, :]]]),
    ]
    if classify(alg).H:
        hey = alg.heyting
        hey_t = hey.T
        laws += [
            ("heyting-second-arg", leq[lhs, arr[hey_t[:, None, :], hey_t[None, :, :]]]),
            ("heyting-first-arg", leq[lhs, arr[hey[None, :, :], hey[:, None, :]]]),
        ]
    return LawReport(_violations(laws))


@dataclass(frozen=True)
class ExtensionCase:
    theta: Congruence
    extension: Congruence
    restricts: bool


@dataclass(frozen=True)
class ExtensionReport:
    ok: bool
    cases: tuple

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "cases": [{"theta": c.theta.to_json(),
                           "extension": c.extension.to_json(),
                           "restricts": c.restricts} for c in self.cases]}


def check_congruence_extension(sub: NablaAlgebra, big: NablaAlgebra,
                               inclusion: AlgebraMorphism) -> ExtensionReport:
    """Extend each congruence of the subalgebra along the inclusion.

    Uses the recipe: push the corresponding modal filter forward, close it
    in the big algebra, and pull the induced congruence back; the
    restriction must be the congruence we started from.
    """
    rep = check_morphism(inclusion)
    if not rep.ok or not rep.injective:
        raise NotEmbedding("inclusion must be a validated embedding")
    if sub.n > ORACLE_BOUND or big.n > ORACLE_BOUND:
        raise TooLarge(f"extension check bounded at {ORACLE_BOUND} elements")
    for alg in (sub, big):
        _require_normal(alg)
        _require_distributive(alg)
    fmap = inclusion.map
    cases = []
    for theta in all_congruences_oracle(sub):
        f_sub = filter_from_congruence(sub, theta)
        pushed = {fmap[x] for x in f_sub.members}
        f_big = modal_filter_closure(big, pushed)
        phi = congruence_from_filter(big, f_big)
        restricts = all(
            theta.same(a, b) == phi.same(fmap[a], fmap[b])
            for a in range(sub.n) for b in range(sub.n)
        )
        cases.append(ExtensionCase(theta, phi, restricts))
    ok = all(c.restricts for c in cases)
    ensure(ok, "congruence extension recipe failed to restrict")
    return ExtensionReport(ok=ok, cases=tuple(cases))
