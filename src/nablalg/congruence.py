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
principal filter is re-checked against the full modal-filter predicate.  A
congruence oracle that never mentions filters (principal congruences
closed under partition joins) keeps the two routes independently
checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import NablaAlgebra, AlgebraMorphism, check_morphism, classify
from .errors import (
    NotDistributive,
    NotEmbedding,
    NotNormal,
    TooLarge,
    Trivial,
    ensure,
)
from .lattice import _greatest

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
    biimp = alg.lat.meet[alg.arrow, alg.arrow.T]
    rel = memb[biimp]
    blocks = _blocks_from_relation(rel)
    theta = Congruence(alg, blocks)
    ensure(is_congruence(alg, blocks), "alpha must produce a congruence")
    return theta


class _UnionFind:
    """Disjoint classes of 0..n-1, each rooted at its least element."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(self, a: int, b: int) -> bool:
        """Merge the classes of a and b; True when they were apart."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True

    def blocks(self) -> tuple:
        return canonical_blocks(self.find(v) for v in range(len(self.parent)))


def _blocks_from_relation(rel: np.ndarray) -> tuple:
    ensure(bool(rel.diagonal().all()) and (rel == rel.T).all(),
           "filter biimplication relation must be reflexive and symmetric")
    classes = _UnionFind(rel.shape[0])
    for x, y in np.argwhere(rel):
        classes.union(int(x), int(y))
    return classes.blocks()


def filter_from_congruence(alg: NablaAlgebra, theta: Congruence) -> ModalFilter:
    """beta: the block of the top element."""
    _require_normal(alg)
    _require_distributive(alg)
    top_block = theta.blocks[alg.lat.top]
    members = frozenset(x for x in range(alg.n) if theta.blocks[x] == top_block)
    f = ModalFilter(alg, members)
    ensure(is_modal_filter(alg, members), "beta must produce a modal filter")
    return f


def principal_congruence(alg: NablaAlgebra, x: int, y: int) -> Congruence:
    """Least congruence identifying x and y, by operation-respecting closure."""
    n = alg.n
    classes = _UnionFind(n)
    union = classes.union
    union(x, y)
    tables = (alg.lat.meet, alg.lat.join, alg.arrow)
    changed = True
    while changed:
        changed = False
        groups = {}
        for v in range(n):
            groups.setdefault(classes.find(v), []).append(v)
        for group in groups.values():
            u = group[0]
            for v in group[1:]:
                if union(int(alg.nabla[u]), int(alg.nabla[v])):
                    changed = True
                for t in tables:
                    for z in range(n):
                        if union(int(t[u, z]), int(t[v, z])):
                            changed = True
                        if union(int(t[z, u]), int(t[z, v])):
                            changed = True
    return Congruence(alg, classes.blocks())


def join_congruences(alg: NablaAlgebra, a: Congruence, b: Congruence) -> Congruence:
    classes = _UnionFind(alg.n)
    for blocks in (a.blocks, b.blocks):
        firsts = {}
        for v in range(alg.n):
            classes.union(firsts.setdefault(blocks[v], v), v)
    out = Congruence(alg, classes.blocks())
    ensure(is_congruence(alg, out.blocks), "join of congruences must stay a congruence")
    return out


def all_congruences_oracle(alg: NablaAlgebra) -> list:
    """Every congruence, with no reference to modal filters.

    Principal congruences of all pairs, closed under pairwise joins; every
    congruence is the join of the principal congruences it contains, so the
    closure is exhaustive.  Ordered finest-first.
    """
    if alg.n > ORACLE_BOUND:
        raise TooLarge(f"congruence oracle bounded at {ORACLE_BOUND} elements")
    identity = Congruence(alg, tuple(range(alg.n)))
    found = {identity.blocks: identity}
    for x in range(alg.n):
        for y in range(x + 1, alg.n):
            theta = principal_congruence(alg, x, y)
            found.setdefault(theta.blocks, theta)
    while True:
        items = list(found.values())
        new = []
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                j = join_congruences(alg, a, b)
                if j.blocks not in found:
                    found[j.blocks] = j
                    new.append(j)
        if not new:
            break
    out = list(found.values())
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
    from .algebra import LawReport, Violation, _first_false

    _require_normal(alg)
    _require_distributive(alg)
    lat, arr, nab, box = alg.lat, alg.arrow, alg.nabla, alg.box
    leq, meet, join = lat.leq, lat.meet, lat.join
    violations = []

    def run(law, mask):
        if not mask.all():
            violations.append(Violation(law, _first_false(mask)))

    lhs = arr[:, :, None]
    run("meet-translation", leq[lhs, arr[meet[:, None, :], meet[None, :, :]]])
    run("join-translation", leq[lhs, arr[join[:, None, :], join[None, :, :]]])
    run("nabla-distribution", leq[nab[arr], arr[nab[:, None], nab[None, :]]])
    arr_t = arr.T
    run("second-arg-composition",
        leq[box[arr][:, :, None], arr[arr_t[:, None, :], arr_t[None, :, :]]])
    run("first-arg-composition",
        leq[box[arr][:, :, None], arr[arr[None, :, :], arr[:, None, :]]])
    if classify(alg).H:
        hey = alg.heyting
        hey_t = hey.T
        run("heyting-second-arg", leq[lhs, arr[hey_t[:, None, :], hey_t[None, :, :]]])
        run("heyting-first-arg", leq[lhs, arr[hey[None, :, :], hey[:, None, :]]])
    return LawReport(ok=not violations, violations=tuple(violations))


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
