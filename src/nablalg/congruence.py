"""Modal filters, congruences, and the bijection between them.

On a normal distributive algebra the modal filters (upsets closed under
meet, nabla and box) correspond one-to-one with the congruences via

    alpha(F) = {(x, y) : arrow(x, y) & arrow(y, x) in F}
    beta(theta) = {x : (x, top) in theta}

and the simplicity / subdirect-irreducibility verdicts reduce to
membership tests in generated modal filters.

Every filter of a finite lattice is principal, and [a) is closed under
nabla iff a <= nabla(a) and under box iff nabla(a) <= a.  So the modal
filters are the [f) with nabla(f) = f, which ``is_modal_filter`` checks on
the least member f that ``lattice._generator`` reads off the set.  Since
nabla(f) = f, f <= arrow(x, y) iff f & x <= y, so alpha([f)) relates x and
y iff x & f = y & f: it is the kernel of x -> x & f, one column of the meet
table.  alpha refuses a set that is not a modal filter of the algebra, and
beta a block vector that is not a congruence of it; every block vector from
a caller is read by the lattice module's ``_indices``, which refuses
entries that numpy does not read as integers.  The bijection, both verdicts
and the inequality suite need a normal distributive algebra, one check
(normality first); the closures need only normality.  The one table g[x],
the greatest fixpoint of nabla below x, gives every modal filter: the
closure of a seed is [g[meet of the seed]), the algebra is simple iff
g[x] = bot for every x != top, and subdirectly irreducible iff the join of
those g[x] is not top.  g comes from the lattice module's greatest-element
kernel and is kept on the algebra.  The set-level definitions, the batched
modal-filter predicate and the biimplication relation, are the test
oracles of these routes.

A congruence oracle that never mentions filters keeps the two routes
independently checkable.  While it computes, a congruence is an n x n
boolean equivalence matrix; one batched closure takes a (k, n, n) stack
of relations to the least congruences containing them (images under nabla
and the translations of meet, join and arrow, converse, one squaring per
round by the lattice module's ``_compose``), and the blocks are read off
each row's least member.  The power criteria of left and right algebras
compose one orbit matrix with the order, on one table per algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraMorphism,
    LawReport,
    NablaAlgebra,
    check_morphism,
    classify,
    tables_equal,
)
from .errors import (
    InvalidMorphism,
    NotDistributive,
    NotEmbedding,
    NotNormal,
    ShapeError,
    TooLarge,
    Trivial,
    ensure,
)
from .lattice import (_at, _compose, _freeze, _generator, _greatest, _indices, _kept,
                      _member_row, _violations)

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
        _require_own(self.algebra, other)
        mine, theirs = (_same_block(_blocks(self.algebra, t.blocks)) for t in (self, other))
        return bool((mine <= theirs).all())

    def to_json(self) -> list:
        return [int(b) for b in self.blocks]


def _blocks(alg: NablaAlgebra, blocks) -> np.ndarray:
    """A block vector of ``alg`` read by ``lattice._indices``: n integers."""
    return _indices(blocks, (alg.n,), None, "block vector")


def _same_block(blocks) -> np.ndarray:
    """The relation of a block-id vector: [x, y] when x and y share a block."""
    b = np.asarray(blocks)
    return b[:, None] == b[None, :]


def canonical_blocks(raw) -> tuple:
    relabel = {}
    return tuple(relabel.setdefault(b, len(relabel)) for b in raw)


def _require_own(alg: NablaAlgebra, part) -> None:
    """``part``, a modal filter or a congruence, must be one of ``alg``."""
    if not tables_equal(part.algebra, alg):
        raise ShapeError("filter or congruence of an algebra with other tables")


def _require_normal(alg: NablaAlgebra) -> None:
    if not classify(alg).N:
        raise NotNormal("operation needs a normal algebra (nabla preserving finite meets)")


def _require_normal_distributive(alg: NablaAlgebra) -> None:
    """The precondition of the bijection, the verdicts and the inequalities;
    normality is checked first."""
    _require_normal(alg)
    if not classify(alg).D:
        raise NotDistributive("operation needs a distributive algebra")


def is_modal_filter(alg: NablaAlgebra, members) -> bool:
    """Contains top, upward closed, closed under meet, nabla and box: the
    set is a principal filter [g) with nabla(g) = g."""
    g, principal = _generator(alg.lat, members)
    return principal and int(alg.nabla[g]) == g


def _greatest_fixpoints(alg: NablaAlgebra) -> np.ndarray:
    """g[x]: the greatest fixpoint of nabla below x, kept on the algebra
    (``_kept(alg, _greatest_fixpoints)``).

    nabla fixes bottom and preserves joins, so the fixpoints below x have
    a join and it is again a fixpoint."""
    fixed = alg.nabla == np.arange(alg.n)
    g, found = _greatest(alg.lat.leq, fixed[:, None] & alg.lat.leq)
    ensure(found.all(), "the fixpoints of nabla below an element must have a greatest one")
    return _freeze(g)


def modal_filter_closure(alg: NablaAlgebra, seed) -> ModalFilter:
    """Least modal filter containing ``seed``: [g), for g the greatest
    fixpoint of nabla below the meet of the seed."""
    _require_normal(alg)
    lat = alg.lat
    seed = np.flatnonzero(_member_row(alg.n, seed))
    f = ModalFilter(alg, lat.upset_of(_kept(alg, _greatest_fixpoints)[lat.meet_all(seed)]))
    ensure(is_modal_filter(alg, f.members), "closure must produce a modal filter")
    return f


def all_modal_filters(alg: NablaAlgebra) -> list:
    """Every modal filter, ordered by (size, members): the principal
    filters of nabla's fixpoints."""
    _require_normal(alg)
    g = _kept(alg, _greatest_fixpoints)
    out = [ModalFilter(alg, alg.lat.upset_of(a)) for a in range(alg.n) if g[a] == a]
    out.sort(key=lambda f: (len(f.members), tuple(sorted(f.members))))
    return out


def _translations(alg: NablaAlgebra) -> np.ndarray:
    """nabla and every translation of meet, join and arrow, one map per row;
    kept on the algebra (``_kept(alg, _translations)``)."""
    lat = alg.lat
    return _freeze(np.concatenate([alg.nabla[None], lat.meet, lat.meet.T, lat.join, lat.join.T,
                                   alg.arrow, alg.arrow.T]))


def is_congruence(alg: NablaAlgebra, blocks) -> bool:
    """Every map of ``_translations`` sends each element into the block of
    the image of the least element of its block."""
    b = _blocks(alg, blocks)
    images = b[_kept(alg, _translations)]
    return bool((images == images.take(_same_block(b).argmax(axis=1), axis=1)).all())


def congruence_from_filter(alg: NablaAlgebra, f: ModalFilter) -> Congruence:
    """alpha: relate x and y when both arrows between them lie in the
    filter.  The filter is [g) with nabla(g) = g, and g <= arrow(x, y) iff
    nabla(g) & x <= y, so both arrows lie in it iff x & g = y & g:
    alpha([g)) is the kernel of x -> x & g."""
    _require_own(alg, f)
    _require_normal_distributive(alg)
    g, principal = _generator(alg.lat, f.members)
    if not (principal and alg.nabla[g] == g):
        raise ShapeError("members must form a modal filter of the algebra")
    theta = Congruence(alg, canonical_blocks(alg.lat.meet[:, g].tolist()))
    ensure(is_congruence(alg, theta.blocks), "alpha must produce a congruence")
    return theta


def filter_from_congruence(alg: NablaAlgebra, theta: Congruence) -> ModalFilter:
    """beta: the block of the top element."""
    _require_own(alg, theta)
    _require_normal_distributive(alg)
    b = _blocks(alg, theta.blocks)
    if not is_congruence(alg, b):
        raise ShapeError("blocks must form a congruence of the algebra")
    members = frozenset(np.flatnonzero(b == b[alg.lat.top]).tolist())
    ensure(is_modal_filter(alg, members), "beta must produce a modal filter")
    return ModalFilter(alg, members)


def _congruence_closure(alg: NablaAlgebra, rels: np.ndarray) -> np.ndarray:
    """Least congruences containing each relation of a (k, n, n) batch.

    A round relates the images of x and of the least element related to x
    under nabla and under every translation of meet, join and arrow, adds
    the converse, and squares the relation once; it repeats on the batch
    members that still change.  At the fixpoint the relation is an
    equivalence whose blocks each map into one block, so it is a congruence,
    and every pair added lies in any congruence containing the seed.
    """
    maps = _kept(alg, _translations)
    rels = rels | rels.transpose(0, 2, 1) | np.eye(alg.n, dtype=bool)
    live = np.arange(len(rels))
    while live.size:
        cur = rels[live]
        grown = cur.copy()
        least = maps[:, cur.argmax(axis=2)].transpose(1, 0, 2)
        grown[np.arange(len(cur))[:, None, None], maps, least] = True
        grown |= grown.transpose(0, 2, 1)
        grown |= _compose(grown, grown)
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
        for rel in rels:
            key = rel.tobytes()
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


def _orbits(table: np.ndarray) -> np.ndarray:
    """orbits[x, v]: v is x after some number of steps of ``table``, zero
    included; an orbit has at most n points, so n - 1 steps reach them all.

    By pointer doubling: after k rounds ``orbits`` holds the points 0 to
    2^k - 1 steps on and ``step`` is the 2^k-th power of ``table``, so
    ceil(log2 n) rounds reach n - 1 steps."""
    n = len(table)
    orbits, step = np.eye(n, dtype=bool), table
    for _ in range((n - 1).bit_length()):
        orbits |= orbits[step]
        step = step[step]
    return orbits


def _power_criteria(alg: NablaAlgebra, table: np.ndarray) -> tuple:
    """(simple, subdirectly irreducible) by the orbits of ``table``, nabla on
    left and box on right algebras: the orbit of every x != top reaches
    bottom; some x != top lies above a point of the orbit of every y != top."""
    others = np.arange(alg.n) != alg.lat.top
    orbits = _orbits(table)
    return (bool(orbits[others, alg.lat.bot].all()),
            bool(_compose(orbits, alg.lat.leq)[others][:, others].all(axis=0).any()))


def _power_verdicts(alg: NablaAlgebra, which: int) -> set:
    """Verdict ``which`` of ``_power_criteria`` (0 simple, 1 subdirectly
    irreducible) on nabla if the algebra is left, else on box if it is
    right, else none; on an algebra both left and right, nabla = box = the
    identity, so one table serves."""
    profile = classify(alg)
    tables = [alg.nabla] if profile.L else [alg.box] if profile.R else []
    return {_power_criteria(alg, table)[which] for table in tables}


def is_subdirectly_irreducible(alg: NablaAlgebra) -> Verdict:
    """True when some x != top lies in every modal filter generated by a y != top.

    Those filters are [g(y)), for g(y) the greatest fixpoint of nabla below
    y, so their common part is [j) for j the join of all g(y).  On left
    (resp. right) algebras the verdict is cross-checked against the
    nabla-power (resp. box-power) criterion.
    """
    _require_normal_distributive(alg)
    if alg.n == 1:
        raise Trivial("verdict undefined on the one-element algebra")
    lat = alg.lat
    others = np.arange(alg.n) != lat.top
    # the candidates: the x != top above the join of all g(y)
    cand = lat.leq[lat.join_all(_kept(alg, _greatest_fixpoints)[others])] & others
    flag = bool(cand.any())
    # canonical witness: the first maximal candidate (the second-largest
    # element in the Heyting special case)
    maximal = cand & ~(lat.leq & cand & ~np.eye(alg.n, dtype=bool)).any(axis=1)
    witness = int(maximal.argmax()) if flag else None

    ensure(_power_verdicts(alg, 1) <= {flag},
           "power criterion disagrees with closure-membership verdict")
    return Verdict(flag, witness)


def is_simple(alg: NablaAlgebra) -> Verdict:
    """True when every singleton-generated modal filter reaches bottom, that
    is, when bottom is the only fixpoint of nabla below any x != top.

    Cross-checked against the congruence count (exactly two on non-trivial
    simple algebras) whenever the oracle bound allows, and against the
    power criteria on left / right algebras.
    """
    _require_normal_distributive(alg)
    top, bot = alg.lat.top, alg.lat.bot
    others = np.arange(alg.n) != top
    failing = np.flatnonzero(others & (_kept(alg, _greatest_fixpoints) != bot))
    flag = not len(failing)
    witness = None if flag else int(failing[0])

    if 2 <= alg.n <= ORACLE_BOUND:
        count = len(all_congruences_oracle(alg))
        ensure((count == 2) == flag, "congruence count disagrees with simplicity verdict")
    ensure(_power_verdicts(alg, 0) <= {flag}, "power criterion disagrees with simplicity verdict")
    return Verdict(flag, witness)


def check_internal_cong_inequalities(alg: NablaAlgebra):
    """The compatibility inequalities behind the filter/congruence bijection,
    each a named mask; the two Heyting laws only where the Heyting table
    exists:

        meet-translation        arrow(x, y) <= arrow(x & z, y & z)
        join-translation        arrow(x, y) <= arrow(x | z, y | z)
        nabla-distribution      nabla(arrow(x, y)) <= arrow(nabla(x), nabla(y))
        second-arg-composition  box(arrow(x, y)) <= arrow(arrow(z, x), arrow(z, y))
        first-arg-composition   box(arrow(x, y)) <= arrow(arrow(y, z), arrow(x, z))
        heyting-second-arg      arrow(x, y) <= arrow(heyting(z, x), heyting(z, y))
        heyting-first-arg       arrow(x, y) <= arrow(heyting(y, z), heyting(x, z))
    """
    _require_normal_distributive(alg)
    lat, arr, nab, box = alg.lat, alg.arrow, alg.nabla, alg.box
    leq, meet, join, hey = lat.leq, lat.meet, lat.join, alg.heyting

    def below(lhs, op, flip=False):
        """[x, y, z]: lhs(x, y) <= arrow(op(x, z), op(y, z)), or with x and y
        exchanged on the right when ``flip``; a slab of x at a time."""
        def holds(s):
            rows, cols = (op[None], op[s, None]) if flip else (op[s, None], op[None])
            return _at(leq, lhs[s, :, None], _at(arr, rows, cols))
        return holds

    laws = [
        ("meet-translation", below(arr, meet)),
        ("join-translation", below(arr, join)),
        ("nabla-distribution", _at(leq, nab[arr], arr.take(nab, axis=0).take(nab, axis=1))),
        # arrow(arrow(z, x), arrow(z, y)) and arrow(arrow(y, z), arrow(x, z))
        ("second-arg-composition", below(box[arr], arr.T)),
        ("first-arg-composition", below(box[arr], arr, flip=True)),
    ]
    if classify(alg).H:
        laws += [
            ("heyting-second-arg", below(arr, hey.T)),
            ("heyting-first-arg", below(arr, hey, flip=True)),
        ]
    return LawReport(_violations(laws, alg.n))


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
    if not (tables_equal(inclusion.source, sub) and tables_equal(inclusion.target, big)):
        raise InvalidMorphism("inclusion must map the subalgebra into the big algebra")
    rep = check_morphism(inclusion)
    if not rep.ok or not rep.injective:
        raise NotEmbedding("inclusion must be a validated embedding")
    if sub.n > ORACLE_BOUND or big.n > ORACLE_BOUND:
        raise TooLarge(f"extension check bounded at {ORACLE_BOUND} elements")
    for alg in (sub, big):
        _require_normal_distributive(alg)
    fmap = inclusion.map
    cases = []
    for theta in all_congruences_oracle(sub):
        f_sub = filter_from_congruence(sub, theta)
        pushed = {fmap[x] for x in f_sub.members}
        f_big = modal_filter_closure(big, pushed)
        phi = congruence_from_filter(big, f_big)
        restricts = bool((_same_block(theta.blocks)
                          == _same_block(phi.blocks)[np.ix_(fmap, fmap)]).all())
        cases.append(ExtensionCase(theta, phi, restricts))
    ok = all(c.restricts for c in cases)
    ensure(ok, "congruence extension recipe failed to restrict")
    return ExtensionReport(ok=ok, cases=tuple(cases))
