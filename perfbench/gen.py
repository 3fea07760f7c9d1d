"""Seeded input generators for the benchmark.

Nothing here imports nablalg: every input is built from numpy tables, the
way a user would write them by hand.  Two families cover every workload:

* ``mask`` lattices: the upsets of a finite poset as bitmasks, ordered by
  inclusion (meet = AND, join = OR).  An antichain gives a Boolean lattice.
  The modal operator is the union of R-images for a relation R that is
  compatible with the order, so it preserves all joins.
* ``product`` lattices: products of chains, ordered componentwise.  The
  modal operator is a componentwise monotone map fixing bottom, which again
  preserves all joins.  A single factor gives a chain.

A join-preserving operator always has a residual, so every generated
algebra is valid; the residual (the reference ``arrow``) is the join of all
candidates, computed here from the family's own meet and join.  Element
labels are shuffled by the seed, so the same sizes come with different
tables on every seed while the work per request stays the same.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

import numpy as np

POSET_TRIES = 20000      # rejection-sampling budget of ``poset_with_upsets``
R0_DENSITY = 0.35        # edge density of the random relation behind a mask nabla


@dataclass(frozen=True)
class Instance:
    """Raw tables of one seeded algebra plus the facts the checks need."""

    name: str
    leq: np.ndarray          # order matrix, bool
    meet: np.ndarray         # reference meet table
    join: np.ndarray         # reference join table
    nabla: np.ndarray        # join-preserving operator
    arrow: np.ndarray        # its residual
    heyting: np.ndarray      # residual of the identity (the Heyting table)

    @property
    def n(self) -> int:
        return int(self.leq.shape[0])

    @property
    def bot(self) -> int:
        return int(np.flatnonzero(self.leq.all(axis=1))[0])

    @property
    def top(self) -> int:
        return int(np.flatnonzero(self.leq.all(axis=0))[0])


def _residual(leq, meet, nab, joins_of):
    """arrow[a, b] = join of {c : nabla(c) & a <= b}; ``joins_of`` reduces over c."""
    # cond[c, a, b]: nabla(c) & a <= b
    cond = leq[meet[nab][:, :, None], np.arange(leq.shape[0])[None, None, :]]
    return joins_of(cond)


def _assemble(name, rng, leq_k, meet_k, join_k, nab_k, join_reduce):
    """Build tables in key order, then move every table to shuffled labels."""
    n = leq_k.shape[0]
    arrow_k = _residual(leq_k, meet_k, nab_k, join_reduce)
    heyting_k = _residual(leq_k, meet_k, np.arange(n), join_reduce)
    label = rng.permutation(n)            # label[key index] = shuffled index
    inv = np.argsort(label)

    def table(t):
        return label[t[np.ix_(inv, inv)]].astype(np.int64)

    leq = leq_k[np.ix_(inv, inv)].copy()
    return Instance(name=name, leq=leq, meet=table(meet_k), join=table(join_k),
                    nabla=label[nab_k[inv]].astype(np.int64),
                    arrow=table(arrow_k), heyting=table(heyting_k))


# --- mask family: upsets of a poset ------------------------------------------


def upsets(poset_leq) -> list[int]:
    """Every upset of the poset as a bitmask, in increasing numeric order."""
    m = poset_leq.shape[0]
    principal = [int(sum(1 << int(v) for v in np.flatnonzero(poset_leq[w]))) for w in range(m)]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for mask in frontier:
            for w in range(m):
                if not (mask >> w) & 1:
                    t = mask | principal[w]
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
        frontier = nxt
    return sorted(seen)


def _closure(rel):
    rel = rel.copy()
    while True:
        nxt = rel | ((rel.astype(np.int64) @ rel.astype(np.int64)) > 0)
        if (nxt == rel).all():
            return rel
        rel = nxt


def random_poset(rng, points: int, p: float) -> np.ndarray:
    """Random order on ``points`` elements: transitive closure of random forward edges."""
    up = np.triu(rng.random((points, points)) < p, 1)
    perm = rng.permutation(points)
    leq = _closure(up | np.eye(points, dtype=bool))
    return leq[np.ix_(perm, perm)]


def poset_with_upsets(rng, points: int, p: float, target: int):
    """Seeded rejection sampling of a poset whose upset lattice has exactly ``target`` elements."""
    for _ in range(POSET_TRIES):
        leq = random_poset(rng, points, p)
        if len(upsets(leq)) == target:
            return leq
    raise RuntimeError(f"no {points}-point poset with {target} upsets in {POSET_TRIES} tries")


def mask_instance(name, rng, poset_leq) -> Instance:
    """Upset lattice of ``poset_leq`` with nabla(U) = R-image of U.

    R is closed to ``leq ; R0 ; leq`` for a random R0, so the image of an
    upset is an upset and nabla preserves unions and the empty set.
    """
    m = poset_leq.shape[0]
    r0 = rng.random((m, m)) < R0_DENSITY
    rel = (poset_leq.astype(np.int64) @ r0.astype(np.int64) @ poset_leq.astype(np.int64)) > 0
    masks = np.array(upsets(poset_leq), dtype=np.int64)
    k = len(masks)
    index = {int(v): i for i, v in enumerate(masks)}
    leq = (masks[:, None] & ~masks[None, :]) == 0
    meet = np.array([[index[int(a & b)] for b in masks] for a in masks], dtype=np.int64)
    join = np.array([[index[int(a | b)] for b in masks] for a in masks], dtype=np.int64)
    image = [int(sum(1 << int(x) for x in np.flatnonzero(rel[y]))) for y in range(m)]
    nab = np.zeros(k, dtype=np.int64)
    for i, u in enumerate(masks):
        img = 0
        for y in range(m):
            if (int(u) >> y) & 1:
                img |= image[y]
        nab[i] = index[img]

    def join_reduce(cond):
        picked = np.where(cond, masks[:, None, None], 0)
        out = np.bitwise_or.reduce(picked, axis=0)
        return np.vectorize(index.__getitem__, otypes=[np.int64])(out)

    return _assemble(name, rng, leq, meet, join, nab, join_reduce)


def boolean_instance(name, rng, atoms: int) -> Instance:
    return mask_instance(name, rng, np.eye(atoms, dtype=bool))


# --- product family: products of chains --------------------------------------


def _monotone_map(rng, size: int, normal: bool) -> np.ndarray:
    """Monotone self-map of the chain 0..size-1 fixing 0.

    With ``normal`` it also fixes the top and sends no nonzero element to 0,
    so the product map preserves meets, the top, and is 0 only at 0.
    """
    if size == 1:
        return np.zeros(1, dtype=np.int64)
    low = 1 if normal else 0
    vals = np.sort(rng.integers(low, size, size=size - 1))
    if normal:
        vals[-1] = size - 1
    return np.concatenate([[0], vals]).astype(np.int64)


def product_instance(name, rng, dims, normal: bool = False, identity: bool = False) -> Instance:
    """Product of chains with ``dims`` elements each and a componentwise nabla."""
    dims = tuple(int(d) for d in dims)
    vecs = np.array(np.meshgrid(*[np.arange(d) for d in dims], indexing="ij")).reshape(len(dims), -1).T
    strides = np.array([int(np.prod(dims[i + 1:])) for i in range(len(dims))], dtype=np.int64)
    leq = (vecs[:, None, :] <= vecs[None, :, :]).all(axis=2)
    meet = np.minimum(vecs[:, None, :], vecs[None, :, :]) @ strides
    join = np.maximum(vecs[:, None, :], vecs[None, :, :]) @ strides
    if identity:
        maps = [np.arange(d) for d in dims]
    else:
        maps = [_monotone_map(rng, d, normal) for d in dims]
    nab = np.stack([maps[i][vecs[:, i]] for i in range(len(dims))], axis=1) @ strides

    def join_reduce(cond):
        picked = np.where(cond[..., None], vecs[:, None, None, :], 0)
        return picked.max(axis=0) @ strides

    return _assemble(name, rng, leq, meet, join, nab.astype(np.int64), join_reduce)


def chain_instance(name, rng, size: int) -> Instance:
    """A chain with the identity nabla: the Heyting chain."""
    return product_instance(name, rng, (size,), identity=True)


def is_identity(inst: Instance) -> bool:
    return bool((inst.nabla == np.arange(inst.n)).all())


# --- spans ----------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """Embeddings f1: a0 -> a1 and f2: a0 -> a2 of the 2-chain (bounds to bounds)."""

    name: str
    a0: Instance
    a1: Instance
    a2: Instance
    f1: tuple
    f2: tuple
    heyting: bool
    expected_n: int


def amalgam_size(dims1, dims2) -> int:
    """Size of the amalgam of two chain products over the 2-chain.

    The prime frame of a product of chains is a disjoint union of chains
    with one point fewer; over the one-point base frame the pullback is the
    product poset, and the upsets of a p x q grid are the C(p + q, p)
    lattice paths.
    """
    out = 1
    for d1 in dims1:
        for d2 in dims2:
            out *= comb(d1 + d2 - 2, d1 - 1)
    return out


def _bounds_embedding(a0: Instance, a: Instance) -> tuple:
    out = [0] * a0.n
    out[a0.bot] = a.bot
    out[a0.top] = a.top
    return tuple(out)


def chain_span(name, rng, a: int, b: int, heyting: bool) -> Span:
    """Heyting chains of a and b elements glued at their bounds."""
    a0 = chain_instance(name + "/a0", rng, 2)
    a1 = chain_instance(name + "/a1", rng, a)
    a2 = chain_instance(name + "/a2", rng, b)
    return Span(name, a0, a1, a2, _bounds_embedding(a0, a1), _bounds_embedding(a0, a2),
                heyting, amalgam_size((a,), (b,)))


def small_span(name, rng, dims1, dims2) -> Span:
    """Two seeded normal chain products over the 2-chain, not both with identity nabla.

    Their nablas are 0 only at 0, so the bounds map preserves box and is an
    embedding.
    """
    a0 = chain_instance(name + "/a0", rng, 2)
    while True:
        a1 = product_instance(name + "/a1", rng, dims1, normal=True)
        a2 = product_instance(name + "/a2", rng, dims2, normal=True)
        if not (is_identity(a1) and is_identity(a2)):
            break
    return Span(name, a0, a1, a2, _bounds_embedding(a0, a1), _bounds_embedding(a0, a2),
                False, amalgam_size(dims1, dims2))


# --- documents ------------------------------------------------------------------


def algebra_doc(leq, nabla, arrow) -> dict:
    n = int(len(nabla))
    return {"kind": "nabla-algebra",
            "lattice": {"kind": "lattice", "n": n,
                        "leq": [[bool(v) for v in row] for row in leq]},
            "nabla": [int(v) for v in nabla],
            "arrow": [[int(v) for v in row] for row in arrow]}


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# Malformed classes from the CLI input contract; each must exit 2.
MALFORMED = ("float-table", "non-bool-leq", "bool-index", "top-level-array", "truncated-json")
MUTATIONS = ("broken-adjunction",) + MALFORMED


def mutate(doc_text: str, kind: str, rng) -> str | None:
    """Seeded mutation of one algebra document, or None when it does not apply."""
    doc = json.loads(doc_text)
    n = doc["lattice"]["n"]
    if kind == "broken-adjunction":
        if n < 2:
            return None
        a, b = (int(v) for v in rng.integers(0, n, size=2))
        old = doc["arrow"][a][b]
        doc["arrow"][a][b] = (old + 1 + int(rng.integers(0, n - 1))) % n
        return dumps(doc)
    if kind == "float-table":
        doc["nabla"] = [v + round(float(rng.uniform(0.05, 0.95)), 2) for v in doc["nabla"]]
        return dumps(doc)
    if kind == "non-bool-leq":
        if n < 2:
            return None
        doc["lattice"]["leq"] = [[int(rng.integers(2, 10)) if v else 0 for v in row]
                                 for row in doc["lattice"]["leq"]]
        return dumps(doc)
    if kind == "bool-index":
        flat = doc["nabla"] + [v for row in doc["arrow"] for v in row]
        if not any(v in (0, 1) for v in flat):
            return None
        doc["nabla"] = [bool(v) if v in (0, 1) else v for v in doc["nabla"]]
        doc["arrow"] = [[bool(v) if v in (0, 1) else v for v in row] for row in doc["arrow"]]
        return dumps(doc)
    if kind == "top-level-array":
        return dumps([doc])
    if kind == "truncated-json":
        text = dumps(doc)
        return text[: int(rng.integers(1, len(text)))]
    raise ValueError(kind)
