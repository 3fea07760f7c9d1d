"""Cut completion of an algebra through normal ideals.

A normal ideal is a subset fixed by the lower-bounds-of-upper-bounds
operator; equivalently an intersection of principal ideals (the cuts of
Davey & Priestley, *Introduction to Lattices and Order*, ch. 7).  The ideal
lattice carries a lifted modal pair,

    nabla(N) = join of the principal ideals of nabla over N
    arrow(M, N) = {x : nabla(x) & m in N for every m in M}

and the principal-ideal embedding preserves the whole signature.  As in the
duality, a family of sets is one k x n boolean membership matrix (row i is
set i): the closure of every row is two inclusion tests against the order
(upper bounds, then lower bounds), each one product of the lattice module's
boolean-relation kernel, and a computed set is looked up among the ideals by
its packed bits.  On finite carriers the embedding is a bijection; the generic
construction is still executed in full (upper/lower bound operators, joins
as closures of unions) so the lifted formulas themselves get exercised,
rather than shortcutting to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraMorphism,
    NablaAlgebra,
    build_algebra,
    check_morphism,
    classify,
)
from .errors import ensure
from .lattice import (
    _compose,
    _inclusion_lattice,
    _locate,
    _row_keys,
    _row_sets,
    _slabs,
    _sorted_rows,
    _subset,
)


@dataclass(frozen=True)
class NormalIdeal:
    algebra: NablaAlgebra = field(compare=False, repr=False)
    members: frozenset = frozenset()

    def to_json(self) -> list:
        return sorted(int(x) for x in self.members)


def _bound_rows(lat, rows: np.ndarray, upper: bool) -> np.ndarray:
    """Row i: the common upper (or lower) bounds of set i of ``rows``, the x
    whose principal ideal (filter) contains the set."""
    return _subset(rows, lat.leq.T if upper else lat.leq)


def _closure_rows(lat, rows: np.ndarray) -> np.ndarray:
    """Row i: the lower bounds of the upper bounds of set i of ``rows``."""
    return _bound_rows(lat, _bound_rows(lat, rows, upper=True), upper=False)


def _as_row(lat, members) -> np.ndarray:
    row = np.zeros((1, lat.n), dtype=bool)
    row[0, list(members)] = True
    return row


def upper_bounds(lat, members) -> frozenset:
    return _row_sets(_bound_rows(lat, _as_row(lat, members), upper=True))[0]


def lower_bounds(lat, members) -> frozenset:
    return _row_sets(_bound_rows(lat, _as_row(lat, members), upper=False))[0]


def lu_closure(lat, members) -> frozenset:
    return _row_sets(_closure_rows(lat, _as_row(lat, members)))[0]


def is_normal_ideal(lat, members) -> bool:
    return lu_closure(lat, members) == frozenset(members)


def _distinct(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a membership matrix."""
    return rows[np.unique(_row_keys(rows), return_index=True)[1]]


def _ideal_rows(lat) -> np.ndarray:
    """Membership matrix of all intersections of principal ideals, ordered
    by (size, members): the principal ideals (the rows of ``leq.T``) closed
    under pairwise intersection.  Every row must be a fixpoint of the
    lower-of-upper closure and, on a finite lattice, principal itself
    (intersections of principal ideals are principal via meets); both are
    checked.  Intersections are formed and deduplicated a slab at a time.
    """
    principals = lat.leq.T
    rows, size = principals, 0
    while len(rows) > size:
        size = len(rows)
        rows = _distinct(np.vstack([_distinct((rows[s, None] & rows[None]).reshape(-1, lat.n))
                                    for s in _slabs(size)]))
    rows = _sorted_rows(rows)
    ensure((_closure_rows(lat, rows) == rows).all(),
           "ideal family member fails the closure fixpoint")
    ensure(_locate(principals, rows)[1].all(),
           "normal ideals of a finite lattice must be principal")
    return rows


def normal_ideals(alg: NablaAlgebra) -> list:
    """All intersections of principal ideals, canonically ordered."""
    return [NormalIdeal(alg, members) for members in _row_sets(_ideal_rows(alg.lat))]


@dataclass(frozen=True)
class CompletedAlgebra:
    algebra: NablaAlgebra
    ideals: tuple
    embedding: tuple
    morphism: AlgebraMorphism = field(compare=False, repr=False)


def dm_complete(alg: NablaAlgebra) -> CompletedAlgebra:
    """Build the ideal-lattice algebra with the lifted pair and the embedding.

    Every lifted table entry is located through the generic formulas; the
    assembled algebra is re-validated; the embedding is checked to preserve
    the signature (plus the Heyting table when present), to be injective,
    to transport every property flag, and, the carrier being finite, to be
    onto.
    """
    lat, n = alg.lat, alg.n
    rows = _ideal_rows(lat)
    k = len(rows)
    ideal_lat = _inclusion_lattice(rows)
    # here and in the lifted arrow, a slab of first ideals at a time, so no
    # k x k x n table of unions or sets is held whole (k = n, checked below)
    ensure(all((rows[ideal_lat.join[s].ravel()]
                == _closure_rows(lat, (rows[s, None] | rows[None]).reshape(-1, n))).all()
               for s in _slabs(k)),
           "ideal join must be the closure of the union")

    # nabla(N): the closure of the OR of the principal ideals of nabla over N
    image = _compose(rows, lat.leq.T[alg.nabla])
    nab_tab, found = _locate(rows, _closure_rows(lat, image))
    ensure(found.all(), "lifted nabla must land on a normal ideal")

    # arrow(M, N): the x for which every m in M has nabla(x) & m in N; row
    # (j, x) of the right-hand side holds the m with nabla(x) & m in ideal j
    arrow_tab = np.zeros((k, k), dtype=np.int64)
    found = True
    for s in _slabs(k):
        arrow = _subset(rows, rows[s][:, lat.meet[alg.nabla]].reshape(-1, n))
        pos, hit = _locate(rows, arrow.reshape(-1, n))
        arrow_tab[:, s] = pos.reshape(k, -1)
        found = found and hit.all()
    ensure(found, "lifted arrow must land on a normal ideal")

    completed = build_algebra(ideal_lat, nab_tab, arrow_tab)
    box_tab, found = _locate(rows, rows[:, alg.nabla])
    ensure(found.all() and (completed.box == box_tab).all(),
           "lifted box must be the nabla preimage")

    emb_arr, found = _locate(rows, lat.leq.T)
    profile = classify(alg)
    morphism = AlgebraMorphism(source=alg, target=completed, map=tuple(emb_arr.tolist()),
                               preserves_heyting=profile.H)
    rep = check_morphism(morphism)
    ensure(found.all() and rep.ok and rep.injective, "canonical embedding must be an embedding")
    ensure((~lat.leq == ~ideal_lat.leq[emb_arr[:, None], emb_arr[None, :]]).all(),
           "canonical embedding must reflect order")
    lifted = classify(completed)
    for flag in ("H", "N", "R", "L", "Fa", "Fu"):
        if getattr(profile, flag):
            ensure(getattr(lifted, flag), f"completion must keep flag {flag}")
    ensure(k == n, "finite completion must be a bijection")
    return CompletedAlgebra(algebra=completed, embedding=morphism.map, morphism=morphism,
                            ideals=tuple(NormalIdeal(alg, m) for m in _row_sets(rows)))
