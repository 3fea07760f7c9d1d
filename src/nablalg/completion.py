"""Cut completion of an algebra through normal ideals.

A normal ideal is a subset fixed by the lower-bounds-of-upper-bounds
operator; equivalently an intersection of principal ideals (the cuts of
Davey & Priestley, *Introduction to Lattices and Order*, ch. 7).  The ideal
lattice carries a lifted modal pair,

    nabla(N) = join of the principal ideals of nabla over N
    arrow(M, N) = {x : nabla(x) & m in N for every m in M}

and the principal-ideal embedding preserves the whole signature.  The
closure of a set, ``lu_closure``, is two inclusion tests against the order
(upper bounds, then lower bounds), each one product of the lattice module's
boolean-relation kernel; the completion computes none.

On a finite lattice the completion is the algebra itself, relabelled (ibid.):
(a] & (b] = (a & b], so the normal ideals are the principal ideals, and
``is_normal_ideal`` asks ``lattice._generator`` whether a set is (g] for its
greatest member g.  The map g -> (g] is an order isomorphism onto the ideals,
so it carries meet, join and the bounds over; nabla is monotone, so the
union of the principal ideals of nabla over (g] is (nabla(g)], already
closed; and the lifted arrow is the residual of the lifted nabla, which the
isomorphism carries over from the input's arrow.  The ideals are ordered by
(size, members), ideal i being (order[i]], and ``dm_complete`` relabels
every table of the input by that order, the Heyting table with them
(``lattice._relabel``): one row take and one column take, the values
renamed.  The adjunction is the input's, decided when the input was built,
so the pair is assembled without a second decision; the embedding is checked
to preserve the signature, the Heyting table included, and to reflect the
order, and every property flag to carry over.  The construction by sets,
the ideals formed as membership rows, their lattice looked up from
intersections, the lifted nabla and box located among them and the arrow
found as a residual, is the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import FLAG_NAMES, AlgebraMorphism, NablaAlgebra, _assemble, check_morphism, classify
from .errors import ensure
from .lattice import (
    _freeze,
    _generator,
    _member_row,
    _relabel,
    _renamed,
    _row_order,
    _row_sets,
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


def upper_bounds(lat, members) -> frozenset:
    return _row_sets(_bound_rows(lat, _member_row(lat.n, members)[None], upper=True))[0]


def lower_bounds(lat, members) -> frozenset:
    return _row_sets(_bound_rows(lat, _member_row(lat.n, members)[None], upper=False))[0]


def lu_closure(lat, members) -> frozenset:
    return _row_sets(_closure_rows(lat, _member_row(lat.n, members)[None]))[0]


def is_normal_ideal(lat, members) -> bool:
    """A normal ideal of a finite lattice is a principal ideal (g]."""
    return _generator(lat, members, lower=True)[1]


def normal_ideals(alg: NablaAlgebra) -> list:
    """All intersections of principal ideals, canonically ordered by (size,
    members): the principal ideals (module docstring)."""
    return [NormalIdeal(alg, members) for members in _row_sets(_sorted_rows(alg.lat.leq.T))]


@dataclass(frozen=True)
class CompletedAlgebra:
    """The completion, its embedding, and the read-only membership rows of
    its normal ideals, which ``ideals`` turns into sets when it is read; the
    ideals take no part in equality or the repr, which the algebra and the
    embedding determine."""

    algebra: NablaAlgebra
    embedding: tuple
    morphism: AlgebraMorphism = field(compare=False, repr=False)
    ideal_rows: np.ndarray = field(compare=False, repr=False)

    @property
    def ideals(self) -> tuple:
        return tuple(NormalIdeal(self.morphism.source, m) for m in _row_sets(self.ideal_rows))


def dm_complete(alg: NablaAlgebra) -> CompletedAlgebra:
    """Build the ideal-lattice algebra with the lifted pair and the embedding.

    Ideal i is (order[i]] for ``order`` the (size, members) order of the
    principal ideals, and the embedding sends g to the index of (g]; every
    table, the Heyting table included, is the input's relabelled (module
    docstring).  The embedding is checked to preserve the signature (plus
    the Heyting table when present), to be injective and to reflect the
    order, and every property flag of the input to hold on the completion.
    """
    lat = alg.lat
    order = _row_order(lat.leq.T)
    ideal_lat, emb = _relabel(lat, order)
    completed = _assemble(ideal_lat, emb[alg.nabla[order]], _renamed(alg.arrow, order, emb))

    profile = classify(alg)
    morphism = AlgebraMorphism(source=alg, target=completed, map=tuple(emb.tolist()),
                               preserves_heyting=profile.H)
    rep = check_morphism(morphism)
    ensure(rep.ok and rep.injective, "canonical embedding must be an embedding")
    ensure((lat.leq == ideal_lat.leq.take(emb, axis=0).take(emb, axis=1)).all(),
           "canonical embedding must reflect order")
    missing = profile.flags().intersection(FLAG_NAMES[1:]) - classify(completed).flags()
    ensure(not missing, f"completion must keep flags {sorted(missing)}")
    return CompletedAlgebra(algebra=completed, embedding=morphism.map, morphism=morphism,
                            ideal_rows=_freeze(lat.leq.T[order]))
