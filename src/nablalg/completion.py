"""Cut completion of an algebra through normal ideals.

A normal ideal is a subset fixed by the lower-bounds-of-upper-bounds
operator; equivalently an intersection of principal ideals (the cuts of
Davey & Priestley, *Introduction to Lattices and Order*, ch. 7).  The ideal
lattice carries a lifted modal pair,

    nabla(N) = join of the principal ideals of nabla over N
    arrow(M, N) = {x : nabla(x) & m in N for every m in M}

and the principal-ideal embedding preserves the whole signature.  As in the
duality, a family of sets is one k x n boolean membership matrix (row i is
set i), and a computed set is looked up among the ideals by its packed bits.
The closure of a set, ``lu_closure``, is two inclusion tests against the
order (upper bounds, then lower bounds), each one product of the lattice
module's boolean-relation kernel; the completion computes none.  Four facts
of a finite lattice (ibid.) give it directly:

- the normal ideals are the principal ideals, since (a] & (b] = (a & b]:
  the family is the rows of the order, and ``is_normal_ideal`` asks
  ``lattice._generator`` whether a set is (g] for its greatest member g;
- ub(lu(S)) = ub(S), and a normal ideal is the lower bounds of its upper
  bounds, so the join of ideals I and J is the ideal whose upper bounds are
  ub(I) & ub(J): the upper bounds of (g] are [g), read off the order, and
  the lattice module's ``_family_lattice`` looks the meets up among the
  ideals and the joins among their upper bounds, and fails unless every
  pairwise intersection is an ideal;
- nabla is monotone, so with N = (g] the union of the principal ideals of
  nabla over N is the ideal (nabla(g)], already closed: the lifted nabla is
  one product and one lookup, with no closure;
- an ideal W lies inside arrow(M, N) iff nabla(W) & M lies inside N, so the
  lifted arrow is the residual of the lifted nabla on the ideal lattice,
  which ``derive_arrow`` finds and decides there.

No table is shortcut to the identity: the ideals are formed as sets, the
lifted nabla and box are computed sets located among them, the lifted arrow
is the residual of that nabla, and the embedding is checked to preserve and
reflect the whole signature, the arrow with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    FLAG_NAMES,
    AlgebraMorphism,
    NablaAlgebra,
    _assemble,
    check_morphism,
    classify,
    derive_arrow,
)
from .errors import ensure
from .lattice import (
    _compose,
    _family_lattice,
    _generator,
    _greatest,
    _locate,
    _member_row,
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


def _ideal_rows(lat):
    """Membership matrices of the principal ideals, ordered by (size,
    members), and of their upper bounds: those of (g] are [g)."""
    rows = _sorted_rows(lat.leq.T)
    return rows, lat.leq[_greatest(lat.leq, rows.T)[0]]


def normal_ideals(alg: NablaAlgebra) -> list:
    """All intersections of principal ideals, canonically ordered: the
    principal ideals (``dm_complete`` checks that no intersection is
    missing)."""
    return [NormalIdeal(alg, members) for members in _row_sets(_ideal_rows(alg.lat)[0])]


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

    The lifted nabla and box are computed sets located among the ideals; the
    lifted arrow is the residual of the lifted nabla, decided by
    ``derive_arrow``, and a nabla without one is a library bug.  The box
    formula is checked against the residual's box; the embedding is checked
    to preserve the signature (plus the Heyting table when present), to be
    injective, to transport every property flag, and, the carrier being
    finite, to be onto.
    """
    lat, n = alg.lat, alg.n
    rows, ub = _ideal_rows(lat)
    k = len(rows)
    ideal_lat = _family_lattice(rows, ub)
    ensure(ideal_lat is not None,
           "normal ideals must be principal, with the upper-bound intersections as joins")
    emb_arr, emb_found = _locate(rows, lat.leq.T)

    # nabla(N): the join of the principal ideals of nabla over N, which for
    # N = (g] is their union, the ideal (nabla(g)], nabla being monotone; so
    # the union is located as it is, and a union that is not closed is found
    # among no ideal
    image = _compose(rows, lat.leq.T[alg.nabla])
    nab_tab, found = _locate(rows, image)
    ensure(found.all(), "lifted nabla must land on a normal ideal")

    # arrow is the residual of nabla on the ideal lattice, which
    # `derive_arrow` finds and decides there
    arrow_tab = derive_arrow(ideal_lat, nab_tab)
    ensure(arrow_tab is not None, "the lifted nabla must have a residual")
    completed = _assemble(ideal_lat, nab_tab, arrow_tab)
    box_tab, found = _locate(rows, rows[:, alg.nabla])
    ensure(found.all() and (completed.box == box_tab).all(),
           "lifted box must be the nabla preimage")

    profile = classify(alg)
    morphism = AlgebraMorphism(source=alg, target=completed, map=tuple(emb_arr.tolist()),
                               preserves_heyting=profile.H)
    rep = check_morphism(morphism)
    ensure(emb_found.all() and rep.ok and rep.injective, "canonical embedding must be an embedding")
    ensure((lat.leq == ideal_lat.leq.take(emb_arr, axis=0).take(emb_arr, axis=1)).all(),
           "canonical embedding must reflect order")
    lifted = classify(completed)
    for flag in FLAG_NAMES[1:]:
        if getattr(profile, flag):
            ensure(getattr(lifted, flag), f"completion must keep flag {flag}")
    ensure(k == n, "finite completion must be a bijection")
    rows.setflags(write=False)
    return CompletedAlgebra(algebra=completed, embedding=morphism.map, morphism=morphism,
                            ideal_rows=rows)
