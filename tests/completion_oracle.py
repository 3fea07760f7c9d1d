"""The completion by sets, the route ``dm_complete``'s relabelling replaced,
kept as its oracle.

The principal ideals are formed as membership rows in (size, members) order,
with their upper bounds (those of (g] are [g), read off the order) as
co-rows; ``lattice._family_lattice`` looks the meets up among the ideals and
the joins among the upper bounds, and fails unless every pairwise
intersection is a row.  The lifted nabla, the union of the principal ideals
of nabla over (g], and the lifted box, the nabla preimage of each ideal, are
computed sets located among the ideals; the lifted arrow is the residual of
the lifted nabla, which ``derive_arrow`` finds and decides on the ideal
lattice.  Each step is an ``ensure``, so a failure raises
``CrossCheckError`` as the library's cross-checks do.
"""

import numpy as np

from nablalg.algebra import (
    FLAG_NAMES,
    AlgebraMorphism,
    _assemble,
    check_morphism,
    classify,
    derive_arrow,
)
from nablalg.completion import CompletedAlgebra
from nablalg.errors import ensure
from nablalg.lattice import _compose, _family_lattice, _greatest, _locate, _sorted_rows


def ideal_family(lat):
    """Membership matrices of the principal ideals, ordered by (size,
    members), and of their upper bounds: those of (g] are [g)."""
    rows = _sorted_rows(lat.leq.T)
    return rows, lat.leq[_greatest(lat.leq, rows.T)[0]]


def ideal_set_completion(alg):
    """The completion with its ideals formed and looked up as sets, and the
    lifted arrow derived as a residual; every result is checked as the
    library checked it."""
    lat, n = alg.lat, alg.n
    rows, ub = ideal_family(lat)
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


def completion_arrays(comp):
    """Every array and value of a completion, by name: the ideal lattice's
    order, tables, covers and bounds, the lifted pair, box and Heyting table,
    the embedding and the ideal rows."""
    alg, lat = comp.algebra, comp.algebra.lat
    return {"leq": lat.leq, "meet": lat.meet, "join": lat.join, "covers_lo": lat.covers[0],
            "covers_hi": lat.covers[1], "bot": lat.bot, "top": lat.top, "nabla": alg.nabla,
            "arrow": alg.arrow, "box": alg.box, "heyting": alg.heyting,
            "embedding": comp.embedding, "ideal_rows": comp.ideal_rows}


def _same(a, b) -> bool:
    """Equal values, and for arrays the same dtype and shape too."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.dtype == b.dtype
                and np.array_equal(a, b))
    return a == b


def completion_differences(got, want) -> list:
    """The names of the arrays and values in which two completions differ."""
    got, want = completion_arrays(got), completion_arrays(want)
    return [name for name in got if not _same(got[name], want[name])]
