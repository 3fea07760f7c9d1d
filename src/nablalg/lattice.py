"""Finite bounded lattices as index tables.

Elements are the indices ``0..n-1``; all structure is stored in tables:
an ``n x n`` boolean order matrix ``leq`` plus derived ``meet``/``join``
element-index tables.  Everything downstream (classification, congruences,
completions, duality) lives on top of these tables, so construction is
strict: ``build_lattice`` rejects anything that is not a bounded lattice,
and the tables it returns are true meets and joins, so every lattice law
holds by construction.

Every relational product of the library (transitivity, frame compatibility,
relation images, congruence squarings) goes through one kernel, ``_compose``,
and every inclusion test of membership matrices through its dual ``_subset``.
Every first witness of the library, of a law report or of a failed
construction, is found by one scan, ``_violations``: a law over triples is a
function of a slice of its first variable, evaluated a slab of about
``SCAN_SLAB`` entries at a time up to its first failing slab, so no law check
holds an n^3 table.

Lattices, algebras and frames are immutable, and what is derived from one
of them is computed once and kept on it by one helper, ``_kept``: here the
distributivity verdict and witness, the join-primes, the Heyting table and
the generators of the prime filters.

Order facts are decided without the n^3 table of all triples, mostly on
the covering relation ``covers`` (the strict order minus its square, found
by the product that also checks transitivity); see Davey & Priestley,
*Introduction to Lattices and Order*, ch. 1, 2 and 5:

- the join-irreducibles are the elements with exactly one lower cover: a
  join of two strictly smaller elements has at least two, and an element
  with two lower covers is their join;
- a is join-prime iff the x with a not below x, a down-set, are closed
  under joins, that is iff they have a greatest element k(a);
  ``_join_primes`` counts that for every element, O(n^2) in all.  A
  join-prime a = x | y lies below x or y and so equals one of them: it is
  join-irreducible;
- a finite lattice is distributive iff every join-irreducible is
  join-prime, that is iff a -> (join-irreducibles below a) preserves binary
  joins; ``is_distributive`` decides so, and where the test fails checks on
  the tables one failing triple, O(n^2): for j join-irreducible but not
  join-prime and x, y two maximal elements not above j,
  j & (x | y) = j != (j & x) | (j & y).  Only ``distributivity_witness``
  scans the triples, for the lexicographically first witness;
- a map is monotone iff it is monotone on covering pairs, the order being
  their reflexive-transitive closure; ``_monotone`` checks nabla and arrow
  so.

Residuation, nab(c) & a <= b iff c <= arr(a, b) for all a, b, c, is for each
a a Galois connection between c -> nab(c) & a and b -> arr(a, b) (ibid.
ch. 7), and ``_residuated`` decides it without the n^3 table of triples:
both maps monotone (on covers), the counit a & nab(arr(a, b)) <= b and the
unit c <= arr(a, nab(c) & a), O(n |covers| + n^2) in all.  It has two
callers: ``_build_heyting_table``, for the identity with the Heyting table,
and ``algebra._decided``, for every other pair of ``build_algebra`` and
``derive_arrow``.  The identity's residual is the Heyting table, so
``_decided`` settles that pair by comparison with the kept table, and no
pair is decided twice; ``classify`` restates its three-variable
cross-checks over pairs by lemmas of the validated adjunction (see there).

Tables are found in join-irreducible coordinates (Birkhoff's representation,
ibid. ch. 2 and 5).  In a finite lattice every x is the join of J(x), the
join-irreducibles below it, so x -> J(x) is an order embedding, and
J(a & b) = J(a) & J(b); dually M(x), the meet-irreducibles above x,
embeds the dual order and M(a | b) = M(a) & M(b).  So O(n^2 |J|) work, the
rows packed into bits where they are looked up, replaces the n^3 cubes of
candidates:

- a finite order has all binary meets iff x -> J(x) reflects the order and
  every J(a) & J(b) is some J(x), which is then a & b: it lies below a and
  b, and every lower bound y has J(y) inside it.  Conversely, where all
  meets exist, a minimal z below x and not below y has one lower cover (two
  would both lie below y, and so would their join z), so the rows reflect
  the order.  Only when the test fails are the pairs scanned, a slab of
  first elements at a time, to name the first without a meet (or join);
- the lookup finds meet[a, b] with J(meet[a, b]) = J(a) & J(b), and the
  rows embed the order, so the table is associative: (a & b) & c and
  a & (b & c) have the one row J(a) & J(b) & J(c);
- where the greatest c with nab(c) & a <= b exists, j <= c iff
  nab(j) & a <= b, so c is the join of those j; on a lattice without a
  Heyting table ``_residual`` folds that join over J, one n x n table per j,
  and ``algebra._decided`` decides whether the result is the residual.

The first argument holds for any rows that embed the order
(``_intersection_table``).  A family of sets closed under intersection is its
own meet coordinates, and co-rows that reverse inclusion and are closed under
intersection give its joins (``_family_lattice``): the complements of a family
closed under union, or the upper bounds of the normal ideals.

On a distributive lattice both residuals cost O(n^2), with no |J| factor
(ibid. ch. 5 and 7).  Past ``CUBE_MAX`` the Heyting table follows from the
covers (``_cover_heyting``): bottom -> b is top, an element with two lower
covers is their join and (c1 | c2) -> b = (c1 -> b) & (c2 -> b), and a
join-irreducible j with lower cover j* has j -> b = k(j) & (j* -> b) where j
is not below b, for k(j) the greatest element not above j.  Every k(j)
exists iff every join-irreducible is join-prime, that is iff the lattice is
distributive.  The residual of a nabla is then arrow(a, b) = box(a -> b), for
box the right adjoint of nabla (``_residual``).  The dependency runs one way: the residual
reads the Heyting table, which never calls the residual.

The same k serves three callers, found by one helper, ``_kappa``: the
recursion above, the prime filters and the prime frame of ``kripke``.  In a
finite lattice every prime filter is [p) for a join-prime p, and the
elements outside it are the principal ideal (k(p)]; so each prime filter is
checked by one comparison of rows, O(n), and ``_primes`` keeps the
generators p and their k(p) on the lattice.  Any filter of a finite lattice
is [g) for its least member g, and any ideal (g] for its greatest, so one
helper, ``_generator``, reads a set's g and whether the set is [g) (or (g]),
O(n^2): ``is_prime_filter`` then checks k(g), ``congruence.is_modal_filter``
nabla(g) = g, and ``completion.is_normal_ideal`` takes the principal ideals.
Input is read without a cast: a member set by ``_member_row``, and every
index table, map and block vector by ``_indices``; an entry that is not an
integer raises ``ShapeError``.

The meet and join tables come from the coordinates at every size, and the
residual from box o Heyting or the join over J at every size; up to
``CUBE_MAX`` elements the cube ``_greatest`` gives the Heyting table, and the
adjunction's two sides are compared on all triples, which costs less there.
Every lookup of packed rows (here, and the ``_locate`` calls of the duality
and the completion) is one function, ``_lookup``: from ``HASH_MIN`` queries
on, each row costs O(1) in a collision-free hash table of the keys.

``all_lattices`` grows lattices one atom at a time (class counts: OEIS
A006966; Heitzig & Reinhold, *Counting finite lattices*, 2002).  Removing an
atom from a lattice with at least 3 elements leaves a lattice: meets that
were the atom become bottom, and joins do not change.  Conversely, a new
atom above bottom and below exactly the members of an upset U gives a
lattice iff U is nonempty, misses bottom and holds the meet of any two
members unless it is bottom: then the atom meets x in itself or bottom, and
joins x != bottom in the least member of U above x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NablalgError,
    NoBounds,
    NoJoin,
    NoMeet,
    NotPartialOrder,
    ShapeError,
    TooLarge,
    ensure,
)

# A valid algebra passes validation and gets its Heyting table and residual
# without an n^3 table (`classify` of the Heyting 256-chain document peaks
# near 6 MB).  The law reports and the witness scans of failures hold one slab
# of `SCAN_SLAB` entries at a time, so they cost n^3 time, not memory: each law
# report on the Heyting Boolean 2^8 takes 0.2-1.4 s and peaks under 2 MB.  So
# larger documents are refused before any table is read, and no poset may have
# more upsets than this; 256 admits the Boolean 2^8 and the 252-element
# amalgam of a 2-chain into two 6-chains.
SIZE_MAX = 256

# Up to this many elements the Heyting table is the n^3 cube of `_greatest`
# and `_residuated` compares the adjunction's two sides on all triples; these
# are the only two uses of the bound.  On one core the Galois test pays off
# from about 28 elements, and forcing it below 12 made `algebra_from_json`
# 0.1-0.2 ms slower per catalog document; the Heyting recursion over lower
# covers took 22 us a lattice against the cube's 16 us over the 78 lattices of
# at most 7 elements.  The meet and join tables come from the coordinates at
# every size, whose lookup decides associativity too: without their cubes
# `build_lattice` went 280 -> 199 us per catalog lattice (n <= 5), 287 -> 199
# at 7 and 281 -> 206 at 8 elements.
CUBE_MAX = 12


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean relational product, also of stacked batches: ``[..., i, j]``
    holds when some k has ``a[..., i, k]`` and ``b[..., k, j]``.  The float32
    product counts those k; the counts are sums of non-negative ones, so a
    count is zero iff no k exists, at any size."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def _subset(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[..., i, j]``: row i of ``a`` lies inside row j of ``b``."""
    return ~_compose(a, ~np.swapaxes(b, -1, -2))


def _slabs(n: int, row: int | None = None, size: int = 2 ** 20) -> list:
    """Slices of 0..n-1, each cutting a table of n rows of ``row`` entries
    (n^2 by default) to about ``size`` entries; a single slice for n <= 101 at
    the defaults."""
    row = n * n if row is None else row
    step = max(1, size // row)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


# Entries per slab of a law that `_violations` evaluates by slabs: one first
# argument a slab from 256 elements on, whose int64 temporaries (512 KB) stay
# in cache.  On one core, against 2^18 entries, the equational and
# implication reports on the Heyting 256-chain took 0.3 and 0.6 times as long
# (medians of 3 runs), the other reports there and on the Heyting Boolean 2^8
# 0.97-1.14 times; the tracemalloc peaks fell from 3.6-4.5 to 1.2-1.8 MB, and
# naming the distributivity witness of the N5 x 40-chain took 16-22 ms against
# 80-135 ms.  Every law of at most 40 elements is one slab.
SCAN_SLAB = 2 ** 16


@dataclass(frozen=True)
class Violation:
    law: str
    witness: tuple

    def to_json(self) -> dict:
        return {"axiom": self.law, "witness": [int(v) for v in self.witness]}


def _violations(laws, n: int = 0) -> tuple:
    """The failing laws among ``(name, mask)`` and ``(name, mask, axes)``
    entries: the one search for a first witness in the library.

    A mask is true where its law holds.  It is an array (a 0-d mask states a
    law without variables and fails with the witness ()), or a function of a
    slice of its leading axis, of length ``n``, that returns those rows of a
    mask of n^3 entries (or of n^2 entries that take n^3 to compute); such a
    mask is evaluated a slab of about ``SCAN_SLAB`` entries at a time, up to
    its first failing slab.  A failed law's witness is the first false entry
    of its mask in row-major order, with its indices taken in ``axes`` order
    when that is given (a law scanned c-major reports (a, b, c)).  A name
    given several masks reports its first failing one.
    """
    found = {}
    for name, mask, *axes in laws:
        if name in found:
            continue
        parts = (((s.start, mask(s)) for s in _slabs(n, size=SCAN_SLAB)) if callable(mask)
                 else [(0, mask)])
        for start, part in parts:
            part = np.asarray(part)
            if not part.all():
                first = np.unravel_index(int(part.argmin()), part.shape)
                first = (first[0] + start,) + first[1:] if first else ()
                order = axes[0] if axes else range(len(first))
                found[name] = Violation(name, tuple(int(first[i]) for i in order))
                break
    return tuple(found.values())


def validate_partial_order(leq) -> np.ndarray:
    """Return the matrix if reflexive, antisymmetric and transitive; raise with a witness otherwise."""
    return _partial_order(leq)[0]


def _partial_order(leq):
    """The validated order matrix and its covering pairs as two index arrays
    (lo, hi): hi covers lo, that is lo < hi with nothing strictly between, in
    row-major order.

    One product of the strict order serves both: on a reflexive relation the
    square adds a pair outside the order iff the strict square does, and the
    covers are the strict order minus its square.
    """
    arr = np.asarray(leq, dtype=bool)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"order matrix must be square, got shape {arr.shape}")
    strict = arr.copy()
    np.fill_diagonal(strict, False)
    square = _compose(strict, strict)
    # each law is named by the message of its failure
    failed = _violations([("not reflexive at {0}", arr.diagonal()),
                          ("antisymmetry fails on ({0}, {1})", ~(strict & strict.T)),
                          ("transitivity fails: {0} <= {1} <= {2} but not {0} <= {2}",
                           arr | ~square)])
    if failed:
        message, witness = failed[0].law, failed[0].witness
        if message.startswith("transitivity"):
            i, j = witness
            witness = (i, int(np.flatnonzero(arr[i] & arr[:, j])[0]), j)
        raise NotPartialOrder(message.format(*witness), witness=witness)
    lo, hi = np.nonzero(strict & ~square)
    return arr, (_freeze(lo), _freeze(hi))


def _greatest(order: np.ndarray, cand: np.ndarray):
    """Greatest candidate at every position, and where one exists.

    ``order[x, y]`` says x lies below y; ``cand[c, ...]`` says c is a
    candidate at a position.  A greatest candidate has a strictly larger
    principal downset than every other candidate, so only the candidate with
    the largest downset needs testing: ``found`` marks the positions that
    have a candidate and where every candidate lies below it.  Pass
    ``leq.T`` as the order to find least elements.
    """
    rank = np.argsort(-order.sum(axis=0), kind="stable")
    table = rank[cand[rank].argmax(axis=0)]
    found = cand.any(axis=0) & (cand <= order[:, table]).all(axis=0)
    return table, found


def _irreducible(covers: tuple, n: int, lower: bool = True) -> np.ndarray:
    """Mask of the elements with one lower cover (``lower``: the
    join-irreducibles J, the coordinates of meets) or with one upper cover
    (the meet-irreducibles M, the coordinates of joins)."""
    return np.bincount(covers[1 if lower else 0], minlength=n) == 1


def _intersection_table(rows: np.ndarray, rel: np.ndarray):
    """``table[a, b]``, the x whose row is rows[a] & rows[b], or None when
    some intersection is no row or the rows do not reflect the order ``rel``;
    rows that embed ``rel`` so give its meets (module docstring)."""
    packed = np.packbits(rows, axis=-1)
    keys = _keys(packed)
    if keys.dtype.kind == "u":
        # the AND of two integer keys is the key of the intersection
        table, found = _lookup(keys, keys[:, None] & keys[None, :])
    else:
        # byte-string keys, a slab of first rows at a time
        table = np.empty((len(keys),) * 2, dtype=np.intp)
        found = np.empty(table.shape, dtype=bool)
        for s in _slabs(len(keys), packed.size):
            table[s], found[s] = _lookup(keys, _keys(packed[s, None] & packed[None, :]))
    # row a lies inside row b, that is rows[a] & rows[b] = rows[a], iff a rel
    # b; read off the table, this also fails where two elements share a row,
    # since the lookup finds that row at one of them only
    if found.all() and ((table == np.arange(len(rel))[:, None]) == rel).all():
        return table
    return None


def _coordinate_bound_table(leq: np.ndarray, covers: tuple, lower: bool) -> np.ndarray:
    """All-pairs meets (``lower=True``) or joins, looked up in the
    coordinates J(x) (for joins M(x), the meet-irreducibles above x); only
    when the lookup fails are the pairs scanned, a slab of first elements at
    a time, for the first one without a meet (or join)."""
    rel = leq if lower else leq.T
    table = _intersection_table(rel[_irreducible(covers, len(rel), lower)].T, rel)
    if table is not None:
        return table
    # [a, b]: the common lower (upper) bounds x of a and b have a greatest one
    failed = _violations([("bound", lambda s: _greatest(rel, rel[:, s, None] & rel[:, None, :])[1])],
                         len(rel))
    ensure(bool(failed), "the coordinate lookup must fail only where some pair has no bound")
    a, b = failed[0].witness
    if lower:
        raise NoMeet(f"elements {a} and {b} have no meet", witness=(a, b))
    raise NoJoin(f"elements {a} and {b} have no join", witness=(a, b))


def _residual(lat: FiniteLattice, nab: np.ndarray) -> np.ndarray:
    """``table[a, b]``, the greatest c with nab(c) & a <= b wherever the
    residual exists, by one of two routes at every size; the caller,
    ``algebra.derive_arrow``, checks with ``algebra._decided`` that it does,
    and a table that passes is the residual, since the adjunction
    determines it.

    On a lattice with a Heyting table ->, the residual is box(a -> b) for
    box(b), the greatest c with nab(c) <= b: c <= box(a -> b) iff
    nab(c) <= a -> b iff nab(c) & a <= b.  So box, O(n^2), then one gather; a
    box can exist for a nabla with no residual (one that is not monotone),
    which ``_residuated`` rejects.  Elsewhere it is the join ``_join_residual``.
    """
    heyting = heyting_table(lat)
    if heyting is None:
        return _join_residual(lat, nab)
    return _greatest(lat.leq, lat.leq[nab])[0][heyting]


def _join_residual(lat: FiniteLattice, nab: np.ndarray) -> np.ndarray:
    """``table[a, b]``, the join of the join-irreducibles j with
    nab(j) & a <= b: where the residual exists, j <= arrow(a, b) iff
    nab(j) & a <= b, and every element is the join of the join-irreducibles
    below it.  One pass per j over an n x n table, O(n^2 |J|)."""
    table = np.full((lat.n, lat.n), lat.bot, dtype=np.intp)
    for j in join_irreducibles(lat):
        table = np.where(lat.leq[lat.meet[nab[j]]], lat.join[j].take(table), table)
    return table


# From this many table entries `_at` gathers a pair as one take of flat
# positions, and below it by numpy's two-index gather, whose fixed cost is
# lower.  Gathering [a, arrow(a, b)] from an n x n table by the flat take
# against numpy's gather took 1.9 against 0.9 us at n = 5, 2.3-2.4 against
# 1.8 at n = 16, 2.7-2.8 against 2.8-2.9 at n = 24, 3.2 against 4.3 at n = 32
# and 13.7-14.3 against 30.4-30.6 at n = 96 (one core of a 2-vCPU Xeon host,
# numpy 2.4, min of 7 timeit runs in each of two processes).
TAKE_MIN = 24 * 24


def _at(table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``table[rows, cols]``, broadcast: the one pair gather of the library
    (``tests/test_layering.py`` fails on a two-index gather with a broadcast
    index anywhere else), one take of flat positions from ``TAKE_MIN``
    table entries on."""
    if table.size < TAKE_MIN:
        return table[rows, cols]
    return table.ravel().take(rows * table.shape[1] + cols)


def _monotone(order: np.ndarray, covers: tuple, maps: np.ndarray) -> bool:
    """Whether every row of ``maps``, a map of the lattice, sends each covering
    pair lo < hi of ``covers`` into ``order``: f(lo) order f(hi).  The lattice
    order is the transitive closure of its covers, so this is monotonicity for
    ``leq`` and antitonicity for ``leq.T``.

    The values f(lo) and f(hi) are taken from the int32 rows of the
    transposed maps, which costs a fraction of gathering int64 columns, and
    about 2^14 pairs at a time, so that the temporaries stay in cache."""
    lo, hi = covers
    # `_at` reads the order flat: one copy here, when it is a transposed view
    order = np.ascontiguousarray(order)
    cols = maps.T.astype(np.int32, order="C")
    step = max(1, 2 ** 14 // cols.shape[1])
    for s in range(0, len(lo), step):
        if not _at(order, cols.take(lo[s:s + step], axis=0),
                   cols.take(hi[s:s + step], axis=0)).all():
            return False
    return True


def _adjunction(lat: FiniteLattice, nab: np.ndarray, arr: np.ndarray, s: slice) -> np.ndarray:
    """[a, b, c], for the first arguments a in ``s``: nab(c) & a <= b iff
    c <= arr(a, b).  Whole rows are gathered: leq[meet[a, nab(c)]] is
    indexed [a, c, b], and the rows of the transposed order [a, b, c]."""
    leq, leq_t = lat.leq, np.ascontiguousarray(lat.leq.T)
    return leq[lat.meet[s][:, nab]].transpose(0, 2, 1) == leq_t[arr[s]]


def _detachment(lat: FiniteLattice, nab: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """[a, b]: a & nab(arr(a, b)) <= b."""
    idx = np.arange(lat.n)
    return _at(lat.leq, _at(lat.meet, idx[:, None], nab[arr]), idx)


def _residuated(lat: FiniteLattice, nab: np.ndarray, arr: np.ndarray) -> bool:
    """Whether nab(c) & a <= b iff c <= arr(a, b) for all a, b, c, decided in
    O(n |covers| + n^2) without the tables of triples.

    For each a, f(c) = nab(c) & a and g(b) = arr(a, b) form a Galois
    connection iff both are monotone, f(g(b)) <= b and c <= g(f(c)) (Davey &
    Priestley, ch. 7): nab monotone on covers, arr monotone in its second
    argument on covers, detachment a & nab(arr(a, b)) <= b, and the unit
    c <= arr(a, nab(c) & a).  Then nab(c) & a <= b gives
    c <= arr(a, nab(c) & a) <= arr(a, b), and c <= arr(a, b) gives
    nab(c) & a <= nab(arr(a, b)) & a <= b; each of the four follows from the
    adjunction in turn.  Up to ``CUBE_MAX`` elements the two sides of the
    adjunction are compared on all triples, which costs less there.
    """
    if lat.n <= CUBE_MAX:
        return bool(_adjunction(lat, nab, arr, slice(None)).all())
    idx = np.arange(lat.n)
    # [a, c]: c <= arr(a, nab(c) & a)
    unit = _at(lat.leq, idx, _at(arr, idx[:, None], lat.meet[:, nab]))
    return (_monotone(lat.leq, lat.covers, nab[None]) and _monotone(lat.leq, lat.covers, arr)
            and bool(_detachment(lat, nab, arr).all()) and bool(unit.all()))


class FiniteLattice:
    """Validated bounded lattice; immutable after construction.  ``covers``
    holds the covering pairs (lo, hi)."""

    __slots__ = ("n", "leq", "meet", "join", "bot", "top", "covers", "_kept")

    def __init__(self, leq, meet, join, bot, top, covers):
        self.n = int(leq.shape[0])
        self.leq = _freeze(leq)
        self.meet = _freeze(meet)
        self.join = _freeze(join)
        self.bot = int(bot)
        self.top = int(top)
        self.covers = covers
        self._kept = {}

    def upset_of(self, a: int) -> frozenset:
        """Principal filter [a)."""
        return frozenset(int(x) for x in np.flatnonzero(self.leq[a]))

    def downset_of(self, a: int) -> frozenset:
        """Principal ideal (a]."""
        return frozenset(int(x) for x in np.flatnonzero(self.leq[:, a]))

    def meet_all(self, xs) -> int:
        out = self.top
        for x in xs:
            out = int(self.meet[out, x])
        return out

    def join_all(self, xs) -> int:
        out = self.bot
        for x in xs:
            out = int(self.join[out, x])
        return out

    def __repr__(self):
        return f"FiniteLattice(n={self.n})"


def _kept(obj, build):
    """``build(obj)``, computed on the first call for ``obj`` and kept on it
    (a ``None`` result too); ``obj`` is a lattice, an algebra or a frame,
    each immutable.  The builder itself is the key, so it must be a private
    function that nothing rebinds."""
    kept = obj._kept
    if build not in kept:
        kept[build] = build(obj)
    return kept[build]


def build_lattice(leq) -> FiniteLattice:
    """Validate an order matrix and derive meet/join tables and the bounds.

    Rejects non-posets (with a witness tuple), posets where some pair lacks
    a meet or a join, and the empty carrier.  The lookup that finds the
    tables finds true meets and joins (``_coordinate_bound_table``), so the
    lattice laws hold by construction, and a nonempty finite order with all
    binary meets and joins has both bounds.
    """
    arr, covers = _partial_order(leq)
    if arr.shape[0] == 0:
        raise NoBounds("empty carrier has no bounds")
    meet = _coordinate_bound_table(arr, covers, lower=True)
    join = _coordinate_bound_table(arr, covers, lower=False)
    return FiniteLattice(arr.copy(), meet, join, arr.all(axis=1).argmax(), arr.all(axis=0).argmax(),
                         covers)


def distributivity_witness(lat: FiniteLattice):
    """None when the distributive law holds; otherwise the first bad (a, b, c).

    Decided by ``is_distributive``; only a lattice that fails that test, and
    only when its witness is asked, pays for the scan of the triples that
    finds the lexicographically first witness.
    """
    return None if is_distributive(lat) else _kept(lat, _build_distributivity_witness)


def _build_distributivity_witness(lat: FiniteLattice):
    m, j, idx = lat.meet, lat.join, np.arange(lat.n)
    # [a, b, c]: a & (b | c) = (a & b) | (a & c); `is_distributive` checked a
    # failing triple, so the scan finds one
    return _violations([("distributive", lambda s: _at(m, idx[s, None, None], j)
                         == _at(j, m[s, :, None], m[s, None, :]))], lat.n)[0].witness


def is_distributive(lat: FiniteLattice) -> bool:
    """Whether each join-irreducible is join-prime (every join-prime is
    join-irreducible), which on a finite lattice is the distributive law."""
    return _kept(lat, _build_distributive)


def _build_distributive(lat: FiniteLattice) -> bool:
    irr, primes = join_irreducibles(lat), _join_primes(lat)
    if np.array_equal(primes, irr):
        return True
    # a join-irreducible j that is not join-prime, and x, y two maximal
    # elements of the down-set of the z with j not below z: j <= x | y, while
    # j & x and j & y lie below the one lower cover of j, so
    # j & (x | y) = j != (j & x) | (j & y); the tables must show it.  Where
    # no such j, x, y exist, bottom stands in for them and the check fails
    j = min(set(irr) - set(primes), default=lat.bot)
    outside = ~lat.leq[j]
    maximal = np.flatnonzero(outside & ((lat.leq & outside).sum(axis=1) == 1)).tolist()
    x, y = (maximal + [lat.bot] * 2)[:2]
    m, jn = lat.meet, lat.join
    ensure(m[j, jn[x, y]] != jn[m[j, x], m[j, y]], "distributivity characterizations disagree")
    return False


def heyting_table(lat: FiniteLattice):
    """Relative pseudocomplement table, or None when some pair has no maximum.

    ``table[a, b]`` is the greatest c with c & a <= b.  On a finite lattice
    the table exists exactly when the lattice is distributive; that
    equivalence is re-checked on every call path.
    """
    return _kept(lat, _build_heyting_table)


def _build_heyting_table(lat: FiniteLattice):
    if lat.n <= CUBE_MAX:
        table, found = _greatest(lat.leq, lat.leq[lat.meet])
        exists = bool(found.all())
    else:
        table, exists = _cover_heyting(lat)
    if exists:
        ensure(_residuated(lat, np.arange(lat.n), table), "pseudocomplement not residuated")
    ensure(exists == is_distributive(lat), "pseudocomplements exist iff distributive")
    return _freeze(table) if exists else None


def _kappa(lat: FiniteLattice, elems) -> tuple:
    """k(p) for each p of ``elems``, the greatest element not above p, and
    where it exists: for p other than bottom, exactly where p is join-prime
    (module docstring)."""
    return _greatest(lat.leq, ~lat.leq[elems].T)


def _cover_heyting(lat: FiniteLattice):
    """The Heyting table by recursion over lower covers, and whether it
    exists; O(n^2) in all.

    Row a is a -> -, and the rows are computed in order of increasing
    down-set size: bottom -> b is top; an a with two lower covers c1, c2 is
    their join, and (c1 | c2) -> b = (c1 -> b) & (c2 -> b); a
    join-irreducible j with lower cover j* has j -> b = top where j <= b and
    k(j) & (j* -> b) elsewhere, for k(j) the greatest element not above j.
    For j not below b, c & j <= b iff j is not below c and c & j* <= b,
    since c & j < j lies below j*.  Every k(j) exists iff every
    join-irreducible is join-prime, that is iff the lattice is distributive
    (module docstring); a missing one means no table.
    """
    n, leq, meet, top = lat.n, lat.leq, lat.meet, lat.top
    irr = _irreducible(lat.covers, n)
    kappa, found = _kappa(lat, slice(None))
    if not found[irr].all():
        return None, False
    # the least and the greatest lower cover of each element: equal on J
    lo, hi = lat.covers
    first, last = np.full(n, n), np.full(n, -1)
    np.minimum.at(first, hi, lo)
    np.maximum.at(last, hi, lo)
    table = np.empty((n, n), dtype=np.intp)
    table[lat.bot] = top
    first, last, kappa, single = first.tolist(), last.tolist(), kappa.tolist(), irr.tolist()
    for a in np.argsort(leq.sum(axis=0), kind="stable")[1:].tolist():
        if single[a]:
            table[a] = np.where(leq[a], top, meet[kappa[a]].take(table[first[a]]))
        else:
            table[a] = _at(meet, table[first[a]], table[last[a]])
    return table, True


def join_irreducibles(lat: FiniteLattice) -> list[int]:
    """Non-bottom elements that are not a join of two strictly smaller ones:
    the elements with exactly one lower cover."""
    return np.flatnonzero(_irreducible(lat.covers, lat.n)).tolist()


def _join_primes(lat: FiniteLattice) -> np.ndarray:
    """Non-bottom elements a for which a <= x | y forces a <= x or a <= y,
    ascending and kept on the lattice.

    The x with a not below x form a down-set, which holds bottom unless a is
    bottom; a is join-prime iff that set is closed under joins, that is iff
    it has a greatest element: a member with as many elements below it as
    the set has.
    """
    return _kept(lat, _build_join_primes)


def _build_join_primes(lat: FiniteLattice) -> np.ndarray:
    outside = ~lat.leq                      # outside[a, x]: a is not below x
    size = outside.sum(axis=1)
    most = (outside * lat.leq.sum(axis=0)).max(axis=1)
    return _freeze(np.flatnonzero((most == size) & (size > 0)))


def _member_row(n: int, members) -> np.ndarray:
    """The boolean row of length n that marks ``members``, read once.  A
    member that is not an integer in 0..n-1 raises ``ShapeError``, where
    numpy would wrap a negative one around, read True, 1.7 and '1' as 1 and
    overflow on 2**70."""
    idx = list(members)
    for m in idx:
        if not (type(m) is int or isinstance(m, np.integer)) or not 0 <= m < n:
            raise ShapeError(f"member {m!r} is not an element index 0..{n - 1}")
    row = np.zeros(n, dtype=bool)
    row[idx] = True
    return row


def _indices(values, shape: tuple, bound: int | None, what: str) -> np.ndarray:
    """``values`` as an int64 array of ``shape`` with entries in 0..bound-1,
    or any integers when ``bound`` is None: every index table, map and block
    vector from a caller is read here.  An array that numpy does not read as
    integers (bool, float, str, or object such as 2**70) raises
    ``ShapeError``, where a cast would read True as 1 and 1.7 as 1."""
    arr = np.asarray(values)
    if arr.shape != shape:
        want = f"length {shape[0]}" if len(shape) == 1 else f"shape {shape}"
        raise ShapeError(f"{what} must have {want}")
    if arr.size and arr.dtype.kind not in "iu":
        raise ShapeError(f"{what} entries must be integers, not {arr.dtype.name}")
    arr = arr.astype(np.int64, copy=False)
    if bound is not None and arr.size and (arr.min() < 0 or arr.max() >= bound):
        raise ShapeError(f"{what} entries out of range")
    return arr


def _generator(lat: FiniteLattice, members, lower: bool = False) -> tuple:
    """(g, principal): g the least member of the set (with ``lower``, the
    greatest), and whether the set is the principal filter [g) (the
    principal ideal (g]).  A finite filter or ideal is principal, generated
    by the meet (join) of its members, so this decides whether the set is
    one; the empty set is neither."""
    row = _member_row(lat.n, members)
    g = int(_greatest(lat.leq if lower else lat.leq.T, row[:, None])[0][0])
    return g, bool(((lat.leq[:, g] if lower else lat.leq[g]) == row).all())


def _principal_primes(lat: FiniteLattice, elems) -> tuple:
    """k(p) for each p of ``elems``, and whether [p) is a prime filter:
    whether the elements outside [p) are the principal ideal (k(p)], O(n) a
    row.  A principal filter is upward closed and meet-closed; when the rest
    is a nonempty ideal it misses bottom and holds x or y whenever it holds
    x | y."""
    kappa = _kappa(lat, elems)[0]
    return kappa, (lat.leq[:, kappa].T == ~lat.leq[elems]).all(axis=1)


def is_prime_filter(lat: FiniteLattice, members) -> bool:
    """Upward-closed, meet-closed (so contains top), excludes bot, join-prime.

    A finite filter is [g) for g its least member, so the set is a prime
    filter iff it is [g) and misses exactly (k(g)]."""
    g, principal = _generator(lat, members)
    return principal and bool(_principal_primes(lat, [g])[1][0])


def _primes(lat: FiniteLattice) -> tuple:
    """The generators of the prime filters and their k: the join-primes p,
    ordered by (size, members) of [p), and k(p) for each.

    In a finite lattice every filter is principal (it contains the meet of
    its members), so the prime filters are exactly the principal filters of
    join-prime elements.  Each [p) is re-checked by its k(p), and on
    distributive lattices the count is cross-checked against the number of
    join-irreducibles.
    """
    return _kept(lat, _build_primes)


def _build_primes(lat: FiniteLattice) -> tuple:
    # the sorted rows [p), and p as the least member of each
    gen = _greatest(lat.leq.T, _sorted_rows(lat.leq[_join_primes(lat)]).T)[0]
    kappa, prime = _principal_primes(lat, gen)
    ensure(prime.all(), "enumerated set is not a prime filter")
    if is_distributive(lat):
        ensure(len(gen) == len(join_irreducibles(lat)),
               "prime filter count must match join-irreducibles on distributive lattices")
    return _freeze(gen), _freeze(kappa)


def _prime_rows(lat: FiniteLattice) -> np.ndarray:
    """Membership matrix of the prime filters, ordered by (size, members):
    row i is [p) for the i-th generator p of ``_primes``."""
    return lat.leq[_primes(lat)[0]]


def prime_filters(lat: FiniteLattice) -> list[frozenset]:
    """Every prime filter, canonically ordered by (size, members)."""
    return _row_sets(_prime_rows(lat))


def _upset_rows(arr: np.ndarray) -> np.ndarray:
    """Membership matrix of all upsets of a validated order, by (size, members).

    The elements are taken in increasing size of their principal upsets, so
    every element strictly above x comes before x.  After each step the
    family holds exactly the upsets among the elements taken so far, and x
    joins those that already hold every element strictly above it; the
    family only grows and never repeats a set.  More than ``SIZE_MAX``
    upsets raise ``TooLarge`` before any table is built.
    """
    n = arr.shape[0]
    strict = arr & ~np.eye(n, dtype=bool)
    found = np.zeros((1, n), dtype=bool)
    for x in np.argsort(arr.sum(axis=1), kind="stable"):
        grown = found[found[:, strict[x]].all(axis=1)]
        grown[:, x] = True
        found = np.vstack([found, grown])
        if len(found) > SIZE_MAX:
            raise TooLarge(f"order has more than {SIZE_MAX} upsets")
    return _sorted_rows(found)


def _row_sets(rows: np.ndarray) -> list[frozenset]:
    """The sets of a membership matrix, one frozenset per row."""
    return [frozenset(np.flatnonzero(row).tolist()) for row in rows]


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """The rows of a membership matrix ordered by (size, members): after the
    size, the columns are keys in turn, members first."""
    keys = [~col for col in rows.T[::-1]] + [rows.sum(axis=1)]
    return rows[np.lexsort(keys)]


def _keys(packed: np.ndarray) -> np.ndarray:
    """One key per row of bits packed into bytes (last axis); equal keys iff
    equal rows, and keys sort as the bit strings do.  Rows of at most 8 bytes
    (or of none) become big-endian integers, so that a bitwise AND of two
    keys is the key of the rows' intersection; longer rows become byte
    strings."""
    width = packed.shape[-1]
    if width <= 8:
        padded = np.zeros(packed.shape[:-1] + (8,), dtype=np.uint8)
        padded[..., :width] = packed
        return padded.view(">u8")[..., 0]
    return np.ascontiguousarray(packed).view(f"V{width}")[..., 0]


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per boolean row, as ``_keys`` gives for the packed rows."""
    return _keys(np.packbits(rows, axis=-1))


# From this many queries on `_lookup` hashes.  The hash table's set-up (the
# fingerprints, a zeroed slot array, a scatter and its check) costs about
# 25-30 us, which the O(log n) searches it saves repay from about 1,500 queries
# of integer keys: one core of a 2-vCPU Xeon host took 31 us to sort and
# search against 33 us to hash at 1,024 queries, 61 against 47 us at 2,304.
HASH_MIN = 1536


def _words(keys: np.ndarray) -> list:
    """Native uint64 words of each key that together cover its bytes: the
    key itself for integer keys, and for a byte string of w bytes the words
    at offsets 0, 8, ... and, when 8 does not divide w, the last 8 bytes.
    Equal keys iff all their words are equal."""
    if keys.dtype.kind == "u":
        return [keys.astype(np.uint64)]
    width = keys.dtype.itemsize
    flat = np.ascontiguousarray(keys).reshape(-1)
    offsets = list(range(0, width - 7, 8)) + ([width - 8] if width % 8 else [])
    # contiguous copies: numpy gathers from the unaligned strided views slowly
    return [np.ndarray(flat.shape, np.uint64, flat, offset, (width,)).reshape(keys.shape).copy()
            for offset in offsets]


_MASK64 = 2 ** 64 - 1


def _mix(z):
    """The splitmix64 finalizer, a bijection of 64-bit words that spreads
    every bit, of a Python int or of a uint64 array alike."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# The odd multipliers `_lookup` tries in turn, until one sends the keys'
# fingerprints to distinct slots (the first one usually does): the first 16
# outputs of the splitmix64 generator from state 0, as Python ints, so every
# lookup is deterministic and importing the module runs no numpy kernel.
_MULTIPLIERS = tuple(_mix(i * 0x9E3779B97F4A7C15 & _MASK64) | 1 for i in range(1, 17))


def _fingerprint(words: list) -> np.ndarray:
    """A uint64 per key from its ``_words``: the key itself for one word,
    else the words folded through ``_mix``.  Equal keys give equal
    fingerprints; distinct long keys collide only by chance."""
    out = words[0]
    for word in words[1:]:
        out = _mix(out) ^ word
    return out


def _sorted_lookup(keys: np.ndarray, queries: np.ndarray):
    """``_lookup`` by sorting the keys once and binary-searching every query."""
    order = keys.argsort()
    # a query past the last key clips to it, and is then not found
    pos = order.take(keys.take(order).searchsorted(queries), mode="clip")
    return pos, keys.take(pos) == queries


def _lookup(keys: np.ndarray, queries: np.ndarray):
    """Position of each query among ``keys``, and whether it is really there
    (the position is arbitrary where it is not).  ``keys`` is empty only when
    ``queries`` is.  Exact and deterministic on both routes: ``found`` compares
    every byte of the key at the position with the query.

    The route is chosen by the query count q, since the hash table has a
    fixed set-up cost that only enough queries repay.  Below ``HASH_MIN``
    queries the n keys are sorted and each query is binary-searched,
    O((n + q) log n).  From it on each query costs O(1) in a collision-free
    multiply-shift table (Dietzfelbinger et al., J. Algorithms 1997; Fredman,
    Komlos & Szemeredi, J. ACM 1984): key k goes to slot
    (fingerprint(k) * m mod 2^64) >> (64 - b), with 2^b >= n^2 slots and m
    the first of ``_MULTIPLIERS`` that sends the n keys to distinct slots.
    A query is then one multiply, one shift and two gathers.  The table is
    used only while n^2 <= 16 q: its fewer than 32 q slots then span at most
    one 4 KiB page per 16 queries, and zeroing a larger one costs more than
    the searches it saves (512 keys, 1,536 queries: 1.4 ms against 0.12 ms).
    Keys that no multiplier separates (equal keys, or long keys with equal
    fingerprints) take the sorted route.
    """
    n = len(keys)
    if queries.size < HASH_MIN or n * n > 16 * queries.size:
        return _sorted_lookup(keys, queries)
    key_words, query_words = _words(keys), _words(queries)
    prints, query_prints = _fingerprint(key_words), _fingerprint(query_words)
    bits = max(1, (n * n - 1).bit_length())
    shift = 64 - bits
    idx = np.arange(n)
    for m in _MULTIPLIERS:
        slot = (prints * m) >> shift
        table = np.zeros(2 ** bits, dtype=np.intp)
        table[slot] = idx
        if (table[slot] == idx).all():
            pos = table[(query_prints * m) >> shift]
            found = key_words[0][pos] == query_words[0]
            for key_word, query_word in zip(key_words[1:], query_words[1:]):
                found &= key_word[pos] == query_word
            return pos, found
        ordered = np.sort(prints)
        if (ordered[1:] == ordered[:-1]).any():
            break
    return _sorted_lookup(keys, queries)


def _locate(family: np.ndarray, rows: np.ndarray):
    """Position of each boolean row of ``rows`` among the distinct rows of
    ``family``, and whether it is really there, as ``_lookup``."""
    return _lookup(_row_keys(family), _row_keys(rows))


def _family_lattice(rows: np.ndarray, co_rows: np.ndarray):
    """The lattice of a family of sets under inclusion (row i is set i), or
    None when the intersections of ``rows``, or of ``co_rows``, one set per
    member that reverses inclusion, are not all rows (module docstring)."""
    leq, covers = _partial_order(_subset(rows, rows))
    meet = _intersection_table(rows, leq)
    join = _intersection_table(co_rows, leq.T)
    if meet is None or join is None:
        return None
    return FiniteLattice(leq, meet, join, leq.all(axis=1).argmax(), leq.all(axis=0).argmax(),
                         covers)


def all_upsets(leq) -> list[frozenset]:
    """All upward-closed subsets, ordered by (size, members)."""
    return _row_sets(_upset_rows(validate_partial_order(leq)))


@dataclass(frozen=True)
class UpSetFamily:
    """The lattice of all upsets of a poset, with the upsets themselves as a
    read-only boolean matrix ``members``: row i is upset i, column w is
    element w of the poset."""

    lattice: FiniteLattice
    members: np.ndarray


def upset_lattice(poset_leq) -> UpSetFamily:
    """Lattice of all upsets ordered by inclusion; meet is intersection, join union."""
    return _upset_family(validate_partial_order(poset_leq))


def _upset_family(arr: np.ndarray) -> UpSetFamily:
    """``upset_lattice`` of an order matrix already validated."""
    rows = _upset_rows(arr)
    # ~U & ~V = ~(U | V): the complements give the joins, which are unions
    lat = _family_lattice(rows, ~rows)
    ensure(lat is not None, "upsets must be closed under intersection and union")
    ensure(is_distributive(lat), "upset lattice must be distributive")
    ensure(heyting_table(lat) is not None, "upset lattice must carry pseudocomplements")
    return UpSetFamily(lattice=lat, members=_freeze(rows))


# ---------------------------------------------------------------------------
# small-instance enumeration and isomorphism, used by the harness and catalog


def _labeled_posets(n: int) -> np.ndarray:
    """All labeled partial orders on n elements, as one (k, n, n) boolean array.

    Each pair i < j is ordered i below j, j below i, or left unrelated; the
    choices run in that order, as ``itertools.product`` would list them with
    the first pair most significant, and choices whose transitive closure
    adds a pair are dropped.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    digits = np.arange(3 ** len(pairs))[:, None] // 3 ** np.arange(len(pairs))[::-1] % 3
    mats = np.zeros((len(digits), n, n), dtype=bool)
    mats[:, np.arange(n), np.arange(n)] = True
    for p, (i, j) in enumerate(pairs):
        mats[:, i, j] = digits[:, p] == 0
        mats[:, j, i] = digits[:, p] == 1
    return mats[~(_compose(mats, mats) & ~mats).any(axis=(1, 2))]


def all_posets(n: int):
    """All labeled partial orders on n elements, as boolean matrices."""
    yield from _labeled_posets(n)


def canonical_order_matrix(leq: np.ndarray) -> bytes:
    """Lexicographically least relabeling; equal bytes iff isomorphic posets.

    The bytes are those of ``leq[p][:, p]`` for the permutation p that makes
    them least.  Row k is ``leq[p_k, p]``.  Once p_0..p_k are chosen, the
    entries of row k at earlier positions are fixed, and the later positions
    form ordered cells whose members earlier rows have already forced, so
    the least row k lists each cell zeros first.  Keeping, depth by depth,
    every prefix that reaches the least row and splitting its cells by that
    row is exact, and it follows only ties instead of all n! permutations.
    Two elements are twins when swapping them is an automorphism; of twins
    in one cell only the first is tried, since the swap maps the other's
    branch onto its branch.
    """
    rel = np.asarray(leq, dtype=bool).tolist()
    n = len(rel)
    twin = [[x != y and rel[x][x] == rel[y][y] and rel[x][y] == rel[y][x]
             and all(rel[x][z] == rel[y][z] and rel[z][x] == rel[z][y]
                     for z in range(n) if z not in (x, y))
             for y in range(n)] for x in range(n)]
    level = [((), (tuple(range(n)),))]
    rows = []
    for _ in range(n):
        best, ties = None, []
        for prefix, (head, *rest) in level:
            tried = []
            for x in head:
                if any(twin[x][y] for y in tried):
                    continue
                tried.append(x)
                rx = rel[x]
                cells = []
                for cell in [tuple(y for y in head if y != x), *rest]:
                    cells += [part for part in (tuple(y for y in cell if not rx[y]),
                                                tuple(y for y in cell if rx[y])) if part]
                row = [rx[y] for y in prefix] + [rx[x]] + [rx[y] for cell in cells for y in cell]
                if best is None or row < best:
                    best, ties = row, []
                if row == best:
                    ties.append((prefix + (x,), cells))
        rows.append(best)
        level = ties
    return np.array(rows, dtype=bool).reshape(n, n).tobytes()


def _atom_children(lat: FiniteLattice) -> np.ndarray:
    """``lat``'s order plus a new atom n below exactly the members of U, for
    every admissible U (module docstring), as a (k, n + 1, n + 1) array."""
    n, meet, rows = lat.n, lat.meet, _upset_rows(lat.leq)
    pairs = rows[:, :, None] & rows[:, None, :]
    ups = rows[(~pairs | rows[:, meet] | (meet == lat.bot)).all(axis=(1, 2))
               & rows.any(axis=1) & ~rows[:, lat.bot]]
    children = np.zeros((len(ups), n + 1, n + 1), dtype=bool)
    children[:, :n, :n], children[:, n, :n] = lat.leq, ups
    children[:, [lat.bot, n], n] = True
    return children


def all_lattices(max_n: int) -> list[FiniteLattice]:
    """One representative per isomorphism class of lattices with 1..max_n elements.

    Grown from the 1- and 2-chains: each lattice of n + 1 >= 3 elements is
    one of n elements plus a new atom below exactly the members of an upset
    U that is nonempty, misses bottom and holds the meet of any two members
    unless it is bottom (module docstring).  Each level's children are
    deduplicated by canonical form and each class is built, so validated,
    by ``build_lattice``: the canonical matrices in byte order per size.
    Growth past 10 elements lists the 258 upsets of M8, past ``SIZE_MAX``,
    and raises ``TooLarge``.
    """
    reps, level = [], []
    for n in range(1, max_n + 1):
        found = ({canonical_order_matrix(np.tri(n, dtype=bool))} if n <= 2 else
                 {canonical_order_matrix(child) for lat in level for child in _atom_children(lat)})
        level = []
        for canon in sorted(found):
            try:
                level.append(build_lattice(np.frombuffer(canon, dtype=bool).reshape(n, n)))
            except NablalgError:
                ensure(False, "an admissible new atom must leave a lattice")
        buckets = {}
        for lat in level:
            buckets.setdefault(tuple(sorted(_signatures(lat.leq))), []).append(lat)
        ensure(all(lattice_iso(a, b) is None for bucket in buckets.values()
                   for i, a in enumerate(bucket) for b in bucket[:i]),
               "lattices with distinct canonical forms must not be isomorphic")
        reps += level
    return reps


def _signatures(leq: np.ndarray) -> list:
    return list(zip(leq.sum(axis=0).tolist(), leq.sum(axis=1).tolist()))


def _order_iso(leq_a: np.ndarray, leq_b: np.ndarray, sig_a: list, sig_b: list, accept=None):
    """An order isomorphism as an index tuple, or None.

    Backtracking over bijections that keep the per-element signatures
    ``sig_a[i] == sig_b[f(i)]``, placing the elements with the fewest
    candidates first; ``accept(f)``, when given, must also hold of the
    complete map.  Fine for the n <= 20 instances this library targets.
    """
    n = leq_a.shape[0]
    if n != leq_b.shape[0] or sorted(sig_a) != sorted(sig_b):
        return None
    rel_a, rel_b = leq_a.tolist(), leq_b.tolist()
    cands = [[j for j in range(n) if sig_b[j] == sig_a[i]] for i in range(n)]
    order = sorted(range(n), key=lambda i: len(cands[i]))
    assign = [-1] * n
    used = [False] * n

    def back(pos: int):
        if pos == n:
            return accept is None or accept(np.array(assign))
        i = order[pos]
        for j in cands[i]:
            if used[j]:
                continue
            ok = True
            for k in order[:pos]:
                if rel_a[i][k] != rel_b[j][assign[k]] or rel_a[k][i] != rel_b[assign[k]][j]:
                    ok = False
                    break
            if ok:
                assign[i] = j
                used[j] = True
                if back(pos + 1):
                    return True
                used[j] = False
                assign[i] = -1
        return False

    if back(0):
        return tuple(assign)
    return None


def lattice_iso(a: FiniteLattice, b: FiniteLattice):
    """An order isomorphism a -> b as an index tuple, or None.

    Signatures are (downset size, upset size).
    """
    return _order_iso(a.leq, b.leq, _signatures(a.leq), _signatures(b.leq))
