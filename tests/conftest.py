import itertools
from dataclasses import replace

import numpy as np
import pytest

from nablalg.algebra import AlgebraMorphism, PropertyProfile, check_morphism, classify
from nablalg.errors import NoJoin, NoMeet
from nablalg.lattice import (
    _compose,
    _detachment,
    _greatest,
    _labeled_posets,
    _prime_rows,
    _slabs,
    _subset,
    _violations,
    build_lattice,
    distributivity_witness,
    is_distributive,
    upset_lattice,
)


def order_from_covers(n, covers):
    """Reflexive-transitive closure of a cover list; no validity assumed."""
    leq = np.eye(n, dtype=bool)
    for a, b in covers:
        leq[a, b] = True
    for _ in range(n):
        leq = leq | ((leq.astype(int) @ leq.astype(int)) > 0)
    return leq


def chain_matrix(n):
    return np.tril(np.ones((n, n), dtype=bool)).T


def chain(n):
    return build_lattice(chain_matrix(n))


def boolean_square():
    # 0 < 1, 2 < 3 with 1, 2 incomparable
    return build_lattice(order_from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))


def pentagon():
    # 0 < 1 < 2 < 4 and 0 < 3 < 4, with 3 incomparable to 1 and 2
    return build_lattice(order_from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]))


def diamond():
    # three incomparable atoms 1, 2, 3 between bounds 0 and 4
    return build_lattice(
        order_from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    )


def bounded_candidates(n):
    """Orders with a designated bottom and top around an arbitrary middle poset.

    Every lattice has unique bounds, so up to isomorphism this reaches every
    lattice class while enumerating only the n-2 middle elements.  Returns a
    (k, n, n) boolean array with bottom 0 and top n-1.
    """
    if n == 1:
        return np.ones((1, 1, 1), dtype=bool)
    mid = _labeled_posets(n - 2)
    leq = np.zeros((len(mid), n, n), dtype=bool)
    leq[:, 0, :] = True
    leq[:, :, n - 1] = True
    leq[:, 1:n - 1, 1:n - 1] = mid
    return leq


def slabbed_associative(table):
    """The associativity scan the coordinate lookup replaced, kept as its
    oracle: (a & b) & c against a & (b & c), one slab of first arguments at
    a time."""
    return all((table[table[s]] == table[s][:, table]).all() for s in _slabs(len(table)))


def prime_filter_row_oracle(lat, s):
    """The one-row prime-filter check the batched mask replaced, kept as its
    oracle: the boolean row ``s`` holds top and not bottom, is upward closed
    and meet-closed, and holds x or y whenever it holds x | y."""
    upward = (lat.leq[s] <= s).all()
    meets = s[lat.meet[np.ix_(s, s)]].all()
    prime = (s[lat.join] <= (s[:, None] | s[None, :])).all()
    return bool(s[lat.top] and not s[lat.bot] and upward and meets and prime)


def prime_filter_rows(lat, rows):
    """The batched prime-filter mask the check by k(p) replaced, kept as its
    oracle: for each row of a k x n membership matrix, whether its set
    contains top, excludes bottom, is upward closed and meet-closed, and
    holds x or y whenever it holds x | y.  The pair laws are read a slab of
    rows at a time, so no k x n x n temporary exceeds about 2**20 entries."""
    ok = rows[:, lat.top] & ~rows[:, lat.bot] & ~(_compose(rows, lat.leq) & ~rows).any(axis=1)
    for s in _slabs(len(rows), lat.n ** 2):
        x, y = rows[s, :, None], rows[s, None, :]
        meets = ~(x & y) | rows[s][:, lat.meet]
        prime = ~rows[s][:, lat.join] | x | y
        ok[s] &= (meets & prime).all(axis=(1, 2))
    return ok


def subset_prime_tables(alg):
    """Order, relation and definitional relation of the prime frame by the
    inclusion tests the gathers on the generators replaced, kept as their
    oracle: P inside Q, P inside the nabla preimage of Q, and every (a, b)
    with arrow(a, b) in P has b in Q or a outside Q.  The definitional form
    is the k x n^2 product, taken a slab of first arguments a at a time."""
    primes = _prime_rows(alg.lat)
    k, n = primes.shape
    leq = _subset(primes, primes)
    rel = _subset(primes, primes[:, alg.nabla])
    definitional = np.ones((k, k), dtype=bool)
    for s in _slabs(n, max(k, 1) * n):
        width = s.stop - s.start
        keep = (~primes[:, s, None] | primes[:, None, :]).reshape(k, width * n)
        definitional &= _subset(primes[:, alg.arrow[s]].reshape(k, width * n), keep)
    return leq, rel, definitional


def drop_flag(monkeypatch, module, name, flag, spare=None):
    """Patch ``module.<name>``, its ``classify`` or ``frame_profile``, so that
    the profile it gives of anything but ``spare`` has ``flag`` false."""
    real = getattr(module, name)

    def lossy(x):
        profile = real(x)
        return profile if x is spare else replace(profile, **{flag: False})

    monkeypatch.setattr(module, name, lossy)


# --- whole-mask forms of the law checks ----------------------------------------
# The library finds every first witness with the slabbed scan
# `lattice._violations`; these are the forms it replaced, each of which holds
# a whole n^3 mask (or cube of candidates) and reads its first false entry.


def whole_mask_violations(laws):
    """(name, witness) of the failing laws among ``(name, mask)`` and
    ``(name, mask, axes)`` entries, as ``_violations`` read them before it
    took masks by slabs: the first false entry of the whole mask, its
    indices in ``axes`` order when given; a name's first failing mask."""
    found = {}
    for name, mask, *axes in laws:
        mask = np.asarray(mask)
        if name in found or mask.all():
            continue
        first = np.argwhere(~mask)[0]
        if axes:
            first = first[list(axes[0])]
        found[name] = tuple(int(v) for v in first)
    return list(found.items())


def bound_table(leq, lower):
    """The all-pairs meet (``lower``) or join cube, raising ``NoMeet`` or
    ``NoJoin`` with the first pair that has none."""
    rel = leq if lower else leq.T
    # rel[:, a, b]: the common (lower/upper) bounds x of a and b
    table, found = _greatest(rel, rel[:, :, None] & rel[:, None, :])
    if not found.all():
        a, b = (int(v) for v in np.argwhere(~found)[0])
        if lower:
            raise NoMeet(f"elements {a} and {b} have no meet", witness=(a, b))
        raise NoJoin(f"elements {a} and {b} have no join", witness=(a, b))
    return table


def adjunction_sides(lat, nab, arr):
    """``left[c, a, b]``: nab(c) & a <= b, and ``right[c, a, b]``: c <= arr(a, b)."""
    return lat.leq[lat.meet[nab]], lat.leq[:, arr]


def adjunction_failure(lat, nab, arr):
    """The a-major first (a, b, c) where nab(c) & a <= b and c <= arr(a, b)
    differ, with its direction, or None."""
    left, right = adjunction_sides(lat, nab, arr)
    bad = np.argwhere((left != right).transpose(1, 2, 0))
    if not len(bad):
        return None
    a, b, c = (int(v) for v in bad[0])
    return (a, b, c), "forward" if left[c, a, b] else "backward"


def cube_distributivity_witness(lat):
    """The first bad (a, b, c) of the whole n^3 distributivity cube, or None."""
    lhs = lat.meet[np.arange(lat.n)[:, None, None], lat.join[None, :, :]]
    rhs = lat.join[lat.meet[:, :, None], lat.meet[:, None, :]]
    bad = np.argwhere(lhs != rhs)
    return tuple(int(v) for v in bad[0]) if len(bad) else None


def antitone_first(leq, arr):
    """[a', a, b]: a' <= a implies arrow(a, b) <= arrow(a', b)."""
    return ~leq[:, :, None] | leq[arr[None, :, :], arr[:, None, :]]


def monotone_second(leq, arr):
    """[a, b, b']: b <= b' implies arrow(a, b) <= arrow(a, b')."""
    return ~leq[None, :, :] | leq[arr[:, :, None], arr[:, None, :]]


def equational_violations(lat, nab, arr):
    idx = np.arange(lat.n)
    leq, meet = lat.leq, lat.meet
    # inner[c, a, b] = arrow(nabla(c) & a, b)
    inner = arr[meet[nab], :]
    return whole_mask_violations([
        ("meet-arrow-top", arr[meet, idx[:, None]] == lat.top),
        ("nabla-meet", leq[nab[meet], meet[nab[:, None], nab[None, :]]]),
        ("detachment", _detachment(lat, nab, arr)),
        # scanned c-major, reported as (a, b, c)
        ("shift", leq[meet[idx[:, None, None], inner], arr[None, :, :]], (1, 2, 0)),
    ])


def implication_violations(lat, arr):
    """The failing implication laws, and the internalizing witnesses."""
    idx = np.arange(lat.n)
    leq, meet, join = lat.leq, lat.meet, lat.join
    laws = whole_mask_violations([
        ("antitone-first", antitone_first(leq, arr)),
        ("monotone-second", monotone_second(leq, arr)),
        ("reflexivity", arr[idx, idx] == lat.top),
        ("transitivity", leq[meet[arr[:, :, None], arr[None, :, :]], arr[:, None, :]]),
    ])
    internalizing = whole_mask_violations([
        ("meet", arr[idx[:, None, None], meet[None, :, :]]
         == meet[arr[:, :, None], arr[:, None, :]]),
        ("join", arr[join[:, :, None], idx[None, None, :]]
         == meet[arr[:, None, :], arr[None, :, :]]),
    ])
    return laws, dict(internalizing)


def internal_violations(alg, heyting):
    """The failing compatibility inequalities, the Heyting ones when ``heyting``."""
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
    if heyting:
        hey = alg.heyting
        hey_t = hey.T
        laws += [
            ("heyting-second-arg", leq[lhs, arr[hey_t[:, None, :], hey_t[None, :, :]]]),
            ("heyting-first-arg", leq[lhs, arr[hey[None, :, :], hey[:, None, :]]]),
        ]
    return whole_mask_violations(laws)


def embeddings_between(a0, a1):
    """Every embedding of a0 into a1, by a scan of the injective maps."""
    found = []
    for image in itertools.permutations(range(a1.n), a0.n):
        m = AlgebraMorphism(a0, a1, tuple(image),
                            preserves_heyting=classify(a0).H and classify(a1).H)
        rep = check_morphism(m)
        if rep.ok and rep.injective:
            found.append(m)
    return found


def amalgamation_spans(catalog, limit=24):
    """Up to ``limit`` spans (a0, a1, a2, f1, f2) of normal distributive
    catalog algebras, a0 of 2 or 3 elements and a1, a2 of at most 4, each
    leg the first embedding found."""
    nd = [a for a in catalog if classify(a).has("N", "D")]
    spans = []
    for a0 in (a for a in nd if 2 <= a.n <= 3):
        for a1 in (a for a in nd if a.n <= 4):
            embs1 = embeddings_between(a0, a1)
            if not embs1:
                continue
            for a2 in (a for a in nd if a.n <= 4):
                embs2 = embeddings_between(a0, a2)
                if embs2:
                    spans.append((a0, a1, a2, embs1[0], embs2[0]))
                    if len(spans) == limit:
                        return spans
    return spans


def assert_inclusion_lattice(lat, rows):
    """The route ``_family_lattice`` replaced, kept as its oracle: ``lat``
    must be ``build_lattice`` of the inclusion order of the sets ``rows``,
    order, covers, tables and bounds alike, and its meet the intersection
    (checked one slab of first sets at a time)."""
    want = build_lattice(_subset(rows, rows))
    assert (lat.leq == want.leq).all()
    assert [c.tolist() for c in lat.covers] == [c.tolist() for c in want.covers]
    assert (lat.meet == want.meet).all() and (lat.join == want.join).all()
    assert (lat.bot, lat.top) == (want.bot, want.top)
    assert all((rows[lat.meet[s]] == (rows[s, None] & rows[None])).all()
               for s in _slabs(len(rows)))


def lattice_law_failures(lat):
    """The lattice laws, but associativity, that fail on ``lat``'s tables, by
    the messages of the checks ``build_lattice`` ran before its lookup was
    known to find true meets and joins."""
    m, j, idx = lat.meet, lat.join, np.arange(lat.n)
    laws = {
        "meet/join not commutative": (m == m.T).all() and (j == j.T).all(),
        "meet/join not idempotent": (m[idx, idx] == idx).all() and (j[idx, idx] == idx).all(),
        "absorption a&(a|b)=a fails": (m[idx[:, None], j] == idx[:, None]).all(),
        "absorption a|(a&b)=a fails": (j[idx[:, None], m] == idx[:, None]).all(),
        "bounds do not absorb": (m[lat.bot] == lat.bot).all() and (j[lat.top] == lat.top).all(),
    }
    return [name for name, holds in laws.items() if not holds]


def oracle_profile(alg):
    """``classify`` as the library computed it before its pair gathers went
    through ``lattice._at``: every characterization by numpy's two-index
    gathers, surjectivity by Python sets, the cross-checks as asserts."""
    lat, nab, arr, box = alg.lat, alg.nabla, alg.arrow, alg.box
    n, leq, meet = lat.n, lat.leq, lat.meet
    idx = np.arange(n)
    witnesses = {}

    def preserves(f, src_op, tgt_op):
        return f[src_op] == tgt_op[f[:, None], f[None, :]]

    d = is_distributive(lat)
    if not d:
        witnesses["D"] = distributivity_witness(lat)
    h = alg.heyting is not None
    if not h:
        witnesses["H"] = witnesses.get("D")

    witnesses.update((v.law, v.witness) for v in _violations([
        ("N", (nab == idx) | (idx != lat.top)),
        ("N", preserves(nab, meet, meet)),
        ("R", leq[idx, nab]),
        ("L", leq[nab, idx]),
        ("Fa", nab[box] == idx),
        ("Fu", box[nab] == idx),
    ]))
    n_flag, r_flag, l_flag, fa_flag, fu_flag = (
        name not in witnesses for name in ("N", "R", "L", "Fa", "Fu"))

    r_alt1 = bool(leq[meet[idx[:, None], arr], idx[None, :]].all())
    r_alt2 = bool(leq[box, idx].all())
    assert r_flag == r_alt1 == r_alt2

    l_alt1 = bool(leq[idx[None, :], arr[idx[:, None], meet]].all())
    l_alt2 = bool(leq[idx, box].all())
    assert l_flag == l_alt1 == l_alt2

    fa_surj = len(set(int(v) for v in nab)) == n
    fa_iii = bool((meet[idx[:, None], nab[arr]] == meet).all())
    fa_iv = bool(np.bincount((idx[:, None] * n + arr)[leq.T]).max() == 1)
    fa_v = bool((~leq[box[:, None], box[None, :]] | leq).all())
    assert fa_flag == fa_surj == fa_iii == fa_v == fa_iv

    fu_surj = len(set(int(v) for v in box)) == n
    fu_emb = bool((~leq[nab[:, None], nab[None, :]] | leq).all())
    assert fu_flag == fu_surj == fu_emb

    if fa_flag:
        assert int(nab[lat.top]) == lat.top
        assert ((arr == lat.top) == leq).all()
        assert alg.heyting is not None and (nab[arr] == alg.heyting).all()
    return PropertyProfile(D=d, H=h, N=n_flag, R=r_flag, L=l_flag,
                           Fa=fa_flag, Fu=fu_flag, witnesses=witnesses)


def product_order(*leqs):
    """The componentwise order on the product, first factor most significant."""
    out = np.ones((1, 1), dtype=bool)
    for leq in leqs:
        out = (out[:, None, :, None] & leq[None, :, None, :]).reshape(len(out) * len(leq), -1)
    return out


def relabeled(leq, rng):
    p = rng.permutation(len(leq))
    return leq[np.ix_(p, p)]


def random_poset(rng, n):
    """A seeded order on n elements; most are no lattice."""
    leq = np.eye(n, dtype=bool) | np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.6), 1)
    for _ in range(n.bit_length()):
        leq |= (leq.astype(int) @ leq.astype(int)) > 0
    return relabeled(leq, rng)


def closure_lattice(rng, k):
    """The intersections of seeded subsets of a k-set, with the whole set,
    under inclusion: a lattice, distributive or not."""
    fam = np.vstack([rng.random((int(rng.integers(2, 2 * k)), k)) < rng.uniform(0.3, 0.8),
                     np.ones((1, k), dtype=bool)])
    # distinct rows from the start, so an unchanged count means closed
    fam, size = np.unique(fam, axis=0), 0
    while len(fam) != size:
        size = len(fam)
        fam = np.unique(np.vstack([fam, (fam[:, None] & fam[None]).reshape(-1, k)]), axis=0)
    return relabeled((fam[:, None, :] <= fam[None, :, :]).all(axis=2), rng)


def larger_lattices(rng):
    """Lattices past the catalogs' sizes: closure lattices, upset lattices,
    products."""
    orders = [closure_lattice(rng, int(k)) for k in rng.integers(4, 8, 40)]
    orders += [upset_lattice(random_poset(rng, int(n))).lattice.leq for n in rng.integers(4, 8, 10)]
    orders += [product_order(diamond().leq, chain_matrix(4)), product_order(pentagon().leq,
               pentagon().leq), product_order(chain_matrix(3), chain_matrix(7)), chain_matrix(40)]
    return [build_lattice(relabeled(leq, rng)) for leq in orders]


def boolean_256():
    sets = np.arange(256)
    return build_lattice((sets[:, None] & ~sets[None, :]) == 0)


def probe_rows(lat, rng, k=8):
    """Distinct sets to try a predicate of principal filters or ideals on:
    every principal filter and ideal, their complements, the empty and the
    full set, and ``k`` random sets."""
    principal = np.vstack([lat.leq, lat.leq.T])
    empty = np.zeros((1, lat.n), dtype=bool)
    rows = np.vstack([principal, ~principal, empty, ~empty, rng.random((k, lat.n)) < 0.5])
    return np.unique(rows, axis=0)


def subsets(universe):
    xs = sorted(universe)
    for r in range(len(xs) + 1):
        yield from (frozenset(c) for c in itertools.combinations(xs, r))


@pytest.fixture(scope="session")
def chain3():
    return chain(3)


@pytest.fixture(scope="session")
def small_lattices():
    from nablalg.lattice import all_lattices

    return all_lattices(5)


@pytest.fixture(scope="session")
def seven_lattices():
    from nablalg.lattice import all_lattices

    return all_lattices(7)


@pytest.fixture(scope="session")
def eight_lattices():
    from nablalg.lattice import all_lattices

    return all_lattices(8)


@pytest.fixture(scope="session")
def six_lattices(seven_lattices):
    return [lat for lat in seven_lattices if lat.n <= 6]


@pytest.fixture(scope="session")
def small_catalog():
    """Every valid (lattice, nabla) dynamics on <= 4 elements."""
    from nablalg.gallery import enumerate_algebras

    return list(enumerate_algebras(4))


@pytest.fixture(scope="session")
def full_catalog():
    """Every valid (lattice, nabla) dynamics on <= 5 elements."""
    from nablalg.gallery import enumerate_algebras

    return list(enumerate_algebras(5))


@pytest.fixture(scope="session")
def six_catalog():
    """Every valid (lattice, nabla) dynamics on <= 6 elements."""
    from nablalg.gallery import enumerate_algebras

    return list(enumerate_algebras(6))


@pytest.fixture(scope="session")
def six_catalog_and_xn(six_catalog):
    """The six-element catalog and ``gen_xn`` 1-6."""
    from nablalg.gallery import gen_xn

    return [*six_catalog, *(gen_xn(k) for k in range(1, 7))]


@pytest.fixture(scope="session")
def x1():
    from nablalg.gallery import gen_xn

    return gen_xn(1)


@pytest.fixture(scope="session")
def h3():
    from nablalg.gallery import gen_heyting

    return gen_heyting(chain(3))


@pytest.fixture(scope="session")
def b2():
    from nablalg.gallery import gen_heyting

    return gen_heyting(chain(2))


@pytest.fixture(scope="session")
def b4():
    from nablalg.gallery import gen_heyting

    return gen_heyting(boolean_square())
