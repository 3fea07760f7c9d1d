"""Reference facts computed from raw tables, independent of nablalg.

Every check in the benchmark compares a nablalg answer with a fact that
holds for any correct implementation: unique tables (meet, join, the
residual), property flags by their definitions, and counts that follow
from theorems (modal filters are the principal filters of nabla's
fixpoints; prime filters match join-irreducibles on distributive lattices).
"""

from __future__ import annotations

import numpy as np


class Tables:
    """Lattice tables derived by brute force from an order matrix (small n)."""

    def __init__(self, leq, nabla=None, arrow=None):
        self.leq = np.asarray(leq, dtype=bool)
        n = self.n = self.leq.shape[0]
        self.bot = int(np.flatnonzero(self.leq.all(axis=1))[0])
        self.top = int(np.flatnonzero(self.leq.all(axis=0))[0])
        below = self.leq[:, :, None] & self.leq[:, None, :]   # below[x, a, b]: x <= a, x <= b
        above = self.leq.T[:, :, None] & self.leq.T[:, None, :]
        size_down = self.leq.sum(axis=0)                       # |downset of x|
        self.meet = np.where(below, size_down[:, None, None], -1).argmax(axis=0)
        self.join = np.where(above, -size_down[:, None, None], -n - 1).argmax(axis=0)
        self.nabla = None if nabla is None else np.asarray(nabla, dtype=np.int64)
        self.arrow = None if arrow is None else np.asarray(arrow, dtype=np.int64)


def distributive(t: Tables) -> bool:
    idx = np.arange(t.n)
    lhs = t.meet[idx[:, None, None], t.join[None, :, :]]
    rhs = t.join[t.meet[:, :, None], t.meet[:, None, :]]
    return bool((lhs == rhs).all())


def flags(t: Tables) -> dict:
    """The seven classification flags by their definitions."""
    idx = np.arange(t.n)
    nab, box, leq = t.nabla, t.arrow[t.top], t.leq
    d = distributive(t)
    normal = (bool((nab[t.meet] == t.meet[nab[:, None], nab[None, :]]).all())
              and int(nab[t.top]) == t.top)
    return {"D": d, "H": d, "N": normal,
            "R": bool(leq[idx, nab].all()), "L": bool(leq[nab, idx].all()),
            "Fa": len(set(nab.tolist())) == t.n, "Fu": len(set(box.tolist())) == t.n}


def fixpoints(t: Tables) -> list[int]:
    return [int(a) for a in np.flatnonzero(t.nabla == np.arange(t.n))]


def modal_filters(t: Tables) -> list[list[int]]:
    """Principal filters of the fixpoints: the modal filters of a normal algebra."""
    return sorted((sorted(int(x) for x in np.flatnonzero(t.leq[a])) for a in fixpoints(t)),
                  key=lambda f: (len(f), f))


def is_simple(t: Tables) -> bool:
    return set(fixpoints(t)) <= {t.bot, t.top}


def is_si(t: Tables) -> bool:
    """Normal distributive case: the non-top fixpoints do not join to top."""
    j = t.bot
    for a in fixpoints(t):
        if a != t.top:
            j = int(t.join[j, a])
    return j != t.top


def join_irreducibles(t: Tables) -> int:
    count = 0
    for a in range(t.n):
        if a == t.bot:
            continue
        strictly_below = np.flatnonzero(t.leq[:, a] & (np.arange(t.n) != a))
        if not (t.join[np.ix_(strictly_below, strictly_below)] == a).any():
            count += 1
    return count


def homomorphism_failure(f, src, tgt) -> str | None:
    """First operation the index map does not preserve (bounds, meet, join, nabla, arrow)."""
    f = np.asarray(f, dtype=np.int64)
    if len(set(f.tolist())) != len(f):
        return "not injective"
    if int(f[src.bot]) != tgt.bot or int(f[src.top]) != tgt.top:
        return "bounds"
    for name in ("meet", "join", "arrow"):
        s, g = getattr(src, name), getattr(tgt, name)
        if not (f[s] == g[f[:, None], f[None, :]]).all():
            return name
    if not (f[src.nabla] == tgt.nabla[f]).all():
        return "nabla"
    return None
