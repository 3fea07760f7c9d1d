"""The three workloads: request lists, seeded set-up and correctness checks.

A pass is a generator of ``Request`` objects.  The runner times each
request's ``run`` and sends the outcome back, so later requests can consume
earlier outputs (the catalog documents, a prime frame).  ``check`` runs
outside the timed region and returns a failure reason or None.

Every request starts from raw tables or JSON text, so construction and
validation are part of it, as they are for a user.
"""

from __future__ import annotations

import io
import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import gen
import oracle

CATALOG_MAX_N = 5
CATALOG_SIZE = 279                 # algebras with at most 5 elements
LATTICE_COUNTS = (1, 1, 1, 2, 5, 15)  # lattices with 1..6 elements
DOC_COMMANDS = ("validate", "classify", "modal-filters", "congruences", "si", "simple",
                "dm-complete")
ALGEBRA_COMMANDS = DOC_COMMANDS + ("prime-frame",)


@dataclass
class Request:
    cls: str                               # request class, for failure reports
    run: Callable[[], object]              # the timed call
    check: Callable[[object], str | None]  # untimed; failure reason or None
    well_formed: bool = True               # False for malformed documents


@dataclass
class CliResult:
    code: int | None
    stdout: str
    error: BaseException | None = None     # exception that escaped cli.main


def call_cli(nl, argv, stdin_text: str = "") -> CliResult:
    """Run ``nablalg.cli.main`` in-process with the document on stdin."""
    out = io.StringIO()
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(stdin_text), out
    try:
        code, error = nl.cli.main(argv), None   # nablalg.cli is imported in set-up
    except SystemExit as exc:
        code, error = (exc.code if isinstance(exc.code, int) else 2), None
    except Exception as exc:             # reported as an uncaught failure
        code, error = None, exc
    finally:
        sys.stdin, sys.stdout = old_in, old_out
    return CliResult(code, out.getvalue(), error)


def _exit_failure(res: CliResult, want: int) -> str | None:
    if res.code != want:
        return f"exit {res.code}, want {want}"
    return None


def _json(res: CliResult):
    return json.loads(res.stdout)


# --- catalog-cli --------------------------------------------------------------


class DocFacts:
    """Oracle facts of one catalog document, cached across passes."""

    def __init__(self, text: str):
        doc = json.loads(text)
        self.t = oracle.Tables(doc["lattice"]["leq"], doc["nabla"], doc["arrow"])
        self.flags = oracle.flags(self.t)
        self.nd = self.flags["N"] and self.flags["D"]


def _doc_check(cmd: str, facts: DocFacts):
    t, f = facts.t, facts.flags

    def check(res: CliResult):
        if cmd == "validate":
            return _exit_failure(res, 0) or (None if _json(res)["ok"] else "not ok")
        if cmd == "classify":
            bad = _exit_failure(res, 0)
            if bad:
                return bad
            got = _json(res)["flags"]
            return None if got == f else f"flags {sorted(k for k in f if got[k] != f[k])} wrong"
        if cmd == "modal-filters":
            bad = _exit_failure(res, 0 if f["N"] else 1)
            if bad or not f["N"]:
                return bad
            return None if _json(res)["filters"] == oracle.modal_filters(t) else "filters wrong"
        if cmd == "congruences":
            bad = _exit_failure(res, 0)
            if bad:
                return bad
            blocks = [tuple(c) for c in _json(res)["congruences"]]
            if tuple(range(t.n)) not in blocks or (0,) * t.n not in blocks:
                return "identity or total congruence missing"
            if facts.nd and len(blocks) != len(oracle.fixpoints(t)):
                return "congruence count differs from modal filter count"
            return None
        if cmd in ("si", "simple"):
            if not facts.nd or (cmd == "si" and t.n == 1):
                return _exit_failure(res, 1)
            want = oracle.is_si(t) if cmd == "si" else oracle.is_simple(t)
            bad = _exit_failure(res, 0 if want else 1)
            if bad:
                return bad
            return None if _json(res)["ok"] == want else "verdict disagrees with exit code"
        if cmd == "dm-complete":
            bad = _exit_failure(res, 0)
            if bad:
                return bad
            out = _json(res)
            if out["lattice"]["n"] != t.n or sorted(out["embedding"]) != list(range(t.n)):
                return "completion does not keep n"
            return None
        if cmd == "prime-frame":
            bad = _exit_failure(res, 0 if f["D"] else 1)
            if bad or not f["D"]:
                return bad
            if _json(res)["n"] != oracle.join_irreducibles(t):
                return "prime filter count differs from join-irreducibles"
            return None
        if cmd == "upset-algebra":
            bad = _exit_failure(res, 0)
            if bad:
                return bad
            return None if _json(res)["lattice"]["n"] == t.n else "round trip does not keep n"
        raise ValueError(cmd)

    return check


def _check_enumerate(res: CliResult):
    bad = _exit_failure(res, 0)
    if bad:
        return bad
    lines = res.stdout.splitlines()
    if len(lines) != CATALOG_SIZE:
        return f"{len(lines)} algebras, want {CATALOG_SIZE}"
    if any(json.loads(line).get("kind") != "nabla-algebra" for line in lines):
        return "non-algebra document"
    return None


def _check_all_lattices(lats):
    counts = Counter(lat.n for lat in lats)
    got = tuple(counts.get(n, 0) for n in range(1, len(LATTICE_COUNTS) + 1))
    return None if got == LATTICE_COUNTS else f"lattice counts {got}"


@dataclass
class CatalogState:
    mutations: list                  # (doc index, kind, command, seed)
    facts: dict = field(default_factory=dict)


def catalog_setup(seed: int) -> CatalogState:
    """Seeded plan of mutated documents; the documents come from the pass itself.

    Every mutation kind goes through every algebra-loading command once, so
    each command's input path is exercised; the seed picks the documents and
    the mutation details.
    """
    rng = np.random.default_rng([seed, 1])
    plan = [(kind, cmd) for kind in gen.MUTATIONS for cmd in ALGEBRA_COMMANDS]
    docs = rng.choice(CATALOG_SIZE, size=len(plan), replace=False)
    seeds = rng.integers(0, 2**31, size=len(plan))
    return CatalogState([(int(d), kind, cmd, int(s))
                         for (kind, cmd), d, s in zip(plan, docs, seeds)])


def catalog_requests(nl, state: CatalogState):
    res = yield Request("cli:enumerate",
                        lambda: call_cli(nl, ["enumerate", "--max-n", str(CATALOG_MAX_N)]),
                        _check_enumerate)
    docs = sorted(res.stdout.splitlines(), key=str.encode) if res.code == 0 else []
    for text in docs:
        if text not in state.facts:
            state.facts[text] = DocFacts(text)
        facts = state.facts[text]
        for cmd in DOC_COMMANDS:
            yield Request(f"cli:{cmd}", lambda cmd=cmd, text=text: call_cli(nl, [cmd, "-"], text),
                          _doc_check(cmd, facts))
        frame = yield Request("cli:prime-frame",
                              lambda text=text: call_cli(nl, ["prime-frame", "-"], text),
                              _doc_check("prime-frame", facts))
        if frame.code == 0:
            yield Request("cli:upset-algebra",
                          lambda out=frame.stdout: call_cli(nl, ["upset-algebra", "-"], out),
                          _doc_check("upset-algebra", facts))
    eligible = [text for text in docs if json.loads(text)["lattice"]["n"] >= 2]
    for index, kind, cmd, mseed in state.mutations:
        if not eligible:
            break
        rng = np.random.default_rng(mseed)
        text = None
        for offset in range(len(eligible)):
            text = gen.mutate(eligible[(index + offset) % len(eligible)], kind, rng)
            if text is not None:
                break
        want = 1 if kind == "broken-adjunction" else 2
        yield Request(f"{'invalid' if want == 1 else 'malformed'}:{kind}",
                      lambda cmd=cmd, text=text: call_cli(nl, [cmd, "-"], text),
                      lambda res, want=want: _exit_failure(res, want),
                      well_formed=(want == 1))
    yield Request("lib:all_lattices", lambda: nl.all_lattices(6), _check_all_lattices)


# --- big-tables ---------------------------------------------------------------

# (family, parameters); sizes are fixed, the seed picks labels and nablas.  A
# pass is kept near 2.5 s so that a 40 s run times every request about 15
# times: 32 to 96 elements, across the 4 MiB L2 crossing of the n^3 int64
# temporaries (between 64 and 96 elements).
BIG_LADDER = (
    ("boolean", 5), ("boolean", 5), ("boolean", 6), ("product", (6, 8)),
    ("upsets", (7, 0.2, 36)), ("product", (8, 12)),
)
DM_MAX_N = 36     # dm_complete costs 0.5 s at 48 elements and 0.7-1.2 s at 64
# The 55-element chain puts req_p50_ms on requests whose cost the seed does
# not change (its verdicts and the 64-element identity tables), away from the
# modal pairs, whose dm_complete cost varies twofold with the seeded nabla.
CHAINS = (50, 55, 75)
XN_SIZES = (5, 6)


@dataclass
class BigState:
    ladder: list                 # gen.Instance
    chains: list                 # gen.Instance, Heyting chains
    flags: dict = field(default_factory=dict)


def _ladder_instance(rng, i, family, params):
    name = f"{family}{i}"
    if family == "boolean":
        return gen.boolean_instance(name, rng, params)
    if family == "product":
        return gen.product_instance(name, rng, params)
    points, p, target = params
    return gen.mask_instance(name, rng, gen.poset_with_upsets(rng, points, p, target))


def big_setup(seed: int) -> BigState:
    rng = np.random.default_rng([seed, 2])
    ladder = [_ladder_instance(rng, i, fam, params) for i, (fam, params) in enumerate(BIG_LADDER)]
    chains = [gen.chain_instance(f"chain{n}", rng, n) for n in CHAINS]
    return BigState(ladder, chains)


def _same(a, b) -> bool:
    return a is not None and np.array_equal(np.asarray(a), b)


def _check_tables(inst):
    def check(out):
        lat, hey, arrow = out
        if not (_same(lat.meet, inst.meet) and _same(lat.join, inst.join)):
            return "meet/join tables wrong"
        if not _same(hey, inst.heyting):
            return "heyting table wrong"
        return None if _same(arrow, inst.heyting) else "identity residual is not the heyting table"
    return check


def _check_pair(inst, state: BigState):
    def check(out):
        arrow, profile, comp = out
        if not _same(arrow, inst.arrow):
            return "derived arrow wrong"
        if inst.name not in state.flags:
            state.flags[inst.name] = oracle.flags(inst)
        want = state.flags[inst.name]
        if {k: bool(getattr(profile, k)) for k in want} != want:
            return "flags wrong"
        if comp is not None and (comp.algebra.n != inst.n
                                 or sorted(comp.embedding) != list(range(inst.n))):
            return "completion does not keep n"
        return None
    return check


def _pair(nl, inst):
    lat = nl.build_lattice(inst.leq)
    arrow = nl.derive_arrow(lat, inst.nabla)
    alg = nl.build_algebra(lat, inst.nabla, arrow)
    profile = nl.classify(alg)
    comp = nl.dm_complete(alg) if inst.n <= DM_MAX_N else None
    return arrow, profile, comp


def _tables(nl, inst):
    lat = nl.build_lattice(inst.leq)
    return lat, nl.heyting_table(lat), nl.derive_arrow(lat, np.arange(inst.n))


def _heyting_chain(nl, inst):
    lat = nl.build_lattice(inst.leq)
    return nl.build_algebra(lat, np.arange(inst.n), nl.heyting_table(lat))


def _verdict_check(want: bool, n: int | None = None):
    def check(out):
        alg, verdict = out
        if n is not None and alg.n != n:
            return f"{alg.n} elements, want {n}"
        return None if bool(verdict.flag) == want else f"verdict {verdict.flag}, want {want}"
    return check


def big_requests(nl, state: BigState):
    for inst in state.ladder:
        yield Request("lib:lattice-tables", lambda inst=inst: _tables(nl, inst),
                      _check_tables(inst))
        yield Request("lib:modal-pair", lambda inst=inst: _pair(nl, inst),
                      _check_pair(inst, state))
    for inst in state.chains:
        for verdict, want in (("is_simple", False), ("is_subdirectly_irreducible", True)):
            def run(inst=inst, verdict=verdict):
                alg = _heyting_chain(nl, inst)
                return alg, getattr(nl, verdict)(alg)
            yield Request(f"lib:chain-{verdict}", run, _verdict_check(want))
    for k in XN_SIZES:
        for verdict in ("is_simple", "is_subdirectly_irreducible"):
            def run(k=k, verdict=verdict):
                alg = nl.gen_xn(k)
                return alg, getattr(nl, verdict)(alg)
            yield Request(f"lib:xn-{verdict}", run, _verdict_check(True, 2 ** k + 1))


# --- duality --------------------------------------------------------------------

# Chain amalgams of 20 to 70 elements, and round trips of 16 to 64 elements; a
# pass is kept near 3 s so that a 40 s run times every request about a dozen
# times.
CHAIN_SPANS = ((4, 4, True), (4, 4, False), (4, 5, True), (4, 5, False), (4, 6, True),
               (5, 5, False), (3, 11, True))
SMALL_SPANS = (
    ((4,), (4,)), ((2, 3), (3,)), ((2, 2), (4,)), ((3,), (6,)), ((2, 2, 2), (3,)),
    ((6,), (3,)), ((3,), (2, 3)), ((4,), (2, 2)), ((3, 2), (3,)), ((3,), (7,)), ((7,), (3,)),
    ((4,), (4,)), ((2, 2), (4,)), ((3,), (6,)),
    ((3,), (2,)), ((2,), (3,)), ((4,), (2,)), ((2,), (4,)), ((5,), (2,)), ((2,), (5,)),
    ((6,), (2,)), ((2,), (6,)), ((3,), (3,)), ((7,), (2,)), ((8,), (2,)), ((2,), (8,)),
)
ROUND_TRIPS = (("boolean", 4), ("boolean", 5), ("boolean", 6), ("product", (4, 4)),
               ("product", (4, 6)), ("product", (6, 6)), ("product", (4, 8)),
               ("upsets", (7, 0.3, 20)), ("upsets", (7, 0.2, 36)),
               ("upsets", (8, 0.2, 48)))


@dataclass
class DualityState:
    spans: list          # gen.Span
    round_trips: list    # gen.Instance


def duality_setup(seed: int) -> DualityState:
    rng = np.random.default_rng([seed, 3])
    spans = [gen.chain_span(f"chain{a}x{b}", rng, a, b, hey) for a, b, hey in CHAIN_SPANS]
    spans += [gen.small_span(f"small{i}", rng, d1, d2) for i, (d1, d2) in enumerate(SMALL_SPANS)]
    trips = [_ladder_instance(rng, i, fam, params) for i, (fam, params) in enumerate(ROUND_TRIPS)]
    return DualityState(spans, trips)


def _algebra(nl, inst):
    return nl.build_algebra(nl.build_lattice(inst.leq), inst.nabla, inst.arrow)


def _amalgamate(nl, span):
    a0, a1, a2 = (_algebra(nl, inst) for inst in (span.a0, span.a1, span.a2))
    f1 = nl.AlgebraMorphism(a0, a1, span.f1, preserves_heyting=span.heyting)
    f2 = nl.AlgebraMorphism(a0, a2, span.f2, preserves_heyting=span.heyting)
    return nl.amalgamate_algebras(a0, a1, a2, f1, f2, heyting=span.heyting)


def _result_tables(alg) -> oracle.Tables:
    return oracle.Tables(alg.lat.leq, alg.nabla, alg.arrow)


def _check_amalgam(span):
    def check(res):
        if res.b.n != span.expected_n:
            return f"amalgam has {res.b.n} elements, want {span.expected_n}"
        g1, g2 = np.asarray(res.g1.map), np.asarray(res.g2.map)
        if not (g1[list(span.f1)] == g2[list(span.f2)]).all():
            return "square does not commute"
        b = _result_tables(res.b)
        for name, g, leg in (("g1", g1, span.a1), ("g2", g2, span.a2)):
            bad = oracle.homomorphism_failure(g, leg, b)
            if bad:
                return f"{name} does not preserve {bad}"
        return None
    return check


def _round_trip(nl, inst):
    alg = _algebra(nl, inst)
    frame = nl.prime_frame(alg)
    back = nl.upset_algebra(frame)
    emb = nl.canonical_frame_embedding(alg)
    return frame.n, back.n, emb


def _check_round_trip(inst):
    def check(out):
        frame_n, back_n, emb = out
        if frame_n != oracle.join_irreducibles(inst):
            return "prime filter count differs from join-irreducibles"
        if back_n != inst.n or emb.target.n != inst.n:
            return "round trip does not keep n"
        bad = oracle.homomorphism_failure(emb.map, inst, _result_tables(emb.target))
        return None if bad is None else f"membership map does not preserve {bad}"
    return check


def duality_requests(nl, state: DualityState):
    for span in state.spans:
        kind = "chain-span" if span.name.startswith("chain") else "small-span"
        yield Request(f"lib:amalgamate-{kind}", lambda span=span: _amalgamate(nl, span),
                      _check_amalgam(span))
    for inst in state.round_trips:
        yield Request("lib:round-trip", lambda inst=inst: _round_trip(nl, inst),
                      _check_round_trip(inst))


WORKLOADS = {
    "catalog-cli": (catalog_setup, catalog_requests),
    "big-tables": (big_setup, big_requests),
    "duality": (duality_setup, duality_requests),
}
