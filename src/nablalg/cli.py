"""Command-line front end: thin dispatch, JSON on stdout, summaries on stderr.

Exit codes: 0 valid/true, 1 invalid/false (with a report), 2 input error
(malformed, or past a command's size bound), 3 internal error (a failed
cross-check, which means a library bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import gallery, serialize
from .algebra import (
    check_implication_axioms,
    check_morphism,
    classify,
)
from .completion import dm_complete
from .congruence import (
    all_congruences_oracle,
    all_modal_filters,
    is_simple,
    is_subdirectly_irreducible,
)
from .errors import CrossCheckError, NablalgError, OutOfRange, ShapeError, TooLarge
from .kripke import (
    FrameMorphism,
    amalgamate_algebras,
    check_frame_morphism,
    prime_frame,
    upset_algebra,
)


def _emit(obj: dict) -> None:
    sys.stdout.write(serialize.dumps(obj) + "\n")


def _note(args, text: str) -> None:
    if getattr(args, "verbose", False):
        sys.stderr.write(text + "\n")


def _parse(raw: str):
    try:
        return json.loads(raw)
    except RecursionError:
        raise ValueError("document nests too deeply to decode") from None


def _read_json(path: str) -> dict:
    return _parse(sys.stdin.read() if path == "-" else Path(path).read_text())


def _loader_for(path: str):
    base = Path(".") if path == "-" else Path(path).parent

    def load(ref: str) -> dict:
        return _parse((base / ref).read_text())

    return load


KNOWN_KINDS = ("lattice", "nabla-algebra", "kripke-frame", "strong-candidate", "morphism")


def cmd_validate(args) -> int:
    obj = _read_json(args.file)
    kind = serialize.kind_of(obj)
    if kind not in KNOWN_KINDS:
        raise ShapeError(f"unknown kind {kind!r}")
    try:
        value = serialize.value_from_json(obj, loader=_loader_for(args.file))
        if kind == "strong-candidate":
            rep = check_implication_axioms(value)
        elif kind == "morphism":
            rep = (check_frame_morphism(value) if isinstance(value, FrameMorphism)
                   else check_morphism(value))
        else:
            rep = None
    except (ShapeError, TooLarge):
        raise
    except NablalgError as err:
        _emit({"ok": False, "error": err.to_json()})
        _note(args, f"invalid: {err}")
        return 1
    if rep is not None:
        _emit(rep.to_json())
        _note(args, f"{kind}: {'valid' if rep.ok else 'violations found'}")
        return 0 if rep.ok else 1
    _emit({"ok": True, "violations": []})
    _note(args, f"{kind}: valid")
    return 0


def cmd_classify(args) -> int:
    alg = serialize.algebra_from_json(_read_json(args.file))
    profile = classify(alg)
    _emit(profile.to_json())
    _note(args, "flags: " + ",".join(sorted(profile.flags())))
    return 0


def cmd_modal_filters(args) -> int:
    alg = serialize.algebra_from_json(_read_json(args.file))
    filters = all_modal_filters(alg)
    _emit({"kind": "modal-filters", "filters": [f.to_json() for f in filters]})
    _note(args, f"{len(filters)} modal filters")
    return 0


def cmd_congruences(args) -> int:
    alg = serialize.algebra_from_json(_read_json(args.file))
    congs = all_congruences_oracle(alg)
    _emit({"kind": "congruences", "congruences": [c.to_json() for c in congs]})
    _note(args, f"{len(congs)} congruences")
    return 0


def cmd_si(args) -> int:
    alg = serialize.algebra_from_json(_read_json(args.file))
    verdict = is_subdirectly_irreducible(alg)
    _emit({"kind": "verdict", "property": "subdirectly-irreducible",
           **verdict.to_json()})
    return 0 if verdict.flag else 1


def cmd_simple(args) -> int:
    alg = serialize.algebra_from_json(_read_json(args.file))
    verdict = is_simple(alg)
    _emit({"kind": "verdict", "property": "simple", **verdict.to_json()})
    return 0 if verdict.flag else 1


def cmd_dm_complete(args) -> int:
    alg = serialize.algebra_from_json(_read_json(args.file))
    comp = dm_complete(alg)
    _emit(serialize.completed_to_json(comp))
    _note(args, f"completion has {comp.algebra.n} elements")
    return 0


def cmd_prime_frame(args) -> int:
    alg = serialize.algebra_from_json(_read_json(args.file))
    frame = prime_frame(alg)
    _emit(serialize.frame_to_json(frame))
    _note(args, f"{frame.n} prime filters")
    return 0


def cmd_upset_algebra(args) -> int:
    frame = serialize.frame_from_json(_read_json(args.file))
    alg = upset_algebra(frame)
    _emit(serialize.algebra_to_json(alg))
    _note(args, f"{alg.n} upsets")
    return 0


def cmd_check_morphism(args) -> int:
    m = serialize.morphism_from_json(_read_json(args.file), loader=_loader_for(args.file))
    if isinstance(m, FrameMorphism):
        rep = check_frame_morphism(m)
    else:
        rep = check_morphism(m)
    _emit(rep.to_json())
    return 0 if rep.ok else 1


def cmd_amalgamate(args) -> int:
    a0, a1, a2, f1, f2, heyting = serialize.span_from_json(_read_json(args.file))
    res = amalgamate_algebras(a0, a1, a2, f1, f2, heyting=heyting)
    _emit({
        "kind": "amalgamation",
        "b": serialize.algebra_to_json(res.b),
        "g1": [int(v) for v in res.g1.map],
        "g2": [int(v) for v in res.g2.map],
        "intermediate": {
            "frames": {name: serialize.frame_to_json(k)
                       for name, k in sorted(res.frames.items())},
            "projections": {
                "p": [int(v) for v in res.projections[0].map],
                "q": [int(v) for v in res.projections[1].map],
            },
        },
    })
    _note(args, f"amalgam has {res.b.n} elements")
    return 0


def cmd_gen(args) -> int:
    name = args.what
    if name == "xn":
        if args.arg is None:
            raise ShapeError("gen xn needs a size argument")
        alg = gallery.gen_xn(int(args.arg))
        _emit(serialize.algebra_to_json(alg))
        return 0
    if name == "cex3":
        _emit(serialize.strong_candidate_to_json(gallery.gen_counterexample_cex3()))
        return 0
    if name in ("trivial", "heyting"):
        if args.arg is None:
            raise ShapeError(f"gen {name} needs a lattice file argument")
        lat = serialize.lattice_from_json(_read_json(args.arg))
        alg = gallery.gen_trivial(lat) if name == "trivial" else gallery.gen_heyting(lat)
        _emit(serialize.algebra_to_json(alg))
        return 0
    raise ShapeError(f"unknown generator {name!r}")


def cmd_enumerate(args) -> int:
    flags = set(args.flags.split(",")) - {""} if args.flags else None
    count = 0
    for alg in gallery.enumerate_algebras(args.max_n, flags=flags):
        _emit(serialize.algebra_to_json(alg))
        count += 1
    _note(args, f"{count} algebras")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nablalg",
        description="validate, classify and transform finite modal-pair algebras",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="human-readable summary on stderr")
    parser.add_argument("--format", choices=["json"], default="json",
                        help="output format (json is the only v1 format)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("validate", "classify", "modal-filters", "congruences", "si", "simple",
                 "dm-complete", "prime-frame", "upset-algebra", "check-morphism", "amalgamate"):
        sub.add_parser(name).add_argument("file", help="input path or - for stdin")

    gen = sub.add_parser("gen")
    gen.add_argument("what", choices=["xn", "trivial", "heyting", "cex3"])
    gen.add_argument("arg", nargs="?", default=None)

    enum = sub.add_parser("enumerate")
    enum.add_argument("--max-n", type=int, required=True, dest="max_n")
    enum.add_argument("--flags", default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused by the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # command "x-y" runs cmd_x_y, looked up at call time so a rebound handler is
    # the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (OSError, ValueError) as err:
        # undecodable JSON, and paths that are missing, directories or unreadable
        _emit({"ok": False, "error": {"error": "input", "message": str(err)}})
        return 2
    except (ShapeError, OutOfRange, TooLarge) as err:
        _emit({"ok": False, "error": err.to_json()})
        return 2
    except NablalgError as err:
        # a well-formed input rejected by the operation's preconditions
        _emit({"ok": False, "error": err.to_json()})
        return 1
    except CrossCheckError as err:
        _emit({"ok": False, "error": {"error": "internal", "message": str(err)}})
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
