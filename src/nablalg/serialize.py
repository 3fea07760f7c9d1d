"""JSON encoding of every value kind; outputs are byte-deterministic."""

from __future__ import annotations

import json

import numpy as np

from .algebra import (
    AlgebraMorphism,
    NablaAlgebra,
    StrongAlgebraCandidate,
    build_algebra,
)
from .completion import CompletedAlgebra
from .errors import ShapeError, TooLarge
from .kripke import FrameMorphism, KripkeFrame, build_frame
from .lattice import FiniteLattice, build_lattice


def lattice_to_json(lat: FiniteLattice) -> dict:
    # meet/join are never serialized; they are derived on load
    return {
        "kind": "lattice",
        "n": lat.n,
        "leq": [[bool(v) for v in row] for row in lat.leq],
    }


def lattice_from_json(obj: dict) -> FiniteLattice:
    _expect_kind(obj, "lattice")
    return build_lattice(_bool_table(obj, "leq", _size(obj)))


def algebra_to_json(alg: NablaAlgebra) -> dict:
    return {
        "kind": "nabla-algebra",
        "lattice": lattice_to_json(alg.lat),
        "nabla": [int(v) for v in alg.nabla],
        "arrow": [[int(v) for v in row] for row in alg.arrow],
    }


def algebra_from_json(obj: dict) -> NablaAlgebra:
    _expect_kind(obj, "nabla-algebra")
    lat = lattice_from_json(_require(obj, "lattice"))
    return build_algebra(lat, _index_table(obj, "nabla", lat.n, 1),
                         _index_table(obj, "arrow", lat.n, 2))


def strong_candidate_to_json(cand: StrongAlgebraCandidate) -> dict:
    return {
        "kind": "strong-candidate",
        "lattice": lattice_to_json(cand.lat),
        "arrow": [[int(v) for v in row] for row in cand.arrow],
    }


def strong_candidate_from_json(obj: dict) -> StrongAlgebraCandidate:
    _expect_kind(obj, "strong-candidate")
    lat = lattice_from_json(_require(obj, "lattice"))
    return StrongAlgebraCandidate(lat=lat, arrow=_index_table(obj, "arrow", lat.n, 2))


def frame_to_json(frame: KripkeFrame) -> dict:
    return {
        "kind": "kripke-frame",
        "n": frame.n,
        "leq": [[bool(v) for v in row] for row in frame.leq],
        "r": [[bool(v) for v in row] for row in frame.r],
    }


def frame_from_json(obj: dict) -> KripkeFrame:
    _expect_kind(obj, "kripke-frame")
    n = _size(obj)
    return build_frame(_bool_table(obj, "leq", n), _bool_table(obj, "r", n))


def morphism_to_json(m) -> dict:
    if isinstance(m, AlgebraMorphism):
        src, tgt = algebra_to_json(m.source), algebra_to_json(m.target)
        extra = {"heyting": bool(m.preserves_heyting)}
    else:
        src, tgt = frame_to_json(m.source), frame_to_json(m.target)
        extra = {"heyting": bool(m.heyting)}
    return {"kind": "morphism", "map": [int(v) for v in m.map],
            "source": src, "target": tgt, **extra}


def morphism_from_json(obj: dict, loader=None):
    """Source and target may be inline objects or path strings resolved by ``loader``."""
    _expect_kind(obj, "morphism")

    def resolve(value):
        if isinstance(value, str):
            if loader is None:
                raise ShapeError("morphism references a path but no loader was given")
            return loader(value)
        return value

    src = resolve(_require(obj, "source"))
    tgt = resolve(_require(obj, "target"))
    heyting = _heyting_claim(obj)
    mapping = _index_list(obj, "map")
    kinds = (kind_of(src), kind_of(tgt))
    if kinds == ("nabla-algebra", "nabla-algebra"):
        return AlgebraMorphism(source=algebra_from_json(src),
                               target=algebra_from_json(tgt),
                               map=mapping, preserves_heyting=heyting)
    if kinds == ("kripke-frame", "kripke-frame"):
        return FrameMorphism(source=frame_from_json(src),
                             target=frame_from_json(tgt),
                             map=mapping, heyting=heyting)
    raise ShapeError(f"morphism endpoints must both be algebras or both frames, got {kinds}")


def span_from_json(obj: dict):
    """A span of algebra maps f1: a0 -> a1, f2: a0 -> a2, and the Heyting claim
    shared by both maps; nothing beyond the shapes is validated here."""
    _expect_kind(obj, "span")
    a0, a1, a2 = (algebra_from_json(_require(obj, key)) for key in ("a0", "a1", "a2"))
    heyting = _heyting_claim(obj)
    f1 = AlgebraMorphism(a0, a1, _index_list(obj, "f1"), preserves_heyting=heyting)
    f2 = AlgebraMorphism(a0, a2, _index_list(obj, "f2"), preserves_heyting=heyting)
    return a0, a1, a2, f1, f2, heyting


def completed_to_json(comp: CompletedAlgebra) -> dict:
    out = algebra_to_json(comp.algebra)
    out["embedding"] = [int(v) for v in comp.embedding]
    return out


def value_from_json(obj: dict, loader=None):
    kind = kind_of(obj)
    if kind == "lattice":
        return lattice_from_json(obj)
    if kind == "nabla-algebra":
        return algebra_from_json(obj)
    if kind == "kripke-frame":
        return frame_from_json(obj)
    if kind == "strong-candidate":
        return strong_candidate_from_json(obj)
    if kind == "morphism":
        return morphism_from_json(obj, loader=loader)
    raise ShapeError(f"unknown kind {kind!r}")


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def kind_of(obj):
    """The "kind" of a decoded JSON document, which must be an object."""
    if not isinstance(obj, dict):
        raise ShapeError("expected a JSON object")
    return obj.get("kind")


def _expect_kind(obj, kind: str) -> None:
    if not isinstance(obj, dict) or obj.get("kind") != kind:
        raise ShapeError(f"expected a {kind} object")


def _require(obj: dict, key: str):
    if key not in obj:
        raise ShapeError(f"{obj['kind']} object lacks {key!r}")
    return obj[key]


_INDEX_MAX = int(np.iinfo(np.int64).max)


def _is_index(value) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not indices.
    # Indices are kept in int64 arrays.
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value <= _INDEX_MAX


# Validation allocates several n^3 tables (`classify` on the Boolean 2^8 peaks
# near 350 MB), so larger documents are refused before any table is read; 256
# admits the Boolean 2^8 and the 252-element amalgam of a 2-chain into two
# 6-chains.
SIZE_MAX = 256


def _size(obj: dict) -> int:
    n = _require(obj, "n")
    if not _is_index(n):
        raise ShapeError(f"{obj['kind']} size n must be a non-negative 64-bit integer")
    if n > SIZE_MAX:
        raise TooLarge(f"{obj['kind']} size {n} exceeds the bound of {SIZE_MAX} elements")
    return n


def _entries(obj: dict, key: str, shape: tuple):
    """The entries of ``obj[key]`` in row order, or None unless it is nested
    lists of exactly ``shape``."""
    flat = [_require(obj, key)]
    for d in shape:
        if not all(isinstance(v, list) and len(v) == d for v in flat):
            return None
        flat = [x for v in flat for x in v]
    return flat


def _bool_table(obj: dict, key: str, n: int) -> np.ndarray:
    flat = _entries(obj, key, (n, n))
    if flat is None or not set(map(type, flat)) <= {bool}:
        raise ShapeError(f"{key!r} must be nested lists of shape {(n, n)} "
                         "with true/false entries")
    return np.array(flat, dtype=bool).reshape(n, n)


def _index_table(obj: dict, key: str, n: int, ndim: int) -> np.ndarray:
    shape = (n,) * ndim
    flat = _entries(obj, key, shape)
    # exact types: JSON true/false load as bool, a subclass of int
    if (flat is None or not set(map(type, flat)) <= {int}
            or (flat and not 0 <= min(flat) <= max(flat) < n)):
        raise ShapeError(f"{key!r} must be nested lists of shape {shape} "
                         f"with integer entries in 0..{n - 1}")
    return np.array(flat, dtype=np.int64).reshape(shape)


def _index_list(obj: dict, key: str) -> tuple:
    values = _require(obj, key)
    if not isinstance(values, list) or not all(_is_index(v) for v in values):
        raise ShapeError(f"{key!r} must be a list of non-negative 64-bit integers")
    return tuple(values)


def _heyting_claim(obj: dict) -> bool:
    claim = obj.get("heyting", False)
    if not isinstance(claim, bool):
        raise ShapeError("'heyting' must be true or false")
    return claim
