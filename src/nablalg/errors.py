"""Typed rejections and internal cross-check failures.

Every structural rejection carries a machine-readable ``witness`` so callers
(and the CLI) can report exactly which tuple broke which law.
"""

from __future__ import annotations

import numbers


class NablalgError(Exception):
    """Base class for all structural rejections."""

    code = "error"

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness

    def to_json(self) -> dict:
        w = self.witness
        if isinstance(w, (tuple, list)):
            w = [int(x) for x in w]
        elif w is not None:
            # numbers.Integral covers numpy integer scalars too
            w = int(w) if isinstance(w, numbers.Integral) else str(w)
        return {"error": self.code, "message": str(self), "witness": w}


class ShapeError(NablalgError):
    code = "shape"


class NotPartialOrder(NablalgError):
    code = "not-partial-order"


class NoMeet(NablalgError):
    code = "no-meet"


class NoJoin(NablalgError):
    code = "no-join"


class NoBounds(NablalgError):
    code = "no-bounds"


class AdjunctionFailure(NablalgError):
    """The pair (nabla, arrow) breaks the residuation law; witness is (a, b, c)."""

    code = "adjunction-failure"

    def __init__(self, a: int, b: int, c: int, direction: str):
        super().__init__(
            f"residuation fails at (a={a}, b={b}, c={c}), direction {direction}",
            witness=(a, b, c),
        )
        self.a, self.b, self.c = a, b, c
        self.direction = direction

    def to_json(self) -> dict:
        d = super().to_json()
        d["direction"] = self.direction
        return d


class NotDistributive(NablalgError):
    code = "not-distributive"


class NotNormal(NablalgError):
    code = "not-normal"


class NotCompatible(NablalgError):
    code = "not-compatible"


class NotEmbedding(NablalgError):
    code = "not-embedding"


class InvalidMorphism(NablalgError):
    code = "invalid-morphism"


class NotKripkeMorphism(InvalidMorphism):
    code = "not-kripke-morphism"


class NotSurjective(NablalgError):
    code = "not-surjective"


class Trivial(NablalgError):
    code = "trivial"


class TooLarge(NablalgError):
    code = "too-large"


class OutOfRange(NablalgError):
    code = "out-of-range"


class CrossCheckError(AssertionError):
    """An internally derivable fact failed.

    Raised only when two independent computations of the same fact disagree,
    which means a bug in this library, never bad user input.
    """


def ensure(cond: bool, message: str) -> None:
    if not cond:
        raise CrossCheckError(message)
