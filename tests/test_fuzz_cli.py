"""Malformed documents through every document subcommand of the CLI.

Each document starts from a valid one and gets one defect: a value replaced
by an arbitrary JSON value (wrong types, bools where indices go, floats,
strings, oversized integers, nested lists), a key or list item dropped, a
list grown past its shape, or the whole document replaced by a non-object.
Whatever the defect, the CLI must exit 0, 1 or 2 and print exactly one JSON
line; a traceback or exit 3 is a bug.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nablalg.algebra import AlgebraMorphism
from nablalg.cli import main
from nablalg.gallery import gen_heyting
from nablalg.kripke import FrameMorphism, prime_frame
from nablalg.serialize import (
    algebra_to_json,
    frame_to_json,
    lattice_to_json,
    morphism_to_json,
    strong_candidate_to_json,
)

from conftest import boolean_square, chain

FUZZ = settings(max_examples=30, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

B2, H3, B4 = gen_heyting(chain(2)), gen_heyting(chain(3)), gen_heyting(boolean_square())
ALGEBRA = algebra_to_json(H3)
LATTICE = lattice_to_json(B4.lat)
FRAME = frame_to_json(prime_frame(B4))
MORPHISM = morphism_to_json(AlgebraMorphism(B2, H3, (0, 2), preserves_heyting=True))
FRAME_MORPHISM = morphism_to_json(FrameMorphism(prime_frame(H3), prime_frame(B2), (0, 0)))
SPAN = {"kind": "span", "a0": algebra_to_json(B2), "a1": ALGEBRA, "a2": ALGEBRA,
        "f1": [0, 2], "f2": [0, 2], "heyting": True}
CANDIDATE = strong_candidate_to_json(H3)

# (argv before the document, the valid documents it reads)
COMMANDS = {
    "validate": (["validate"], [ALGEBRA, LATTICE, FRAME, MORPHISM, FRAME_MORPHISM, CANDIDATE]),
    "classify": (["classify"], [ALGEBRA]),
    "modal-filters": (["modal-filters"], [ALGEBRA]),
    "congruences": (["congruences"], [ALGEBRA]),
    "si": (["si"], [ALGEBRA]),
    "simple": (["simple"], [ALGEBRA]),
    "dm-complete": (["dm-complete"], [ALGEBRA]),
    "prime-frame": (["prime-frame"], [ALGEBRA]),
    "upset-algebra": (["upset-algebra"], [FRAME]),
    "check-morphism": (["check-morphism"], [MORPHISM, FRAME_MORPHISM]),
    "amalgamate": (["amalgamate"], [SPAN]),
    "gen-heyting": (["gen", "heyting"], [LATTICE]),
    "gen-trivial": (["gen", "trivial"], [LATTICE]),
}

# "", "." and "-" read as references resolve to directories or missing files
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5), st.integers(2 ** 62, 2 ** 70),
    st.floats(), st.text(max_size=3), st.sampled_from(["", ".", "-"]),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=8,
)


@st.composite
def malformed(draw, docs):
    doc = json.loads(json.dumps(draw(st.sampled_from(docs))))
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values.filter(lambda v: not isinstance(v, dict)))
    # walk down from the root, stopping at each level with even odds, so the
    # top-level keys get as many defects as all table entries together
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and (key is None or draw(st.booleans())):
        parent = node
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    defect = draw(st.sampled_from(["replace", "bool", "drop", "grow"]))
    if defect == "replace":
        parent[key] = draw(json_values)
    elif defect == "bool":
        parent[key] = draw(st.booleans())
    elif defect == "drop":
        del parent[key]
    elif isinstance(node, list) and node:
        node.append(draw(json_values) if draw(st.booleans()) else node[-1])
    else:
        parent[draw(st.text(max_size=3)) if isinstance(parent, dict) else len(parent) - 1] = \
            draw(json_values)
    return doc


def run_document(argv, doc):
    """Exit code and stdout of ``main`` on the document read from stdin."""
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def assert_one_json_line(code, out):
    assert code in (0, 1, 2)
    lines = out.splitlines()
    assert len(lines) == 1 and out.endswith("\n")
    assert isinstance(json.loads(lines[0]), dict)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_valid_documents_are_read(command):
    # a false verdict (the three-chain is not simple) exits 1, bad input 2
    argv, docs = COMMANDS[command]
    for doc in docs:
        code, out = run_document(argv, doc)
        assert code in (0, 1)
        assert_one_json_line(code, out)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_malformed_documents_exit_cleanly(command):
    argv, docs = COMMANDS[command]

    @FUZZ
    @given(malformed(docs))
    def check(doc):
        assert_one_json_line(*run_document(argv, doc))

    check()
