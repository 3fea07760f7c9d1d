import hashlib
import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from nablalg.cli import main
from nablalg.gallery import gen_heyting
from nablalg.serialize import SIZE_MAX, algebra_to_json, dumps, frame_to_json, lattice_to_json

from conftest import chain


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out) if out else None


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(dumps(obj))
    return str(p)


def test_gen_and_validate_roundtrip(tmp_path, capsys):
    code, out = run(capsys, "gen", "xn", "1")
    assert code == 0
    path = write(tmp_path, "x1.json", json.loads(out))
    code, obj = run_json(capsys, "validate", path)
    assert code == 0 and obj["ok"]


def test_validate_rejects_broken_algebra(tmp_path, capsys, x1):
    obj = algebra_to_json(x1)
    obj["nabla"] = [2, 0, 2]
    path = write(tmp_path, "bad.json", obj)
    code, rep = run_json(capsys, "validate", path)
    assert code == 1
    assert not rep["ok"] and rep["error"]["error"] == "adjunction-failure"


def test_validate_malformed_input_is_exit_two(tmp_path, capsys):
    p = tmp_path / "garbage.json"
    p.write_text("{not json")
    code, _ = run_json(capsys, "validate", str(p))
    assert code == 2


def test_validate_unknown_kind_is_exit_two(tmp_path, capsys):
    path = write(tmp_path, "odd.json", {"kind": "mystery"})
    code, _ = run_json(capsys, "validate", path)
    assert code == 2


def test_validate_lattice_and_frame(tmp_path, capsys, x1):
    lpath = write(tmp_path, "lat.json", lattice_to_json(chain(3)))
    assert run_json(capsys, "validate", lpath)[0] == 0
    from nablalg.kripke import prime_frame

    fpath = write(tmp_path, "frame.json", frame_to_json(prime_frame(x1)))
    assert run_json(capsys, "validate", fpath)[0] == 0
    bad = lattice_to_json(chain(3))
    bad["leq"][0][1] = False  # breaks the bottom, leaves a meetless pair
    bpath = write(tmp_path, "bad.json", bad)
    code, rep = run_json(capsys, "validate", bpath)
    assert code == 1 and not rep["ok"]


def test_validate_morphism_kind(tmp_path, capsys, b2, h3):
    from nablalg.algebra import AlgebraMorphism
    from nablalg.serialize import morphism_to_json

    m = AlgebraMorphism(b2, h3, (0, 2), preserves_heyting=True)
    path = write(tmp_path, "m.json", morphism_to_json(m))
    code, rep = run_json(capsys, "validate", path)
    assert code == 0 and rep["ok"]


def test_classify_flags(tmp_path, capsys, x1):
    path = write(tmp_path, "x1.json", algebra_to_json(x1))
    code, obj = run_json(capsys, "classify", path)
    assert code == 0
    assert obj["flags"] == {"D": True, "H": True, "N": True, "R": False,
                            "L": True, "Fa": False, "Fu": False}


def test_modal_filters_and_congruences(tmp_path, capsys, x1):
    path = write(tmp_path, "x1.json", algebra_to_json(x1))
    code, obj = run_json(capsys, "modal-filters", path)
    assert code == 0 and obj["filters"] == [[2], [0, 1, 2]]
    code, obj = run_json(capsys, "congruences", path)
    assert code == 0 and obj["congruences"] == [[0, 1, 2], [0, 0, 0]]


def test_si_and_simple_exit_codes(tmp_path, capsys, x1, h3):
    px1 = write(tmp_path, "x1.json", algebra_to_json(x1))
    ph3 = write(tmp_path, "h3.json", algebra_to_json(h3))
    assert run_json(capsys, "simple", px1)[0] == 0
    code, verdict = run_json(capsys, "simple", ph3)
    assert code == 1 and verdict["ok"] is False
    assert run_json(capsys, "si", ph3)[0] == 0


def test_operation_precondition_is_exit_one(tmp_path, capsys):
    from nablalg.gallery import gen_trivial

    alg = gen_trivial(chain(3))  # not normal
    path = write(tmp_path, "triv.json", algebra_to_json(alg))
    code, obj = run_json(capsys, "modal-filters", path)
    assert code == 1 and obj["error"]["error"] == "not-normal"


def test_dm_complete_output(tmp_path, capsys, x1):
    path = write(tmp_path, "x1.json", algebra_to_json(x1))
    code, obj = run_json(capsys, "dm-complete", path)
    assert code == 0
    assert obj["kind"] == "nabla-algebra" and len(obj["embedding"]) == 3


def test_prime_frame_and_upset_algebra(tmp_path, capsys, x1):
    path = write(tmp_path, "x1.json", algebra_to_json(x1))
    code, frame = run_json(capsys, "prime-frame", path)
    assert code == 0 and frame["kind"] == "kripke-frame" and frame["n"] == 2
    fpath = write(tmp_path, "frame.json", frame)
    code, alg = run_json(capsys, "upset-algebra", fpath)
    assert code == 0 and alg["kind"] == "nabla-algebra"
    assert len(alg["nabla"]) == 3


def test_check_morphism(tmp_path, capsys, b2, h3):
    obj = {
        "kind": "morphism",
        "map": [0, 2],
        "source": algebra_to_json(b2),
        "target": algebra_to_json(h3),
        "heyting": True,
    }
    path = write(tmp_path, "m.json", obj)
    code, rep = run_json(capsys, "check-morphism", path)
    assert code == 0 and rep["ok"] and rep["injective"]
    obj["map"] = [0, 0]
    path = write(tmp_path, "m2.json", obj)
    code, rep = run_json(capsys, "check-morphism", path)
    assert code == 1 and not rep["ok"]


def test_amalgamate_span(tmp_path, capsys, b2, h3):
    span = {
        "kind": "span",
        "a0": algebra_to_json(b2),
        "a1": algebra_to_json(h3),
        "a2": algebra_to_json(h3),
        "f1": [0, 2],
        "f2": [0, 2],
        "heyting": True,
    }
    path = write(tmp_path, "span.json", span)
    code, out = run_json(capsys, "amalgamate", path)
    assert code == 0
    assert len(out["b"]["nabla"]) == 6
    assert set(out["intermediate"]["frames"]) == {"k0", "k1", "k2", "pullback"}


# sha256 of the stdout of `nablalg amalgamate` on the 2-chain into two
# Heyting 3-chains (amalgam of 6 elements) and into two 5-chains (70), with
# the legs composed through the upset algebras of the legs' prime frames
AMALGAMATE_STDOUT_SHA256 = {
    3: "064ab0c29fa52cc74d2a01b836679d7dd21d21ec6563bf123d385a8563991ac1",
    5: "f5d523e22e78e762ba53e8ac267c11abf257adc0f3507ec4151c46899ee69258",
}


@pytest.mark.parametrize("k", sorted(AMALGAMATE_STDOUT_SHA256))
def test_amalgamate_stdout_matches_the_composite_route(tmp_path, capsys, b2, k):
    hk = gen_heyting(chain(k))
    span = {"kind": "span", "a0": algebra_to_json(b2), "a1": algebra_to_json(hk),
            "a2": algebra_to_json(hk), "f1": [0, k - 1], "f2": [0, k - 1], "heyting": True}
    assert main(["amalgamate", write(tmp_path, "span.json", span)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == AMALGAMATE_STDOUT_SHA256[k]


def test_gen_trivial_and_heyting(tmp_path, capsys):
    path = write(tmp_path, "lat.json", lattice_to_json(chain(3)))
    code, obj = run_json(capsys, "gen", "trivial", path)
    assert code == 0 and obj["kind"] == "nabla-algebra"
    code, obj = run_json(capsys, "gen", "heyting", path)
    assert code == 0 and obj["nabla"] == [0, 1, 2]


def test_gen_cex3(capsys):
    code, obj = run_json(capsys, "gen", "cex3")
    assert code == 0 and obj["kind"] == "strong-candidate"
    assert obj["arrow"] == [[2, 2, 2], [2, 2, 2], [0, 0, 2]]


def test_gen_xn_out_of_range(capsys):
    code, obj = run_json(capsys, "gen", "xn", "9")
    assert code == 2 and obj["error"]["error"] == "out-of-range"


def test_enumerate_byte_identical(capsys):
    code, first = run(capsys, "enumerate", "--max-n", "2")
    assert code == 0
    code, second = run(capsys, "enumerate", "--max-n", "2")
    assert first == second
    lines = first.splitlines()
    assert len(lines) == 3  # one on the point, two dynamics on the two-chain
    for line in lines:
        assert json.loads(line)["kind"] == "nabla-algebra"


def test_enumerate_flag_filter(capsys):
    code, out = run(capsys, "enumerate", "--max-n", "2", "--flags", "N,D")
    assert code == 0
    assert len(out.splitlines()) == 2


def test_enumerate_unknown_flag_is_exit_two(capsys):
    for flags in ("Z", "N,Z", "n"):
        code, out = run(capsys, "enumerate", "--max-n", "3", "--flags", flags)
        assert code == 2 and len(out.splitlines()) == 1
        assert json.loads(out)["error"]["error"] == "out-of-range"
    # empty items are skipped
    assert run(capsys, "enumerate", "--max-n", "3", "--flags", "N,,") == \
        run(capsys, "enumerate", "--max-n", "3", "--flags", "N")


def test_oracle_size_bound_is_exit_two(tmp_path, capsys):
    # gen xn 4 has 17 elements, past the congruence oracle's bound
    code, out = run(capsys, "gen", "xn", "4")
    path = write(tmp_path, "x4.json", json.loads(out))
    code, out = run(capsys, "congruences", path)
    assert code == 2 and len(out.splitlines()) == 1
    assert json.loads(out)["error"]["error"] == "too-large"


def test_document_size_bound_is_exit_two(tmp_path, capsys):
    # the 252-element amalgam of a 2-chain into two 6-chains must load
    assert SIZE_MAX >= 252
    # the empty tables are never read: the size alone is refused
    lat = {"kind": "lattice", "n": SIZE_MAX + 1, "leq": []}
    alg = {"kind": "nabla-algebra", "lattice": lat, "nabla": [], "arrow": []}
    frame = {"kind": "kripke-frame", "n": SIZE_MAX + 1, "leq": [], "r": []}
    for argv in (("validate", write(tmp_path, "lat.json", lat)),
                 ("gen", "heyting", write(tmp_path, "lat.json", lat)),
                 ("classify", write(tmp_path, "alg.json", alg)),
                 ("upset-algebra", write(tmp_path, "frame.json", frame))):
        code, out = run(capsys, *argv)
        assert code == 2 and len(out.splitlines()) == 1, argv
        assert json.loads(out)["error"]["error"] == "too-large", argv


def test_upset_explosion_is_exit_two(tmp_path, capsys):
    # a 9-world antichain passes the document bound but has 2^9 upsets
    eye = [[i == j for j in range(9)] for i in range(9)]
    frame = {"kind": "kripke-frame", "n": 9, "leq": eye, "r": eye}
    code, out = run(capsys, "upset-algebra", write(tmp_path, "frame.json", frame))
    assert code == 2 and len(out.splitlines()) == 1
    assert json.loads(out)["error"]["error"] == "too-large"


def test_validate_from_stdin(capsys, monkeypatch, x1):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(dumps(algebra_to_json(x1))))
    code, obj = run_json(capsys, "validate", "-")
    assert code == 0 and obj["ok"]


@pytest.mark.parametrize("key, value", [
    ("a0", None),            # None drops the key
    ("f1", None),
    ("f2", [0, 1, "2"]),
    ("f2", [0, 1, 2.7]),
    ("f2", [0, 1, 10**30]),  # beyond int64
    ("heyting", "no"),
], ids=["no-a0", "no-f1", "f2-string", "f2-float", "f2-oversized", "heyting-string"])
def test_amalgamate_malformed_span_is_exit_two(tmp_path, capsys, h3, key, value):
    # the identity span on the three-chain: coercing the bad value would pass
    span = {"kind": "span", "a0": algebra_to_json(h3), "a1": algebra_to_json(h3),
            "a2": algebra_to_json(h3), "f1": [0, 1, 2], "f2": [0, 1, 2], "heyting": False}
    if value is None:
        del span[key]
    else:
        span[key] = value
    code, out = run_json(capsys, "amalgamate", write(tmp_path, "span.json", span))
    assert code == 2 and out["error"]["error"] == "shape"


def test_upset_algebra_frame_without_size_is_exit_two(tmp_path, capsys, x1):
    from nablalg.kripke import prime_frame

    frame = frame_to_json(prime_frame(x1))
    del frame["n"]
    code, out = run_json(capsys, "upset-algebra", write(tmp_path, "frame.json", frame))
    assert code == 2 and out["error"]["error"] == "shape"


DROP = object()


def edited(doc, path, value=DROP):
    """A deep copy of doc with the entry at path replaced, or dropped."""
    doc = json.loads(json.dumps(doc))
    *outer, key = path
    target = doc
    for k in outer:
        target = target[k]
    if value is DROP:
        del target[key]
    else:
        target[key] = value
    return doc


# each document is the three-chain Heyting algebra with one defect; where the
# defect can be coerced away (ints as bools, floats truncated, bools as
# indices, a stray n) the coerced document is valid
@pytest.mark.parametrize("command, make", [
    ("classify", lambda alg: edited(alg, ["nabla"])),
    ("classify", lambda alg: edited(alg, ["arrow"])),
    ("classify", lambda alg: edited(alg, ["lattice"])),
    ("classify", lambda alg: edited(alg, ["lattice", "leq"])),
    ("classify", lambda alg: edited(alg, ["lattice", "n"])),
    ("classify", lambda alg: edited(alg, ["lattice", "leq"], [[7, 3, 3], [0, 7, 3], [0, 0, 7]])),
    ("classify", lambda alg: edited(alg, ["nabla"], [0.5, 1.2, 2.0])),
    ("classify", lambda alg: edited(alg, ["nabla"], [False, True, 2])),
    ("classify", lambda alg: edited(alg, ["arrow", 1, 1], True)),
    ("classify", lambda alg: edited(alg, ["lattice", "n"], 4)),
    ("validate", lambda alg: edited(alg["lattice"], ["n"], 2)),
    ("validate", lambda alg: {"kind": "strong-candidate", "lattice": alg["lattice"]}),
    ("validate", lambda alg: {"kind": "strong-candidate", "lattice": alg["lattice"],
                              "arrow": [[float(v) for v in row] for row in alg["arrow"]]}),
    ("validate", lambda alg: [alg]),
    ("check-morphism", lambda alg: {"kind": "morphism", "map": [0, 1, 2],
                                    "source": [1], "target": alg}),
    ("check-morphism", lambda alg: {"kind": "morphism", "map": [0, 1, 10**30],
                                    "source": alg, "target": alg}),
], ids=["no-nabla", "no-arrow", "no-lattice", "no-leq", "no-n", "int-leq", "float-nabla",
        "bool-nabla", "bool-arrow", "n-disagrees", "lattice-n-disagrees",
        "candidate-no-arrow", "candidate-float-arrow", "top-level-array", "list-source",
        "oversized-map"])
def test_malformed_document_is_exit_two(tmp_path, capsys, h3, command, make):
    doc = make(algebra_to_json(h3))
    code, out = run_json(capsys, command, write(tmp_path, "doc.json", doc))
    assert code == 2 and out["error"]["error"] == "shape"


def test_unreadable_reference_is_exit_two(tmp_path, capsys, h3):
    # "" and "." resolve to the document's directory, which cannot be read
    for ref in ("", "."):
        doc = {"kind": "morphism", "map": [0, 1, 2], "source": ref, "target": algebra_to_json(h3)}
        code, out = run_json(capsys, "check-morphism", write(tmp_path, "m.json", doc))
        assert code == 2 and out["error"]["error"] == "input"
    code, out = run_json(capsys, "classify", str(tmp_path))
    assert code == 2 and out["error"]["error"] == "input"


def test_deeply_nested_document_is_exit_two(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    code, out = run_json(capsys, "classify", str(p))
    assert code == 2 and out["error"]["error"] == "input"


def test_failed_cross_check_is_exit_three(tmp_path, capsys, monkeypatch, x1):
    import nablalg.algebra
    from nablalg.errors import ensure

    def failing(cond, message):
        ensure(cond and message != "right-condition characterizations disagree", message)

    monkeypatch.setattr(nablalg.algebra, "ensure", failing)
    code, out = run_json(capsys, "classify", write(tmp_path, "x1.json", algebra_to_json(x1)))
    assert code == 3
    assert out["error"] == {"error": "internal",
                            "message": "right-condition characterizations disagree"}


def test_wrong_heyting_table_is_exit_three(tmp_path, capsys, monkeypatch):
    """validate decides the identity's pair by comparison with the Heyting
    table; a table wrong in one entry contradicts the scan of the triples."""
    import nablalg.algebra

    alg = gen_heyting(chain(4))
    wrong = alg.heyting.copy()
    wrong[0, 0] = 2
    monkeypatch.setattr(nablalg.algebra, "heyting_table", lambda lat: wrong)
    code, out = run_json(capsys, "validate", write(tmp_path, "h4.json", algebra_to_json(alg)))
    assert code == 3
    assert out["error"] == {"error": "internal",
                            "message": "residuation characterizations disagree"}


def test_rejected_lattice_child_is_exit_three(capsys, monkeypatch):
    import nablalg.lattice

    def every_subset(leq):
        return np.array(list(itertools.product([False, True], repeat=len(leq))))

    monkeypatch.setattr(nablalg.lattice, "_upset_rows", every_subset)
    code, out = run_json(capsys, "enumerate", "--max-n", "4")
    assert code == 3
    assert out["error"] == {"error": "internal",
                            "message": "an admissible new atom must leave a lattice"}


def test_reused_parser_matches_fresh_parser(tmp_path, capsys, monkeypatch, x1, b2, h3):
    import nablalg.cli as cli
    from nablalg.kripke import prime_frame

    alg = write(tmp_path, "x1.json", algebra_to_json(x1))
    frame = write(tmp_path, "frame.json", frame_to_json(prime_frame(x1)))
    lat = write(tmp_path, "lat.json", lattice_to_json(chain(3)))
    morphism = write(tmp_path, "m.json", {"kind": "morphism", "map": [0, 2], "heyting": True,
                                          "source": algebra_to_json(b2),
                                          "target": algebra_to_json(h3)})
    span = write(tmp_path, "span.json", {"kind": "span", "a0": algebra_to_json(b2),
                                         "a1": algebra_to_json(h3), "a2": algebra_to_json(h3),
                                         "f1": [0, 2], "f2": [0, 2], "heyting": True})
    calls = [
        ["validate", alg], ["classify", alg], ["modal-filters", alg], ["congruences", alg],
        ["classify"],                       # usage error: argparse exits with 2
        ["si", alg], ["simple", alg], ["dm-complete", alg], ["prime-frame", alg],
        ["--verbose", "upset-algebra", frame], ["check-morphism", morphism],
        ["amalgamate", span], ["enumerate", "--max-n", "nine"], ["gen", "heyting", lat],
        ["gen", "xn", "9"], ["enumerate", "--max-n", "3", "--flags", "N,D"],
        ["--verbose", "classify", alg], ["classify", alg],
    ]

    def outcomes():
        seen = []
        for argv in calls:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = ("usage", exc.code)
            captured = capsys.readouterr()
            seen.append((argv, code, captured.out, bool(captured.err)))
        return seen

    reused = outcomes() + outcomes()
    assert cli._parser() is cli._parser()
    # handlers are looked up when called, so a rebound one runs
    monkeypatch.setattr(cli, "cmd_classify", lambda args: 7)
    assert cli.main(["classify", alg]) == 7
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = outcomes() + outcomes()
    assert reused == fresh
    codes = [code for _, code, _, _ in reused]
    assert codes.count(("usage", 2)) == 4 and codes.count(0) > 20


# Runs the console-script entry in a fresh interpreter and records the pool
# variables at the moment numpy is first imported.
ENTRY_PROBE = textwrap.dedent("""
    import os, sys
    seen = []

    class Spy:
        def find_spec(self, name, path=None, target=None):
            if name == "numpy" and not seen:
                seen.append([os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")])

    sys.meta_path.insert(0, Spy())
    import {module}
    before = list(seen)
    sys.argv = ["nablalg", "gen", "xn", "1"]
    try:
        {call}
    except SystemExit as stop:
        sys.stdout.write(f"exit {{stop.code}}\\n")
    sys.stdout.write(repr([before, seen]) + "\\n")
""")


def probe_entry(module, call, **env):
    src = str(Path(__file__).resolve().parent.parent / "src")
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = src + os.pathsep + base.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", ENTRY_PROBE.format(module=module, call=call)],
                          env={**base, **env}, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_console_entry_pins_the_blas_pool_before_numpy():
    lines = probe_entry("nablalg_entry", "nablalg_entry.entry()")
    assert json.loads(lines[0])["kind"] == "nabla-algebra"
    assert lines[-2:] == ["exit 0", repr([[], [["1", "1"]]])]
    # a value the environment sets is kept
    lines = probe_entry("nablalg_entry", "nablalg_entry.entry()", OPENBLAS_NUM_THREADS="2")
    assert lines[-1] == repr([[], [["2", "1"]]])
    # importing the library leaves the pool alone
    lines = probe_entry("nablalg.cli", "nablalg.cli.entry()")
    assert lines[-2:] == ["exit 0", repr([[[None, None]], [[None, None]]])]
