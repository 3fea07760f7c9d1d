import numpy as np
import pytest

from nablalg.algebra import AlgebraMorphism, tables_equal
from nablalg.errors import NoMeet, ShapeError
from nablalg.gallery import gen_counterexample_cex3, gen_xn
from nablalg.kripke import FrameMorphism, prime_frame
from nablalg.serialize import (
    algebra_from_json,
    algebra_to_json,
    dumps,
    frame_from_json,
    frame_to_json,
    lattice_from_json,
    lattice_to_json,
    morphism_from_json,
    morphism_to_json,
    strong_candidate_from_json,
    strong_candidate_to_json,
    value_from_json,
)

from conftest import chain


def test_lattice_roundtrip():
    lat = chain(3)
    obj = lattice_to_json(lat)
    assert obj["kind"] == "lattice" and obj["n"] == 3
    assert "meet" not in obj and "join" not in obj
    again = lattice_from_json(obj)
    assert (again.leq == lat.leq).all()


def test_algebra_roundtrip(x1):
    obj = algebra_to_json(x1)
    again = algebra_from_json(obj)
    assert tables_equal(again, x1)


def test_frame_roundtrip(x1):
    frame = prime_frame(x1)
    again = frame_from_json(frame_to_json(frame))
    assert tables_equal(again, frame)


def test_strong_candidate_roundtrip():
    cand = gen_counterexample_cex3()
    again = strong_candidate_from_json(strong_candidate_to_json(cand))
    assert (again.arrow == cand.arrow).all()


def test_algebra_morphism_roundtrip(b2, h3):
    m = AlgebraMorphism(b2, h3, (0, 2), preserves_heyting=True)
    again = morphism_from_json(morphism_to_json(m))
    assert isinstance(again, AlgebraMorphism)
    assert again.map == (0, 2) and again.preserves_heyting


def test_frame_morphism_roundtrip(x1, h3):
    m = FrameMorphism(prime_frame(h3), prime_frame(x1), (0, 1))
    again = morphism_from_json(morphism_to_json(m))
    assert isinstance(again, FrameMorphism)
    assert again.map == (0, 1)


def test_morphism_with_path_references(tmp_path, b2, h3):
    (tmp_path / "src.json").write_text(dumps(algebra_to_json(b2)))
    (tmp_path / "tgt.json").write_text(dumps(algebra_to_json(h3)))
    obj = {"kind": "morphism", "map": [0, 2], "source": "src.json", "target": "tgt.json"}

    def loader(ref):
        import json

        return json.loads((tmp_path / ref).read_text())

    m = morphism_from_json(obj, loader=loader)
    assert m.map == (0, 2)


def test_value_dispatch_rejects_unknown():
    with pytest.raises(ShapeError):
        value_from_json({"kind": "mystery"})


def test_dumps_deterministic(x1):
    a = dumps(algebra_to_json(x1))
    b = dumps(algebra_to_json(gen_xn(1)))
    assert a == b


def test_invalid_payload_rejected_on_load():
    obj = algebra_to_json(gen_xn(1))
    obj["nabla"] = [2, 2, 2]
    with pytest.raises(Exception):
        algebra_from_json(obj)


def test_error_json_keeps_integer_witnesses():
    assert NoMeet("x", witness=np.int64(3)).to_json()["witness"] == 3
    assert NoMeet("x", witness=(np.int64(1), 2)).to_json()["witness"] == [1, 2]
    assert NoMeet("x", witness="pair").to_json()["witness"] == "pair"
