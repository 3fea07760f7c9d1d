"""Self-tests of the benchmark: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import nablalg as nl  # noqa: E402
import nablalg.cli  # noqa: E402,F401
import gen  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Request  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    setup, _ = workloads.WORKLOADS[name]
    assert pickle.dumps(setup(7)) == pickle.dumps(setup(7))
    assert pickle.dumps(setup(7)) != pickle.dumps(setup(8))


@pytest.mark.parametrize("kind", gen.MUTATIONS)
def test_mutations_are_deterministic(kind):
    inst = gen.product_instance("p", np.random.default_rng(0), (2, 3))
    text = gen.dumps(gen.algebra_doc(inst.leq, inst.nabla, inst.arrow))
    first = gen.mutate(text, kind, np.random.default_rng(5))
    assert first is not None and first != text
    assert first == gen.mutate(text, kind, np.random.default_rng(5))


def test_generated_tables_are_the_unique_ones():
    rng = np.random.default_rng(3)
    for inst in (gen.boolean_instance("b", rng, 3), gen.product_instance("p", rng, (3, 4)),
                 gen.mask_instance("u", rng, gen.poset_with_upsets(rng, 5, 0.3, 10))):
        lat = nl.build_lattice(inst.leq)
        assert (lat.meet == inst.meet).all() and (lat.join == inst.join).all()
        assert (nl.derive_arrow(lat, inst.nabla) == inst.arrow).all()
        assert (nl.heyting_table(lat) == inst.heyting).all()


def _chain_state():
    rng = np.random.default_rng(0)
    return workloads.BigState(ladder=[gen.boolean_instance("b", rng, 3)],
                              chains=[gen.chain_instance("c", rng, 5)])


def _small_big_requests(nl_, state):
    for req in workloads.big_requests(nl_, state):
        if "xn" not in req.cls:
            yield req


def test_small_pass_is_correct():
    result = run.run_pass(nl, _small_big_requests, _chain_state())
    assert not result.failures and result.wrong == 0
    assert len(result.latencies) == 4


def test_wrong_answer_is_counted_and_run_continues(monkeypatch):
    monkeypatch.setattr(nl, "is_simple", lambda alg: nl.Verdict(True))
    result = run.run_pass(nl, _small_big_requests, _chain_state())
    assert sum(result.failures.values()) == 1 and result.wrong == 1
    assert "lib:chain-is_simple: verdict True, want False" in result.failures
    assert len(result.latencies) == 4


def test_raising_request_and_malformed_exit_are_counted():
    def flow(nl_, state):
        yield Request("lib:raises", lambda: 1 // 0, lambda out: None)
        yield Request("malformed:top-level-array",
                      lambda: workloads.call_cli(nl_, ["classify", "-"], "[]"),
                      lambda res: workloads._exit_failure(res, 2), well_formed=False)
        yield Request("lib:fine", lambda: 1, lambda out: None)

    result = run.run_pass(nl, flow, None)
    assert result.failures["lib:raises: uncaught ZeroDivisionError"] == 1
    assert sum(result.failures.values()) >= 1 and result.wrong == 1
    assert len(result.latencies) == 3


def test_request_times_are_scaled_then_taken_at_their_median_pass():
    ref = hostspeed.REF_S
    slow = [(0, 2 * ref), (1, 2 * ref)]
    assert hostspeed.scaled([0.2, 0.4], slow) == pytest.approx([0.1, 0.2])
    passes = [run.PassResult(traced=False) for _ in range(3)]
    for p, lat in zip(passes, ([0.3, 0.1], [0.2, 0.4], [0.5, 0.2])):
        p.latencies, p.probes = lat, [(0, ref)]
    assert run.per_request(passes) == pytest.approx([0.3, 0.2])


def test_tracer_restores_every_binding():
    before = {name: getattr(nl, name) for name in ("build_lattice", "classify", "upset_algebra")}
    before_ensure = nl.lattice.ensure
    tracer = spans.Tracer()
    tracer.install(nl)
    assert nl.build_lattice is not before["build_lattice"]
    tracer.uninstall()
    assert all(getattr(nl, name) is fn for name, fn in before.items())
    assert nl.lattice.ensure is before_ensure


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rng = np.random.default_rng(1)
    span = gen.small_span("s", rng, (3,), (3,))
    inst = gen.product_instance("p", rng, (2, 3))
    doc = gen.dumps(gen.algebra_doc(inst.leq, inst.nabla, inst.arrow))

    def flow(nl_, state):
        yield Request("lib:amalgamate", lambda: workloads._amalgamate(nl_, span),
                      workloads._check_amalgam(span))
        yield Request("cli:simple", lambda: workloads.call_cli(nl_, ["simple", "-"], doc),
                      lambda res: None)

    plain = run.run_pass(nl, flow, None)
    traced = run.run_pass(nl, flow, None, tracer=spans.Tracer())
    assert not traced.failures
    emitted = run.per_layer_metrics([traced], plain.wall)
    wanted = [m["name"] for m in spec["per_layer"]]
    assert len(wanted) == len(set(wanted))
    assert not set(wanted) - set(emitted)
    assert emitted["kripke.amalgamate_frames.self_s"] > 0
    assert emitted["cli.main.calls"] == 1 and emitted["errors.ensure.calls"] > 0
