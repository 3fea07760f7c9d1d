"""Layer benchmark: one call of each library layer at fixed sizes.

    python tools/bench_layers.py --label change [--src DIR] [--revision REV] [-k 5]

Run from the repository root.  Each row times one call of a layer on an input
built beforehand, untimed, from scratch (a fresh lattice, so nothing kept on
it from an earlier run is reused), and reports the minimum over ``k`` runs in
seconds at the reference host speed of ``perfbench/hostspeed.py``: each run
is scaled by the median of three host-speed probes taken right after it, as
the benchmark scales its request times, since other tenants of a shared host
slow every layer alike for minutes at a time.  The layers are
``build_lattice``, ``heyting_table``, ``build_algebra``, ``classify``,
``dm_complete`` and ``prime_frame``; the inputs are the Boolean lattices 2^5
and 2^8, the 96- and 256-element chains, the 8 x 12 product of chains, and
the algebras of at most 5 elements (the row is the mean per algebra of one
pass over all 279, or for ``prime_frame`` over the distributive ones).  Each
sized lattice carries nabla(x) = x & c, c its element n // 2, with its
residual as arrow.  The pipeline ``amalgamate_algebras`` runs on the spans
of the Heyting 2-chain into two Heyting k-chains at their bounds, k = 4, 5
and 6, with ``heyting`` true; their amalgams have 20, 70 and 252 elements.

``--src`` names the ``src`` directory whose ``nablalg`` is measured (this
checkout's by default), so a second checkout of another revision gives the
rows to compare.  The rows are merged into ``BENCH_layers.json`` under
``--label``, with the machine, the numpy version, the thread settings and
the git revision of the measured tree.  BLAS and OpenMP pools are pinned to
one thread before numpy is imported.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from hostspeed import REF_S, probe  # noqa: E402


def chain_order(n: int):
    return np.triu(np.ones((n, n), dtype=bool))


def product_order(*dims):
    """The componentwise order on a product of chains."""
    out = np.ones((1, 1), dtype=bool)
    for d in dims:
        leq = chain_order(d)
        out = (out[:, None, :, None] & leq[None, :, None, :]).reshape(len(out) * d, -1)
    return out


SHAPES = {
    "boolean-2^5": lambda: product_order(*[2] * 5),
    "boolean-2^8": lambda: product_order(*[2] * 8),
    "chain-96": lambda: chain_order(96),
    "chain-256": lambda: chain_order(256),
    "product-8x12": lambda: product_order(8, 12),
}


def sized_inputs(nl):
    """(leq, nabla, arrow) per shape: nabla(x) = x & c for c = n // 2, which
    preserves joins on these distributive lattices, and its residual."""
    out = {}
    for name, order in SHAPES.items():
        leq = order()
        lat = nl.build_lattice(leq)
        nab = lat.meet[lat.n // 2].copy()
        out[name] = [(leq, nab, nl.derive_arrow(lat, nab))]
    return out


# span name -> (k1, k2): the Heyting 2-chain into the k1- and k2-chains
SPANS = {f"chain-span-2->({k},{k})": (k, k) for k in (4, 5, 6)}


def chain_span(nl, k1: int, k2: int) -> tuple:
    """(a0, a1, a2, f1, f2) on fresh lattices, each leg an embedding at the
    bounds that claims the Heyting table."""
    a0, a1, a2 = (nl.gen_heyting(nl.build_lattice(chain_order(k))) for k in (2, k1, k2))
    return (a0, a1, a2, nl.AlgebraMorphism(a0, a1, (0, k1 - 1), preserves_heyting=True),
            nl.AlgebraMorphism(a0, a2, (0, k2 - 1), preserves_heyting=True))


def catalog_inputs(nl, distributive: bool):
    return [(alg.lat.leq, alg.nabla, alg.arrow) for alg in nl.enumerate_algebras(5)
            if nl.is_distributive(alg.lat) or not distributive]


def fresh_algebra(nl, leq, nab, arr):
    return nl.build_algebra(nl.build_lattice(leq), nab, arr)


# layer -> (untimed set-up of one input, timed call on what the set-up returns)
LAYERS = {
    "build_lattice": (lambda nl, leq, nab, arr: leq, lambda nl, leq: nl.build_lattice(leq)),
    "heyting_table": (lambda nl, leq, nab, arr: nl.build_lattice(leq),
                      lambda nl, lat: nl.heyting_table(lat)),
    "build_algebra": (lambda nl, leq, nab, arr: (nl.build_lattice(leq), nab, arr),
                      lambda nl, args: nl.build_algebra(*args)),
    "classify": (fresh_algebra, lambda nl, alg: nl.classify(alg)),
    "dm_complete": (fresh_algebra, lambda nl, alg: nl.dm_complete(alg)),
    "prime_frame": (fresh_algebra, lambda nl, alg: nl.prime_frame(alg)),
    "amalgamate_algebras": (chain_span,
                            lambda nl, span: nl.amalgamate_algebras(*span, heyting=True)),
}


def time_row(nl, layer: str, inputs: list, k: int) -> float:
    """Minimum over k runs of one pass of ``layer`` over ``inputs``, per input,
    at the reference host speed."""
    setup, call = LAYERS[layer]
    best = float("inf")
    for _ in range(k):
        prepared = [setup(nl, *inp) for inp in inputs]
        start = perf_counter()
        for arg in prepared:
            call(nl, arg)
        took = perf_counter() - start
        speed = REF_S / statistics.median(probe() for _ in range(3))
        best = min(best, took * speed / len(inputs))
    return best


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(), "system": platform.platform(),
            "python": platform.python_version()}


def revision(src: Path) -> str:
    try:
        rev = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                             cwd=src, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return rev.strip()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of these rows in the output")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--revision", default=None,
                        help="git revision of --src, when it is no git checkout")
    parser.add_argument("-k", type=int, default=5, help="runs per row; the minimum is kept")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = parser.parse_args()

    sys.path.insert(0, str(args.src.resolve()))
    import nablalg as nl

    sized = sized_inputs(nl)
    spans = {name: [ks] for name, ks in SPANS.items()}
    rows = {}
    for layer in LAYERS:
        inputs = spans if layer == "amalgamate_algebras" else {
            **sized, "catalog-n<=5-mean": catalog_inputs(nl, distributive=layer == "prime_frame")}
        for shape, inp in inputs.items():
            rows[f"{layer}/{shape}"] = time_row(nl, layer, inp, args.k)
            print(f"{layer:>19} {shape:>19} {rows[f'{layer}/{shape}'] * 1e3:10.3f} ms",
                  file=sys.stderr)

    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out.setdefault("unit", "s")
    out.setdefault("runs", {})[args.label] = {
        "revision": args.revision or revision(args.src),
        "machine": machine(),
        "numpy": np.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "k": args.k,
        "host_probe_ref_s": REF_S,
        "rows": rows,
    }
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
