"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each run is one closed-loop client in one
single-threaded process: it sends the next request only after the previous
one returns.  A pass is the workload's fixed request list; passes repeat
until the next one would end after ``--seconds``, and at least one runs.

Time metrics are scaled to one reference speed of the host by a probe timed
between requests (see hostspeed.py), and each request's time is the median
over the passes of its scaled times (requests are matched by their position
in the pass).  The report lines also give the measured pass times.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics plus the
tracing overhead.  The metric names and units come from BENCHMARK.json.
The last line of stdout is the JSON result; the lines before it are a
report for people: the machine, the request counts, the failure classes
and every metric with its unit.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported anywhere in this process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
IMPORT_PROBE = ("import time; t = time.perf_counter(); import nablalg, nablalg.cli; "
                "print(time.perf_counter() - t)")
CLI_EXITS = ("cli.exit0", "cli.exit1", "cli.exit2", "cli.uncaught", "cli.stdout_bytes")


class PassResult:
    def __init__(self, traced: bool):
        self.traced = traced
        self.latencies = []
        self.probes = []                  # (index of the next request, probe seconds)
        self.failures = Counter()         # "class: reason" -> count
        self.wrong = 0                    # failures of well-formed requests
        self.cli = Counter()
        self.layers = {}

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def per_request(passes) -> list:
    """Each request's scaled latency, median over the passes, in request order."""
    from hostspeed import scaled

    return [statistics.median(ts)
            for ts in zip(*(scaled(p.latencies, p.probes) for p in passes))]


def run_pass(nl, requests, state, tracer=None) -> PassResult:
    """One pass over the request list; times ``run`` only, never the checks.

    With a tracer, the wrappers are installed for this pass only and the
    pass's per-layer metrics are kept in ``layers``.
    """
    import hostspeed
    from spans import layer_metrics
    from workloads import CliResult

    result = PassResult(traced=tracer is not None)
    if tracer is not None:
        tracer.install(nl)
        before = tracer.snapshot()
    try:
        flow = requests(nl, state)
        outcome = None
        since_probe = hostspeed.EVERY_S
        while True:
            try:
                req = flow.send(outcome)
            except StopIteration:
                break
            if since_probe >= hostspeed.EVERY_S:
                result.probes.append((len(result.latencies), hostspeed.probe()))
                since_probe = 0.0
            error = None
            start = perf_counter()
            try:
                outcome = req.run()
            except Exception as exc:      # a failed request never aborts the run
                outcome, error = None, exc
            result.latencies.append(perf_counter() - start)
            since_probe += result.latencies[-1]
            if tracer is not None:
                tracer.end_request()
            if isinstance(outcome, CliResult):
                result.cli["cli.stdout_bytes"] += len(outcome.stdout.encode())
                if outcome.error is not None:
                    result.cli["cli.uncaught"] += 1
                    error = outcome.error
                elif outcome.code in (0, 1, 2):
                    result.cli[f"cli.exit{outcome.code}"] += 1
            if error is not None:
                reason = f"uncaught {type(error).__name__}"
            else:
                try:
                    reason = req.check(outcome)
                except Exception as exc:  # malformed output counts as a wrong answer
                    reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                result.failures[f"{req.cls}: {reason}"] += 1
                result.wrong += req.well_formed
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        after = tracer.snapshot()
        result.layers = layer_metrics({k: v - before.get(k, 0) for k, v in after.items()},
                                      tracer.wrapped)
    return result


def per_layer_metrics(traced, wall_s: float) -> dict:
    """Medians over the traced passes, plus the overhead against untraced ``wall_s``."""
    measured = {}
    for name in traced[0].layers:
        measured[name] = statistics.median(p.layers[name] for p in traced)
    for name in CLI_EXITS:
        measured[name] = statistics.median(p.cli[name] for p in traced)
    measured["trace_overhead_frac"] = sum(per_request(traced)) / wall_s - 1
    return measured


def import_probe() -> float:
    """Import time of nablalg in a fresh interpreter (start-up excluded)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "nablalg" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {SRC / 'nablalg'} or {spec_path} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    # set-up: import nablalg, then generate the raw inputs
    sys.path.insert(0, str(SRC))
    import nablalg as nl
    import nablalg.cli  # noqa: F401  (binds nl.cli)
    if Path(nl.__file__).resolve().parent != (SRC / "nablalg").resolve():
        print(f"error: nablalg imported from {nl.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    from hostspeed import scale_at_now

    setup, requests = workloads.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        state = setup(args.seed)
        setups.append(scale_at_now(import_probe() + perf_counter() - t0))
    setup_s = statistics.median(setups)

    # measurement: with --trace 1, odd passes are traced
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    passes = []
    start = perf_counter()
    longest = 0.0
    while True:
        t0 = perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(nl, requests, state, tracer if traced else None))
        longest = max(longest, perf_counter() - t0)
        need_traced = tracer is not None and not any(p.traced for p in passes)
        if not need_traced and perf_counter() - start + longest > args.seconds:
            break

    plain = [p for p in passes if not p.traced]
    latencies = per_request(plain)
    attempted = sum(len(p.latencies) for p in passes)
    failures = sum((p.failures for p in passes), Counter())
    failed = sum(failures.values())
    wrong = sum(p.wrong for p in passes)
    wall_s = sum(latencies)
    p90 = percentile(latencies, 90)

    if args.trace:
        measured = per_layer_metrics([p for p in passes if p.traced], wall_s)
        wanted = spec["per_layer"]
    else:
        measured = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "req_p50_ms": statistics.median(latencies) * 1e3,
            "req_p90_ms": p90 * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    info = machine()
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} (untraced {len(plain)}) req_count={len(latencies)} "
          f"per pass, {attempted} attempted")
    print("measured pass request time (s): " + " ".join(
        f"{p.wall:.3f}{'*' if p.traced else ''}" for p in passes))
    print("host probe median (ms): " + " ".join(
        f"{statistics.median(s for _, s in p.probes) * 1e3:.3f}" for p in passes))
    beyond = sum(t > p90 for t in latencies)
    print(f"req_p90_ms: {beyond} requests beyond it, each timed {len(plain)} times")
    print(f"failed_frac={failed / attempted:.6f} ({failed}/{attempted}); "
          f"wrong answers on well-formed requests: {wrong}")
    for cls, count in sorted(failures.items()):
        print(f"  failed x{count}: {cls}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
