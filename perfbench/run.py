"""qcharsum benchmark: end-to-end and per-layer metrics for three workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {registry,hl-oracle,deep-rank}
        --seed N --seconds S --trace {0,1}

The loop is closed, with one client: each repetition of the workload runs
in a fresh interpreter, the next starting after the previous one ends, until
S seconds have passed (at least two repetitions).  With --trace 0 it reports
the end-to-end metrics; with --trace 1 it runs the workload once untraced
and once traced and reports the per-layer metrics.  Human-readable lines
come first; the last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Spans of a traced run are written to
.perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
# hl-oracle takes about as long as a whole run; two repetitions at least
# keep its median from resting on one sample
MIN_REPS = 2
# set-up starts are spread over the run, a few before each repetition,
# because the machine's speed drifts over seconds
SETUP_STARTS_PER_REP = 5
SETUP_STARTS_MIN = 15
RUN_DEADLINE_S = 170  # a run must end within 180 s, even when a child hangs
# the child prints the system-wide monotonic clock once the import is done;
# timing the child's exit instead would add subprocess's polling steps
SETUP_CODE = "import time, qcharsum, qcharsum.cli; print(time.monotonic())"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "query_ms_p50": "ms", "query_ms_p90": "ms"}


def layer_metric_units(check_ids) -> dict:
    """Every per-layer metric name, in report order, with its unit."""
    units = {}
    for name in dict.fromkeys(row[0] for row in spans.LAYERS):
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["kernel.zz_mul.ge128_calls"] = "count"
    units["kernel.zz_gcd.ge32_calls"] = "count"
    units["kernel.zz_gcd.trivial_share"] = "share"
    units["exact.RatFunc.monomial_den_share"] = "share"
    for check_id in check_ids:
        units[f"{spans.check_span_name(check_id)}.s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (p in 0..100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def end_to_end_metrics(reps, setup_times) -> dict:
    latencies = [s for rep in reps for s in rep["latencies_s"]]
    values = {
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "query_ms_p50": 1000.0 * statistics.median(latencies),
        "query_ms_p90": 1000.0 * percentile(latencies, 90),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def layer_metrics(traced, untraced_wall_s, check_ids) -> dict:
    layers, counters = traced["layers"], traced["counters"]
    values = {}
    for name in dict.fromkeys(row[0] for row in spans.LAYERS):
        calls, self_s, _ = layers.get(name, (0, 0.0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    gcds = values["kernel.zz_gcd.calls"]
    values["kernel.zz_mul.ge128_calls"] = counters["kernel.zz_mul.ge128"]
    values["kernel.zz_gcd.ge32_calls"] = counters["kernel.zz_gcd.ge32"]
    values["kernel.zz_gcd.trivial_share"] = _share(counters["kernel.zz_gcd.trivial"], gcds)
    values["exact.RatFunc.monomial_den_share"] = _share(
        counters["exact.RatFunc.monomial_den"], counters["exact.RatFunc.results"])
    for check_id in check_ids:
        name = spans.check_span_name(check_id)
        values[f"{name}.s"] = layers.get(name, (0, 0.0, 0.0))[2]
    values["trace.overhead_s"] = traced["wall_s"] - untraced_wall_s
    units = layer_metric_units(check_ids)
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.pop("QCHARSUM_BUDGET", None)  # the registry runs at its full budget
    return env


def _timeout(deadline) -> float:
    return max(1.0, deadline - time.monotonic())


def measure_setup(env, starts, deadline) -> list:
    """Seconds from spawning a fresh interpreter to the end of its import of
    the package, for `starts` interpreters in turn."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(starts):
        start = time.monotonic()
        proc = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True,
                              timeout=_timeout(deadline))
        times.append(float(proc.stdout) - start)
    return times


def run_child(workload, seed, trace, env, deadline) -> dict:
    """One repetition in a fresh interpreter; a crash counts as one failure."""
    spans_path = OUT_DIR / f"spans-{workload}.bin"
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           "1" if trace else "0", str(spans_path)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=_timeout(deadline))
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "witnesses": ["child killed at the run's deadline"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"attempted": 1, "witnesses": [f"child exited {proc.returncode}: "
                                              + " | ".join(tail)]}
    return json.loads(lines[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def header(args, impl) -> dict:
    return {"python": sys.version.split()[0], "impl": impl,
            "nproc": len(os.sched_getaffinity(0)), "git_revision": git_revision(),
            "source_sha256": source_digest(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "loop": "closed, one client, one fresh interpreter per repetition",
            "parameters": workloads.parameters(args.workload, args.seed)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "qcharsum" / "__init__.py").is_file():
        print(f"error: no qcharsum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qcharsum
    from qcharsum import verify
    check_ids = list(verify.REGISTRY)
    OUT_DIR.mkdir(exist_ok=True)
    env = child_env()
    deadline = time.monotonic() + RUN_DEADLINE_S
    print("# env " + json.dumps(header(args, qcharsum.IMPL_NAME)))

    if args.trace:
        reps = [run_child(args.workload, args.seed, False, env, deadline),
                run_child(args.workload, args.seed, True, env, deadline)]
    else:
        measure_setup(env, 1, deadline)  # leaves the bytecode cache warm, as a user finds it
        setup_times, reps = [], []
        start = time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - start < args.seconds:
            setup_times += measure_setup(env, SETUP_STARTS_PER_REP, deadline)
            reps.append(run_child(args.workload, args.seed, False, env, deadline))
        setup_times += measure_setup(env, SETUP_STARTS_MIN - len(setup_times), deadline)

    attempted = sum(rep["attempted"] for rep in reps)
    witnesses = [w for rep in reps for w in rep["witnesses"]]
    finished = [rep for rep in reps if "wall_s" in rep]
    for rep in finished:
        if rep["impl"] != qcharsum.IMPL_NAME or Path(rep["package"]) != SRC / "qcharsum":
            print(f"error: a repetition ran kernel {rep['impl']} from {rep['package']}, "
                  f"not {qcharsum.IMPL_NAME} from {SRC / 'qcharsum'}", file=sys.stderr)
            return 2
    for w in witnesses:
        print(f"# FAILED {w}")
    print(f"# failed_share = {_share(len(witnesses), attempted):.6f} share "
          f"({len(witnesses)} of {attempted} verdicts, {len(reps)} repetitions)")

    metrics = {}
    if args.trace and len(finished) == 2:
        metrics = layer_metrics(reps[1], reps[0]["wall_s"], check_ids)
    elif not args.trace and finished:
        metrics = end_to_end_metrics(finished, setup_times)
        samples = sum(len(rep["latencies_s"]) for rep in finished)
        print(f"# samples: {len(finished)} repetitions, {samples} query latencies, "
              f"{len(setup_times)} set-up starts")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}  [kernel {qcharsum.IMPL_NAME}]")
    print(json.dumps({"correct": not witnesses and bool(metrics),
                      "attempted": attempted, "failed": len(witnesses),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
