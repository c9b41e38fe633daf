"""Benchmark of wpkernel: three seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload ginibre_ward --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each run is one closed loop with one
client: a fresh child process with one thread (OMP, OpenBLAS and MKL pinned
to 1) runs workload passes back to back for `--seconds`.  A pass's wall time
counts only the operations under test; the check of each output against a
second route runs after its clock stops.  Set-up is timed from process
start to the end of the warm-up, in eleven processes started before and
after the measured one, and reported as their median.  The pass time is
reported at a nominal host speed: the child times a fixed pure-Python loop
between its operations (at most every PROBE_EVERY_S), and the median pass
time is scaled by REF_NOMINAL_S over the median loop time of the run.  The
pass time as measured and the loop time are printed beside it.
`--trace 1` runs the same passes untraced and traced, and reports the
per-layer metrics instead.
The last line of standard output is one JSON object: correct (no output the
library returned failed its check), attempted, failed (operations that
raised or failed their check) and metrics.
Per-run records (environment, failures, spans) go to .perfbench_out/.

The workloads, the layers each one exercises and bypasses, and the metrics
are described in BENCHMARK.json at the root of the repository.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("ginibre_ward", "point_queries", "elliptic_boundary")
# set-up processes started before and after the measured one; the host's
# speed changes over seconds, so spreading them over the run steadies the median
SETUP_EXTRA = 5
# time of the reference loop (child.reference_s) on a host of nominal speed:
# wall_s is reported as seconds at that speed, so that drift of the shared
# host's speed cancels
REF_NOMINAL_S = 0.02
# share of self time per layer that the prototype profile predicted
PREDICTED_SHARE = {
    "ginibre_ward": {"ginibre_exact": 0.87, "ward": 0.014},
    "point_queries": {"szego_geometry": 0.80, "ginibre_exact": 0.04, "cli": 0.01},
    "elliptic_boundary": {"potential": 0.59, "ward": 0.11, "ortho_oracle": 0.01},
}
# a predicted share counts as confirmed within this many percentage points
SHARE_SLACK = 0.10
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio",
         "failed_frac": "ratio", "worst_margin": "ratio", "wall_measured_s": "s",
         "reference_ms": "ms"}  # the printed table


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _start(args, workdir):
    """Start a child and wait for READY; returns (process, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload_name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), "--src", str(SRC)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=_child_env(), cwd=ROOT, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise BenchError(f"child did not reach READY (exit code {proc.returncode})")
    return proc, setup


def _finish(proc, command, timeout):
    try:
        out, _ = proc.communicate(command, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("child exceeded its time limit")
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    return out


def _environment(seed):
    import numpy

    env = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "commit": _commit(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for module in ("mpmath", "gmpy2"):
        try:
            env[module] = __import__(module).__version__
        except ImportError:
            env[module] = None
    env["gmpy2_present"] = env["gmpy2"] is not None
    return env


def _commit():
    if not (ROOT / ".git").exists():  # a checkout without history, not a parent's
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip()
    except OSError:  # no git on this machine
        return None
    return out or None


def run_workload(args):
    workdir = OUT / f"{args.workload_name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    extra = 0 if args.trace else SETUP_EXTRA

    def setup_only():
        proc, setup = _start(args, workdir)
        _finish(proc, "EXIT\n", 60)
        return setup

    setups = [setup_only() for _ in range(extra)]
    proc, setup = _start(args, workdir)
    setups.append(setup)
    out = _finish(proc, "GO\n", args.seconds + 120)
    setups += [setup_only() for _ in range(extra)]
    child = json.loads(out.strip().splitlines()[-1])
    child["setup_s"] = setups
    child["environment"] = _environment(args.seed)
    (workdir / "result.json").write_text(json.dumps(child, indent=1, default=str))
    return child


def end_to_end(child):
    failed_frac = child["failed"] / child["attempted"]
    wall = statistics.median(child["pass_s"])
    ref = statistics.median(child["reference_s"])
    return {
        "wall_s": wall * REF_NOMINAL_S / ref,
        "setup_s": statistics.median(child["setup_s"]),
        "wall_measured_s": wall,
        "reference_ms": 1e3 * ref,
        "peak_rss_mb": child["peak_rss_mb"],
        "pass_frac": 1.0 - failed_frac,
        "failed_frac": failed_frac,
        "worst_margin": child["worst_margin"],
    }


def share_line(name, child):
    """Each layer's share of self time, next to the predicted share."""
    shares = child["self_share"]
    predicted = PREDICTED_SHARE[name]
    parts = []
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        if share < 0.005 and layer not in predicted:
            continue
        text = f"{layer} {100 * share:.1f}%"
        if layer in predicted:
            verdict = "confirmed" if abs(share - predicted[layer]) <= SHARE_SLACK else "refuted"
            text += f" (predicted {100 * predicted[layer]:.1f}%: {verdict})"
        parts.append(text)
    layers = {k: v for k, v in shares.items() if k != "benchmark"}
    top = max(layers, key=layers.get)
    dominant = max(predicted, key=predicted.get)
    verdict = "confirmed" if top == dominant else f"refuted, {top} dominates"
    return f"self-time shares {name}: " + "; ".join(parts) + \
        f" | predicted dominant {dominant}: {verdict}"


def _finite(x):
    """JSON has no infinity; a failed check can make worst_margin infinite."""
    return x if math.isfinite(x) else 1e300


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wpkernel" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("run from the root of a checkout: src/wpkernel or BENCHMARK.json is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {}
    attempted = failed = wrong = 0
    for name in names:
        args.workload_name = name
        try:
            child = run_workload(args)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        attempted += child["attempted"]
        failed += child["failed"]
        wrong += child["wrong"]
        for op, detail in child["failures"][:5]:
            print(f"{name}: failed {op}: {detail}", file=sys.stderr)
        e2e = end_to_end(child)
        traced = f" (+{len(child['traced_pass_s'])} traced)" if args.trace else ""
        print(f"{name} seed {args.seed}: {len(child['pass_s'])} passes{traced}, "
              f"{child['attempted']} operations, {child['failed']} failed "
              f"({child['wrong']} with a wrong output)")
        for metric, value in e2e.items():
            print(f"  {metric:<13} {value:.6g} {UNITS[metric]}")
        if args.trace:
            summary[name] = dict(child["layer_metrics"], failed_frac=e2e["failed_frac"],
                                 worst_margin=e2e["worst_margin"])
            for metric in declared:
                label = " (computed)" if metric["name"] in spans.COMPUTED else ""
                print(f"  {metric['name']:<34} {summary[name][metric['name']]:.6g} "
                      f"{metric['unit']}{label}")
            print(share_line(name, child))
        else:
            summary[name] = e2e
    metrics = {}
    for workload, values in summary.items():
        prefix = f"{workload}." if args.workload == "all" else ""
        for metric in declared:
            metrics[prefix + metric["name"]] = {"value": _finite(values[metric["name"]]),
                                                "unit": metric["unit"]}
    print(json.dumps(child["environment"]))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
