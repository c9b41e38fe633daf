"""One benchmark process: import, warm up, report READY, then run passes.

Started by run.py, which times set-up from process start to the READY line
and answers GO (run the passes and print the result as one JSON line) or
EXIT.  Only the protocol lines go to standard output; anything the library
prints goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time


# the host's speed is probed at most once per PROBE_EVERY_S, between
# operations, as the median of REF_SAMPLES reference loops
PROBE_EVERY_S = 0.5
REF_SAMPLES = 3


def reference_s() -> float:
    """Time of a fixed pure-Python loop: a probe of the host's current speed,
    which on a shared host drifts by tens of percent within a minute."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return time.perf_counter() - t0


class HostProbe:
    """Reference times probed over a run, between its operations."""

    def __init__(self):
        self.refs = []
        self.last = -math.inf

    def __call__(self):
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.refs.append(statistics.median(reference_s() for _ in range(REF_SAMPLES)))
            self.last = time.perf_counter()


def _run_passes(run_one, seconds: float):
    """Call run_one(index) until the next call, if it lasts as long as the
    slowest pass so far (checks included), would end after `seconds`; at
    least once.  Returns the values of run_one."""
    values, longest = [], 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        values.append(run_one(len(values)))
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - start + longest > seconds:
            return values


def _timed_pass(workload, index, tally):
    """Run one pass; returns the time of its operations, checks excluded."""
    before = tally.op_s
    workload.run_pass(index, tally)
    return tally.op_s - before


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    args = parser.parse_args()
    proto = sys.stdout
    sys.stdout = sys.stderr

    import wpkernel

    if not os.path.abspath(wpkernel.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"wpkernel imported from {wpkernel.__file__}, not {args.src}", file=sys.stderr)
        return 2

    import checks
    import spans
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, args.workdir, tracer)
    workload.warm_up()
    proto.write("READY\n")
    proto.flush()
    if sys.stdin.readline().strip() != "GO":
        return 0

    probe = HostProbe()
    tally = checks.Tally(tracer, probe)
    result = {}
    if tracer is None:
        result["pass_s"] = _run_passes(lambda i: _timed_pass(workload, i, tally), args.seconds)
    else:
        tracer.uninstall()
        tracer.phase = "pass"
        plain, traced = [], []

        def pair(index):
            # each pass runs untraced and traced on the same inputs, the
            # order alternating, so that drift in machine speed cancels in
            # the ratio that estimates the tracing overhead
            for traced_run in ((False, True) if index % 2 == 0 else (True, False)):
                if traced_run:
                    tracer.install()
                    workload.tracer = tracer
                    traced.append(_timed_pass(workload, index, tally))
                    tracer.uninstall()
                    workload.tracer = None
                else:
                    plain.append(_timed_pass(workload, index, tally))
            return plain[-1] + traced[-1]

        _run_passes(pair, args.seconds)
        wall = sum(traced)
        overhead = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
        self_s = spans.layer_self_times(tracer.spans)
        result["pass_s"] = plain
        result["traced_pass_s"] = traced
        result["layer_metrics"] = spans.layer_metrics(tracer.spans, len(traced), overhead)
        result["layer_metrics"].update(workload.once_metrics())
        result["self_share"] = {layer: t / wall for layer, t in self_s.items()}
        result["self_share"]["benchmark"] = 1.0 - sum(self_s.values()) / wall
        result["skipped_wrappers"] = tracer.skipped
        tracer.dump(os.path.join(args.workdir, "spans.json"))
    result.update(
        reference_s=probe.refs,
        attempted=tally.attempted,
        failed=tally.failed,
        wrong=tally.wrong,
        worst_margin=tally.worst_margin,
        margins=tally.margins,
        failures=tally.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
