"""One benchmark run of one workload, inside the pinned child process.

Prints ``# <label> <json>`` information lines (provenance, raw beside
corrected timings, the reference kernel's quartiles, failures) and, as
the last line, the result object ``{"correct", "attempted", "failed",
"metrics"}``. With ``trace`` off the metrics are the end-to-end ones;
with it on, the per-layer breakdown of :mod:`tracing`.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import sys

from refclock import REF_ITERATIONS, REF_NOMINAL_MS, RefClock, percentile
from tracing import (METRIC_UNITS, Tracer, coverage_problems, install,
                     layer_metrics)
from workloads import FLUSH_POLICY, SETUP_BUILDS, SIZES, WORKLOADS, op_count

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ref-ms",
    "op_ms_p90": "ref-ms",
    "ops_per_s": "1/ref-s",
    "peak_rss_mb": "MB",
}


class Harness:
    """Timing, tracing and failure bookkeeping shared by the workloads."""

    def __init__(self, trace: bool, scratch_dir: str):
        self.clock = RefClock()
        self.scratch_dir = scratch_dir
        self.tracer = None
        self.patched: list[str] = []
        if trace:
            self.tracer = Tracer()
            self.patched = install(self.tracer)
        #: op id -> host-speed factor of the section it ran in
        self.factors: dict[object, float] = {}
        self.setup_raw_ms = 0.0
        self.setup_ref_ms = 0.0

    def setup_chunk(self, fn):
        result, raw, ref = self.clock.measure(fn)
        self.setup_raw_ms += raw
        self.setup_ref_ms += ref
        return result

    def timed(self, op_id, fn):
        """Run ``fn`` between reference kernels, traced when tracing is
        on; returns ``(result, exception or None, raw_ms, corrected_ms)``.
        An exception is returned, not raised, so the section still gets
        its closing kernel sample."""
        tracer = self.tracer

        def section():
            if tracer is not None:
                tracer.op_id = op_id
                tracer.active = True
            try:
                return fn(), None
            except Exception as exc:  # the caller counts the failure
                return None, exc
            finally:
                if tracer is not None:
                    tracer.active = False

        (result, exc), raw, ref = self.clock.measure(section)
        self.factors[op_id] = self.clock.factors[-1]
        return result, exc, raw, ref

    def section(self, op_id, fn):
        """A timed, traced section outside the op latencies (maintenance,
        recovery); raises what ``fn`` raised. Returns ``(result, raw_ms,
        corrected_ms)``."""
        result, exc, raw, ref = self.timed(op_id, fn)
        if exc is not None:
            raise exc
        return result, raw, ref


def _info(label: str, payload) -> None:
    print(f"# {label} {json.dumps(payload, sort_keys=True)}", flush=True)


def run(workload_name: str, seed: int, seconds: int, trace: bool,
        scratch_dir: str) -> dict:
    harness = Harness(trace, scratch_dir)
    workload = WORKLOADS[workload_name](harness, seed)
    inputs_digest = workload.inputs_digest()
    sizes = SIZES[workload_name]
    ops = op_count(workload_name, seconds)
    _info("provenance", {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "flush_policy": FLUSH_POLICY if workload_name == "oltp" else None,
        "parallelism": None, "sizes": sizes,
        "warmup_ops": sizes["warmup"], "timed_ops": ops,
        "setup_builds": SETUP_BUILDS,
        "REF_NOMINAL_MS": REF_NOMINAL_MS, "REF_ITERATIONS": REF_ITERATIONS,
        "inputs_digest": inputs_digest,
        "patched_entry_points": len(harness.patched),
    })

    # Each build starts from a fresh workload object, so nothing of the
    # previous build stays alive while the next one is measured.
    setups_raw, setups_ref = [], []
    for build in range(SETUP_BUILDS):
        if build:
            workload.teardown()
            workload = WORKLOADS[workload_name](harness, seed)
        gc.collect()
        harness.setup_raw_ms = harness.setup_ref_ms = 0.0
        workload.build()
        setups_raw.append(harness.setup_raw_ms / 1000.0)
        setups_ref.append(harness.setup_ref_ms / 1000.0)

    attempted = failed = 0
    problems: list[str] = []

    def settle(index, answers, exc) -> None:
        nonlocal failed
        found = ([f"{type(exc).__name__}: {exc}"] if exc is not None
                 else workload.check_op(answers))
        if found:
            failed += 1
            problems.extend(f"op {index}: {text}" for text in found[:3])

    index = 0
    for __ in range(sizes["warmup"]):
        workload.before_op(index)
        attempted += 1
        try:
            settle(index, workload.op(), None)
        except Exception as exc:
            settle(index, None, exc)
        index += 1

    raw_ms, ref_ms = [], []
    for __ in range(ops):
        workload.before_op(index)
        attempted += 1
        answers, exc, raw, ref = harness.timed(index, workload.op)
        raw_ms.append(raw)
        ref_ms.append(ref)
        settle(index, answers, exc)
        try:
            workload.maintenance(index)
        except Exception as exc:
            failed += 1
            problems.append(f"maintenance after op {index}: {exc}")
        index += 1

    for description, ok in workload.final_checks():
        attempted += 1
        if not ok:
            failed += 1
            problems.append(f"check failed: {description}")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timing = {
        "setup_s": {"corrected": percentile(setups_ref, 0.5),
                    "raw": percentile(setups_raw, 0.5),
                    "builds": {"corrected": setups_ref, "raw": setups_raw}},
        "op_ms_p50": {"corrected": percentile(ref_ms, 0.5),
                      "raw": percentile(raw_ms, 0.5)},
        "op_ms_p90": {"corrected": percentile(ref_ms, 0.9),
                      "raw": percentile(raw_ms, 0.9)},
        "ops_per_s": {"corrected": 1000.0 * len(ref_ms) / sum(ref_ms),
                      "raw": 1000.0 * len(raw_ms) / sum(raw_ms)},
        "kernel_ms": harness.clock.kernel_summary(),
    }
    if workload_name == "oltp":
        timing["recover_s"] = {
            "corrected": sum(workload.recover_ref) / 1000.0
            / len(workload.recover_ref),
            "raw": sum(workload.recover_raw) / 1000.0
            / len(workload.recover_raw),
            "reopens": len(workload.recover_ref)}
    _info("timing", timing)

    if trace:
        values = layer_metrics(harness.tracer, harness.factors,
                               workload.versions, ref_ms)
        _info("trace_bases", {
            "plan_cache_gets": harness.tracer.plan_gets,
            "refreshes_with_data": harness.tracer.refreshes_with_data,
            "spans": len(harness.tracer.spans)})
        uncovered = coverage_problems(harness.tracer, workload_name, values)
        attempted += 1
        if uncovered:
            failed += 1
            problems.extend(f"coverage: {problem}" for problem in uncovered)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in METRIC_UNITS.items()}
    else:
        values = {
            "setup_s": timing["setup_s"]["corrected"],
            "op_ms_p50": timing["op_ms_p50"]["corrected"],
            "op_ms_p90": timing["op_ms_p90"]["corrected"],
            "ops_per_s": timing["ops_per_s"]["corrected"],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    if problems:
        _info("problems", problems[:50])
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, scratch_dir = argv
    result = run(workload, int(seed), int(seconds), trace == "1", scratch_dir)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
