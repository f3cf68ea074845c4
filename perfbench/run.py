"""End-to-end benchmark of the Dynamic Tables engine.

Run from the repository root::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selfcheck --seed 1

A run executes one workload (``pipeline``, ``serve`` or ``oltp``, see
``workloads.py``) in a fresh child interpreter with ``PYTHONHASHSEED``
pinned, because engine ordering depends on the hash seed. The child
prints information lines starting with ``#`` and, last, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer breakdown with ``--trace 1``.

``--selfcheck`` runs every workload several times and reports whether
count metrics repeat exactly for one seed, whether another seed changes
the generated inputs, the tracing overhead, and the spread of raw versus
host-speed-corrected timings across repeats.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline", "serve", "oltp")
PINNED_HASH_SEED = "0"
CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: int, trace: int,
              relay: bool = True) -> tuple[int, list[str]]:
    """Run one workload in a pinned child; returns (exit code, stdout
    lines). The child's scratch directory lives inside the checkout and
    is removed afterwards."""
    scratch = ROOT / ".perfbench_tmp" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    env = dict(os.environ, PYTHONHASHSEED=PINNED_HASH_SEED,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    command = [sys.executable, str(HERE / "bench.py"), workload, str(seed),
               str(seconds), str(trace), str(scratch)]
    try:
        child = subprocess.run(command, cwd=ROOT, env=env, text=True,
                               stdout=subprocess.PIPE,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass
    lines = child.stdout.splitlines()
    if relay:
        sys.stdout.write(child.stdout)
        sys.stdout.flush()
    return child.returncode, lines


def result_of(lines: list[str]) -> dict | None:
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def info_of(lines: list[str], label: str):
    prefix = f"# {label} "
    for line in lines:
        if line.startswith(prefix):
            return json.loads(line[len(prefix):])
    return None


def selfcheck(seed: int, seconds: int, repeats: int) -> int:
    """Determinism, seed sensitivity, tracing overhead and the spread of
    raw versus corrected timings; returns a non-zero exit code when a
    check fails."""
    ok = True
    for workload in WORKLOADS:
        traced = []
        for trace_seed in (seed, seed, seed + 1):
            code, lines = run_child(workload, trace_seed, seconds, 1,
                                    relay=False)
            traced.append((result_of(lines), info_of(lines, "provenance")))
            if code != 0 or traced[-1][0] is None:
                print(f"{workload}: traced run failed (exit {code})")
                return 1
        counts = [{name: metric["value"]
                   for name, metric in result["metrics"].items()
                   if metric["unit"] in ("count", "rows", "bytes", "ratio")}
                  for result, __ in traced]
        same_seed_equal = counts[0] == counts[1]
        differing = sorted(name for name in counts[0]
                           if counts[0][name] != counts[1][name])
        inputs_differ = (traced[0][1]["inputs_digest"]
                         != traced[2][1]["inputs_digest"])
        untraced = []
        for __ in range(repeats):
            code, lines = run_child(workload, seed, seconds, 0, relay=False)
            if code != 0 or result_of(lines) is None:
                print(f"{workload}: untraced run failed (exit {code})")
                return 1
            untraced.append((result_of(lines), info_of(lines, "timing")))
        traced_p50 = statistics.median(
            result["metrics"]["trace.op_ms_p50"]["value"]
            for result, __ in traced[:2])
        untraced_p50 = statistics.median(
            result["metrics"]["op_ms_p50"]["value"] for result, __ in untraced)
        spreads = {}
        for name in ("setup_s", "op_ms_p50", "op_ms_p90", "ops_per_s"):
            pairs = [(timing[name]["raw"], timing[name]["corrected"])
                     for __, timing in untraced]
            spreads[name] = {"raw": _spread([raw for raw, __ in pairs]),
                             "corrected": _spread([ref for __, ref in pairs])}
        report = {
            "workload": workload,
            "counts_repeat_for_one_seed": same_seed_equal,
            "counts_that_differ": differing,
            "other_seed_changes_inputs": inputs_differ,
            "all_correct": all(result["correct"] for result, __ in
                               traced + untraced),
            "metrics": {name: {"median": statistics.median(
                            result["metrics"][name]["value"]
                            for result, __ in untraced),
                               "unit": metric["unit"]}
                        for name, metric in untraced[0][0]["metrics"].items()},
            "tracing_overhead_ms": traced_p50 - untraced_p50,
            "spread_across_repeats": spreads,
            "repeats": repeats,
        }
        print(json.dumps(report, sort_keys=True), flush=True)
        ok = ok and same_seed_equal and inputs_differ and report["all_correct"]
    return 0 if ok else 1


def _spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"engine sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(args.seed, args.seconds, args.repeats)
    if args.workload is None:
        parser.error("--workload is required")
    code, lines = run_child(args.workload, args.seed, args.seconds,
                            args.trace)
    if code == 0 and result_of(lines) is None:
        print("the run printed no result", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
