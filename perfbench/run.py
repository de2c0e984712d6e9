"""glspaths benchmark: one workload per process, end to end or traced.

Usage:
    python3 perfbench/run.py --workload {crystal,membership,battery}
                             --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run times whole passes of the workload for S seconds,
with a fixed reference computation (``reference.py``) timed before the first
pass and after every pass, and reports the end-to-end metrics: set-up time,
pass wall time in reference units, crystal nodes per reference unit and
peak resident memory.  Raw pass times in seconds and nodes per second are
printed on comment lines.  With ``--trace 1`` it times untraced passes for
half the window and traced passes for the other half, and reports the
per-layer metrics of ``tracing.PER_LAYER`` plus the tracing overhead.  Every
pass goes through the output gate of ``workloads``.

Comment lines (``#``) describe the run; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 0 when every output checked matched its
recorded value, 1 when one did not, and 2 when the checkout does not hold
the package to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

import guard
import reference
import tracing
from workloads import WORKLOADS, failures

PROBE = Path(__file__).resolve().parent / "probe_setup.py"
SETUP_PROBES = 11
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "nodes_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}
TRACE_METRICS = {
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Gate:
    """Counts outputs checked and outputs that failed across the passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, outcomes):
        bad = failures(outcomes)
        self.attempted += len(outcomes)
        self.failed += len(bad)
        for line in bad[:5]:
            print(f"perfbench: output mismatch: {line}", file=sys.stderr)

    def fail(self, count: int, reason: str):
        self.attempted += count
        self.failed += count
        print(f"perfbench: {reason}", file=sys.stderr)


def run_pass(glspaths, workload, seed: int, gate: Gate) -> float:
    """One gated pass; returns its wall time in seconds.  Garbage from the
    previous pass is collected first, so every pass starts from the same heap."""
    gc.collect()
    start = time.perf_counter()
    try:
        outcomes = workload.run(glspaths, seed)
    except Exception:
        elapsed = time.perf_counter() - start
        traceback.print_exc()
        gate.fail(workload.outputs, "pass raised")
        return elapsed
    elapsed = time.perf_counter() - start
    gate.check(outcomes)
    return elapsed


def timed_passes(glspaths, workload, seed, seconds, gate, min_passes) -> List[float]:
    walls = []
    deadline = time.perf_counter() + seconds
    while len(walls) < min_passes or time.perf_counter() < deadline:
        walls.append(run_pass(glspaths, workload, seed, gate))
    return walls


def measure_setup(workload_name: str) -> List[float]:
    """Set-up time of fresh processes (see probe_setup.py), one per sample."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(PROBE), workload_name],
                              cwd=guard.ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def tail_percentile(samples: List[float]):
    """Highest integer percentile, from the median up, with at least ten
    samples above it; None when there are fewer than 20 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def calibrated_passes(glspaths, workload, seed, seconds, gate):
    """Gated passes for ``seconds``, with one reference run before the first
    pass and after each pass.  Returns the pass wall times and the reference
    times; pass k lies between references k and k + 1."""
    walls, refs = [], [reference.timed()]
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        walls.append(run_pass(glspaths, workload, seed, gate))
        refs.append(reference.timed())
    return walls, refs


def describe(name: str, unit: str, samples: List[float]) -> str:
    tail = tail_percentile(samples)
    tail_text = (f"p{tail[0]} {tail[1]:.6f} {unit}" if tail
                 else "no tail percentile (needs 20 passes)")
    return (f"# {name} median of {len(samples)} passes: "
            f"{statistics.median(samples):.6f} {unit}; {tail_text}; "
            f"passes {[round(x, 4) for x in samples]}")


def end_to_end(glspaths, workload, seed, seconds, gate) -> Dict[str, float]:
    setup = measure_setup(workload.name)
    walls, refs = calibrated_passes(glspaths, workload, seed, seconds, gate)
    ratios = [wall / ((before + after) / 2)
              for wall, before, after in zip(walls, refs, refs[1:])]
    wall = statistics.median(walls)
    wall_ref = statistics.median(ratios)
    print(f"# setup_s median of {len(setup)} probes: {setup}")
    print(describe("wall_s", "s", walls))
    print(f"# nodes_per_s {workload.nodes / wall:.3f} 1/s ({workload.nodes} nodes per pass)")
    print(f"# reference median of {len(refs)} runs: {statistics.median(refs):.6f} s; "
          f"runs {[round(r, 4) for r in refs]}")
    print(describe("wall_ref", "ref", ratios))
    return {
        "setup_s": statistics.median(setup),
        "wall_ref": wall_ref,
        "nodes_per_ref": workload.nodes / wall_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(glspaths, workload, seed, seconds, gate) -> Dict[str, float]:
    plain = timed_passes(glspaths, workload, seed, seconds / 2, gate, MIN_PASSES)
    tracer = tracing.Tracer()
    walls, snapshots = [], []
    deadline = time.perf_counter() + seconds / 2
    with tracer:
        while len(walls) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
            tracer.reset()
            walls.append(run_pass(glspaths, workload, seed, gate))
            snapshots.append(tracing.snapshot(tracer))
    first = snapshots[0]
    for snap in snapshots[1:]:
        drift = [k for k in first if tracing.is_count(k) and snap[k] != first[k]]
        gate.check([("counts that drifted between traced passes", drift, [])])
    metrics = {name: (first[name] if tracing.is_count(name)
                      else statistics.median(s[name] for s in snapshots))
               for name in first}
    metrics["trace.wall_s"] = statistics.median(walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
    print(f"# traced passes {len(walls)}, untraced passes {len(plain)}; "
          f"counts from the first traced pass, times are medians")
    return metrics


def units() -> Dict[str, str]:
    out = dict(END_TO_END)
    out.update({name: spec[0] for name, spec in tracing.PER_LAYER.items()})
    out.update({name: spec[0] for name, spec in TRACE_METRICS.items()})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        glspaths = guard.import_glspaths()
    except guard.GuardError as exc:
        print(f"perfbench: refusing to run: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print("# " + json.dumps({"workload": workload.name, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             **guard.provenance()}))
    gate = Gate()
    measure = traced if args.trace else end_to_end
    values = measure(glspaths, workload, args.seed, args.seconds, gate)
    rate = gate.failed / gate.attempted
    print(f"# error_rate {rate} ({gate.failed} failed of {gate.attempted} outputs checked)")
    unit = units()
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in values.items()},
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
