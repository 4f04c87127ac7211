"""Benchmark entry point.

    python3 perfbench/run.py --workload cell --seed 1 --seconds 24 --trace 0

Runs one workload in this process, prints an environment record, every
metric by name with its unit and the output checks, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the workload once untraced and
once with a span around every public ``lsnpc`` call, replays single training
steps, and reports the per-layer metrics.  Exits 1 when an output check or
an operation fails, and 2 when the program under test cannot be loaded.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread keeps the tape's small matmuls free of thread hand-off
# noise and never exceeds the machine's cores; it must be set before numpy
# loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_tmp"
TRACE_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "machine": f"{platform.machine()} {platform.processor() or platform.node()}",
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_sha": sha,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cell", "correct", "theory"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        import workloads
    except ImportError as err:
        print(f"cannot load the program under test: {err}", file=sys.stderr)
        return 2
    import_s = statistics.median(_child_import_s() for _ in range(IMPORT_REPEATS))
    return report(args, workloads.FULL, import_s)


IMPORT_REPEATS = 3
_CHILD_IMPORT = """\
import time
t = time.perf_counter()
import sys
sys.path[:0] = [{here!r}, {src!r}]
import argparse, json, platform, subprocess, workloads
raw = time.perf_counter() - t
clock = workloads.hostspeed.Clock()
for _ in range(3):
    clock.calibrate()
print(clock.scale_before(raw))
"""


def _child_import_s() -> float:
    """Scaled seconds a fresh interpreter spends importing what this one
    imported; the scale comes from calibrations right after the import."""
    code = _CHILD_IMPORT.format(here=str(HERE), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def report(args, plan, import_s: float, out=sys.stdout) -> int:
    import hostspeed
    import workloads
    from replay import replay

    SCRATCH.mkdir(exist_ok=True)
    res = workloads.run(args.workload, plan, args.seed, args.seconds, False, SCRATCH)
    metrics = workloads.end_to_end(res, args.workload, import_s)
    units = workloads.END_TO_END_UNITS
    host = (f"host: reference kernel median {res.clock.median_ref_ms():.2f} ms over "
            f"{len(res.clock.marks)} calibrations (nominal "
            f"{1e3 * hostspeed.NOMINAL_REF_S:g} ms); raw median operation "
            f"{statistics.median(res.raw_op_s):.4g} s, scaled {metrics['wall_s']:.4g} s")
    if args.trace:
        untraced = res
        res = workloads.run(args.workload, plan, args.seed, args.seconds, True, SCRATCH)
        steps = replay(ROOT, args.seed, plan.replay_steps)
        metrics = workloads.per_layer(res, untraced, steps)
        units = workloads.LAYER_UNITS
        write_spans(res, args)

    print(f"env: {json.dumps(environment(), sort_keys=True)}", file=out)
    print(host, file=out)
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}  "
          f"ops: {len(res.op_s)}  output digest: {res.digest}", file=out)
    calls = res.recorder.named("correction.correct", res.last_setup_span)
    print(f"correct() calls: {len(calls)}; batch tail percentile: "
          f"p{workloads.batch_latency(calls)[2]}", file=out)
    for name in units:
        print(f"  {name:36s} {metrics[name]:>16.6g} {units[name]}", file=out)
    for note in res.notes:
        print(note, file=out)
    for name, ok in sorted(res.checks.items()):
        print(f"check {'ok  ' if ok else 'FAIL'} {name}", file=out)
    for err in res.errors[:20]:
        print(f"error: {err}", file=sys.stderr)
    correct = res.failed == 0 and all(res.checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }), file=out)
    return 0 if correct else 1


def write_spans(res, args) -> None:
    """Spans of the traced run, one JSON list per line: name, start, end, parent."""
    TRACE_DIR.mkdir(exist_ok=True)
    t0 = res.recorder.spans[0][1] if res.recorder.spans else 0.0
    path = TRACE_DIR / f"spans_{args.workload}_s{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, _ in res.recorder.spans:
            fh.write(json.dumps([name, start - t0, end - t0, parent]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
