"""boltzkit benchmark: one workload per run, closed loop, checked outputs.

    python3 bench/run.py --workload oracle-enum --seed 1 --seconds 30 --trace 0

One client, no threads: each operation starts when the previous one ends.
Operations run in whole passes over the workload's seeded inputs. Times are
CPU times, of this process and of the processes it waits for, scaled by
the gauge timed before each operation to the reference host speed (see
workloads.py for why). With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics: op_p50_ms, the median time of one
operation; ops_per_s, operations per second of their summed times; setup_s,
the median of several set-ups; and peak_rss_mb. With ``--trace 1`` it
carries the per-layer metrics of every module instead (see layers.py). The
full record of the run, wall times included, goes to
``.bench_out/<workload>-seed<n>-trace<t>.json``. Exits 1 when an operation
fails or its output fails its check, and 2 when the program is missing.
"""

import time

T0 = time.perf_counter()  # wall set-up, kept in the record, counts from here

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

#: Set-ups per run whose median is setup_s: this process and fresh ones.
SETUPS = 3


def child_setup_s(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0",
         "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracle-enum", "equilibrium-solve", "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args()

    if not (ROOT / "src" / "boltzkit" / "__init__.py").is_file():
        print(f"boltzkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import boltzkit
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    try:
        tally = workloads.Tally()
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace}
        if args.trace:
            import layers
            metrics, record["trace"] = layers.traced_run(
                args.seed, args.seconds, workdir, tally)
        else:
            w = workloads.WORKLOADS[args.workload](args.seed, workdir)
            warm_tally = workloads.Tally()
            warm = workloads.attempt(w, 0, warm_tally)
            # CPU time since this process began, its children's included
            setups = [workloads.cpu_seconds()]
            setup_wall_s = time.perf_counter() - T0
            if args.setup_only:
                print(json.dumps({"setup_s": setups[0]}))
                return 0
            if warm is not None:
                workloads.verify(w, 0, warm[0], warm_tally)
            tally.absorb(warm_tally)
            workloads.measure(w, args.seconds, tally)
            who = (resource.RUSAGE_CHILDREN if args.workload == "cli-session"
                   else resource.RUSAGE_SELF)
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
            setups += [child_setup_s(args) for _ in range(SETUPS - 1)]
            times = tally.times
            gauge_ms = statistics.median(tally.gauge) * 1e3
            # > 1 when the host ran this run slower than the reference
            slow = gauge_ms / w.GAUGE_REF_MS
            metrics = {
                "ops_per_s": (len(times) / sum(times) * slow if times else 0.0, "1/s"),
                "op_p50_ms": (statistics.median(times) * 1e3 / slow if times else 0.0, "ms"),
                "setup_s": (statistics.median(setups) / slow, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            record["gauge_ms"] = gauge_ms
            if times:  # unscaled, and from wall times, for comparison; see README
                record["cpu"] = {"ops_per_s": len(times) / sum(times),
                                 "op_p50_ms": statistics.median(times) * 1e3,
                                 "setup_s": statistics.median(setups)}
                record["wall"] = {"ops_per_s": len(times) / sum(tally.wall),
                                  "op_p50_ms": statistics.median(tally.wall) * 1e3,
                                  "setup_s": setup_wall_s}
            record["setups_s"] = setups
            record["op_ms"] = [t * 1e3 for t in times]
            record["op_wall_ms"] = [t * 1e3 for t in tally.wall]
            record["gauge_each_ms"] = [t * 1e3 for t in tally.gauge]
            if hasattr(w, "command_times"):
                record["command_ms"] = {k: [t * 1e3 for t in v]
                                        for k, v in w.command_times.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # no operation of these workloads is expected to fail
    correct = tally.incorrect == 0 and tally.failed == 0 and len(tally.times) > 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record.update(result)
    record["notes"] = tally.notes
    record["machine"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                         "numpy": numpy.__version__, "boltzkit": boltzkit.__version__}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for note in tally.notes:
        print(note, file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
