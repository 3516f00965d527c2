"""Run-to-run spread of the benchmark's end-to-end metrics over several seeds.

    python3 bench/spread.py --workload equilibrium-solve --seeds 1-10

Runs ``run.py --trace 0`` once per seed, one after another, for
``run_seconds`` of ``BENCHMARK.json`` unless ``--seconds`` says otherwise.
It prints for each metric its median, quartiles
(``statistics.quantiles(n=4)``) and the interquartile distance as a share of
the median, together with the same figures for the unscaled CPU-time and
the wall-time statistics (``cpu.*``, ``wall.*``) and for the host gauge.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread_row(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med}


def main() -> int:
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="first-last")
    parser.add_argument("--seconds", type=int, default=run_seconds)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    failed_shares = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        record = json.loads((OUT / f"{args.workload}-seed{seed}-trace0.json")
                            .read_text(encoding="utf-8"))
        failed_shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for kind in ("cpu", "wall"):
            for name, value in record.get(kind, {}).items():
                values.setdefault(f"{kind}.{name}", []).append(value)
        values.setdefault("gauge_ms", []).append(record["gauge_ms"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            file=sys.stderr)

    rows = {name: spread_row(v) for name, v in values.items()}
    for name, row in rows.items():
        print(f"{name:24s} median {row['median']:12.6g}  q1 {row['q1']:12.6g}"
              f"  q3 {row['q3']:12.6g}  iqr/median {row['iqr_share']:.3f}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "failed_shares": sorted(set(failed_shares)), "spread": rows,
                      "values": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
