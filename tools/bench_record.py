"""Append one benchmark run of a checkout to a committed ``BENCH_<n>.json``.

    python3 tools/bench_record.py --tree . --label change --out BENCH_11.json

A run is ``bench/run.py`` of the checkout at ``--tree`` once per workload
with ``--trace 0`` (the end-to-end metrics), then once with ``--trace 1``
(the per-layer metrics, the ``src/`` line count among them), plus the
machine's facts and the checkout's commit (``-dirty`` when it has
uncommitted changes). Each run lasts the checkout's ``BENCHMARK.json``
``run_seconds``. Each call appends one run to the record, so a
record holds the parent's runs and the change's side by side; run the two
checkouts in turn for before/after pairs. Exits 1 when a bench run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("oracle-enum", "equilibrium-solve", "cli-session")


class BenchFailed(Exception):
    pass


def bench_result(tree: Path, workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    """The result line of one ``bench/run.py`` run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchFailed(f"{workload} --trace {trace} exited {proc.returncode}: "
                          f"{proc.stderr[-800:]}")
    return json.loads(lines[-1])


def run_seconds(tree: Path) -> float:
    """The run length that the checkout's benchmark declares."""
    return json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def machine_facts() -> dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    import numpy
    return {"cpu": model, "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def commit_of(tree: Path) -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def assemble(label: str, commit: str, seed: int, seconds: float, machine: dict,
             results: dict[str, dict], traced: dict) -> dict:
    """One run's entry: per workload its correctness and end-to-end metric
    values; the traced run's per-layer values, and among them the src/ line
    count."""
    def values(result: dict) -> dict:
        return {name: m["value"] for name, m in result["metrics"].items()}

    return {
        "label": label,
        "commit": commit,
        "seed": seed,
        "seconds": seconds,
        "machine": machine,
        "end_to_end": {
            workload: {"correct": r["correct"], "attempted": r["attempted"],
                       "failed": r["failed"], **values(r)}
            for workload, r in results.items()
        },
        "per_layer": {"correct": traced["correct"], **values(traced)},
        "src_lines": traced["metrics"]["src.lines"]["value"],
    }


def append_run(path: Path, number: int, run: dict) -> dict:
    """The record at ``path`` (a new one if there is none) with ``run`` added."""
    record = (json.loads(path.read_text(encoding="utf-8")) if path.is_file()
              else {"number": number, "command": "python3 bench/run.py", "runs": []})
    record["runs"].append(run)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, required=True,
                        help="checkout whose bench/run.py and src/ to run")
    parser.add_argument("--label", required=True, help="e.g. parent or change")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    number = int(args.out.stem.removeprefix("BENCH_"))
    tree = args.tree.resolve()
    seconds = run_seconds(tree)

    try:
        results = {w: bench_result(tree, w, args.seed, seconds, 0) for w in WORKLOADS}
        traced = bench_result(tree, WORKLOADS[0], args.seed, seconds, 1)
    except BenchFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    run = assemble(args.label, commit_of(tree), args.seed, seconds,
                   machine_facts(), results, traced)
    record = append_run(args.out, number, run)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    ok = traced["correct"] and all(r["correct"] for r in results.values())
    print(json.dumps({"label": args.label, "correct": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
