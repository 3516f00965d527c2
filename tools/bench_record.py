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

    python3 tools/bench_record.py --summary BENCH_18.json

prints, for each workload and metric of a record, the parent runs' median
[quartiles] and the change runs' median, their ratio, how many runs paired
by seed the change won, and whether a gain passes the rule of at least nine
tenths of pairs won and a median gap wider than the parent's interquartile
distance; an end-to-end metric also gets its check against its bound in
``BENCHMARK.json``, which also says which direction of each metric is better.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("oracle-enum", "equilibrium-solve", "cli-session")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


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


def compare(parent: list[float], change: list[float], higher: bool,
            bound: float | None) -> str:
    """One metric over runs paired by index: the parent median [quartiles]
    -> the change median, the ratio, pairs won and the gain rule's verdict,
    and the bound's for an end-to-end metric."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if len(parent) > 1:
        low, _, high = statistics.quantiles(parent, n=4, method="inclusive")
    else:
        low = high = p_med
    won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    gain = (c_med - p_med) if higher else (p_med - c_med)
    rule = 10 * won >= 9 * len(parent) and gain > high - low
    line = (f"{p_med:.4g} [{low:.4g}, {high:.4g}] -> {c_med:.4g}  "
            f"x{c_med / p_med if p_med else float('nan'):.3f}  "
            f"won {won}/{len(parent)}  gain rule {'holds' if rule else 'fails'}")
    if bound is not None:
        ok = -gain <= bound * abs(p_med)
        line += f"  bound {bound:g} {'kept' if ok else 'EXCEEDED'}"
    return line


def summarize(record: dict, benchmark: dict) -> str:
    """The parent/change comparison of every metric of a record, the runs
    paired by seed."""
    declared = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    by_seed: dict[int, dict] = {}
    for run in record["runs"]:
        by_seed.setdefault(run["seed"], {})[run["label"]] = run
    pairs = [(s["parent"], s["change"]) for _, s in sorted(by_seed.items())
             if "parent" in s and "change" in s]
    if not pairs:
        return f"BENCH_{record['number']}: no parent/change pair"
    first = pairs[0]
    lines = [f"BENCH_{record['number']}: {len(pairs)} parent/change pairs, seeds "
             f"{', '.join(str(p['seed']) for p, _ in pairs)}; "
             f"parent {first[0]['commit']}, change {first[1]['commit']}"]
    sections = [(w, lambda run, w=w: run["end_to_end"][w]) for w in first[0]["end_to_end"]]
    sections.append(("per layer", lambda run: run["per_layer"]))
    for name, values in sections:
        parent, change = ([values(run) for run in side] for side in zip(*pairs))
        lines.append(f"{name}: " + ", ".join(
            f"{key} {sum(v[key] for v in parent)} -> {sum(v[key] for v in change)}"
            for key in ("correct", "failed") if key in parent[0]))
        for metric in parent[0]:
            if metric in declared:
                m = declared[metric]
                lines.append(f"  {metric} ({m['better']} is better): " + compare(
                    [v[metric] for v in parent], [v[metric] for v in change],
                    m["better"] == "higher", m.get("bound")))
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path,
                        help="checkout whose bench/run.py and src/ to run")
    parser.add_argument("--label", help="e.g. parent or change")
    parser.add_argument("--out", type=Path, help="BENCH_<n>.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--summary", type=Path, metavar="BENCH_<n>.json",
                        help="print the parent/change comparison of a record")
    args = parser.parse_args()
    if args.summary:
        print(summarize(json.loads(args.summary.read_text(encoding="utf-8")),
                        json.loads(BENCHMARK.read_text(encoding="utf-8"))))
        return 0
    if not (args.tree and args.label and args.out):
        parser.error("recording a run needs --tree, --label and --out")
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
