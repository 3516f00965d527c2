"""The bench record writer, with the bench runs replaced by fixed results."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(correct=True, **metrics):
    return {"correct": correct, "attempted": 4, "failed": 0,
            "metrics": {name: {"value": v, "unit": "u"} for name, v in metrics.items()}}


def fake_bench(calls):
    def bench_result(tree, workload, seed, seconds, trace):
        calls.append((workload, seed, seconds, trace))
        if trace:
            return result(**{"oracle.normalization_ms": 6.0, "src.lines": 1970})
        return result(workload != "cli-session" or seed != 7, ops_per_s=2.0 * seed)
    return bench_result


def test_runs_append_to_one_record(tool, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(tool, "bench_result", fake_bench(calls))
    monkeypatch.setattr(tool, "commit_of", lambda tree: "abc1234")
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 5}', encoding="utf-8")
    out = tmp_path / "BENCH_11.json"
    for label, seed in (("parent", 1), ("change", 7)):
        monkeypatch.setattr("sys.argv", ["bench_record.py", "--tree", str(tmp_path),
                                         "--label", label, "--out", str(out),
                                         "--seed", str(seed)])
        assert tool.main() == (0 if label == "parent" else 1)

    assert calls == [
        *((w, 1, 5, 0) for w in tool.WORKLOADS), ("oracle-enum", 1, 5, 1),
        *((w, 7, 5, 0) for w in tool.WORKLOADS), ("oracle-enum", 7, 5, 1),
    ]
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["number"] == 11 and record["command"] == "python3 bench/run.py"
    parent, change = record["runs"]
    assert parent["label"] == "parent" and change["label"] == "change"
    assert parent["commit"] == "abc1234" and parent["seed"] == 1
    assert parent["seconds"] == 5
    assert set(parent["machine"]) == {"cpu", "nproc", "platform", "python", "numpy"}
    assert parent["end_to_end"]["oracle-enum"] == {
        "correct": True, "attempted": 4, "failed": 0, "ops_per_s": 2.0}
    assert list(parent["end_to_end"]) == list(tool.WORKLOADS)
    assert change["end_to_end"]["cli-session"]["correct"] is False
    assert parent["per_layer"] == {"correct": True, "oracle.normalization_ms": 6.0,
                                   "src.lines": 1970}
    assert parent["src_lines"] == 1970


def test_a_failed_bench_run_writes_nothing(tool, tmp_path, monkeypatch):
    def broken(tree, workload, seed, seconds, trace):
        raise tool.BenchFailed("exited 2")
    monkeypatch.setattr(tool, "bench_result", broken)
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 5}', encoding="utf-8")
    out = tmp_path / "BENCH_3.json"
    monkeypatch.setattr("sys.argv", ["bench_record.py", "--tree", str(tmp_path),
                                     "--label", "change", "--out", str(out)])
    assert tool.main() == 1
    assert not out.exists()


def synthetic_run(label, seed, ops, p50, correct=True):
    workload = {"correct": correct, "attempted": 100, "failed": 0 if correct else 2,
                "ops_per_s": ops, "op_p50_ms": p50, "setup_s": 0.5, "peak_rss_mb": 40.0}
    return {"label": label, "commit": "abc1234" if label == "parent" else "def5678",
            "seed": seed, "end_to_end": {"oracle-enum": workload},
            "per_layer": {"correct": True, "oracle.normalization_ms": 2.0 - seed / 100,
                          "src.lines": 1900, "not.declared_ms": 1.0}}


def synthetic_record():
    """Ten pairs by seed, the change first in every other one: ops_per_s
    wins 9 of 10 by far more than the parent's spread; op_p50_ms wins 10
    of 10 but by less than that spread."""
    runs = []
    for i, seed in enumerate(range(11, 21)):
        parent = synthetic_run("parent", seed, 100.0 + i, 1.0 + i / 10)
        change = synthetic_run("change", seed, 90.0 if i == 0 else 150.0 + i,
                               0.9 + i / 10, correct=i != 3)
        runs += [parent, change] if i % 2 else [change, parent]
    runs.append(synthetic_run("parent", 99, 1.0, 1.0))  # unpaired: left out
    return {"number": 5, "command": "python3 bench/run.py", "runs": runs}


def test_summary_pairs_runs_by_seed(tool):
    benchmark = json.loads(tool.BENCHMARK.read_text(encoding="utf-8"))
    lines = tool.summarize(synthetic_record(), benchmark).splitlines()
    assert lines[0] == ("BENCH_5: 10 parent/change pairs, seeds 11, 12, 13, 14, 15, "
                        "16, 17, 18, 19, 20; parent abc1234, change def5678")
    assert lines[1] == "oracle-enum: correct 10 -> 9, failed 0 -> 2"
    # parent 100..109: median 104.5, inclusive quartiles 102.25 and 106.75
    assert lines[2] == ("  ops_per_s (higher is better): 104.5 [102.2, 106.8] -> 154.5"
                        "  x1.478  won 9/10  gain rule holds  bound 0.25 kept")
    assert lines[3].startswith("  op_p50_ms (lower is better): 1.45 [1.225, 1.675]"
                               " -> 1.35  x0.931  won 10/10  gain rule fails")
    assert lines[6] == "per layer: correct 10 -> 10"
    assert lines[7].startswith("  oracle.normalization_ms (lower is better): ")
    assert lines[7].endswith("won 0/10  gain rule fails")
    assert lines[8].startswith("  src.lines (lower is better): 1900 [1900, 1900]")
    assert len(lines) == 9  # a metric BENCHMARK.json does not declare is left out


def test_summary_flags_a_metric_beyond_its_bound(tool):
    record = synthetic_record()
    for run in record["runs"]:
        if run["label"] == "change":
            run["end_to_end"]["oracle-enum"]["peak_rss_mb"] = 45.0
    benchmark = json.loads(tool.BENCHMARK.read_text(encoding="utf-8"))
    (line,) = [line for line in tool.summarize(record, benchmark).splitlines()
               if "peak_rss_mb" in line]
    assert line.endswith("won 0/10  gain rule fails  bound 0.1 EXCEEDED")


def test_summary_on_the_command_line(tool, tmp_path, monkeypatch, capsys):
    path = tmp_path / "BENCH_5.json"
    path.write_text(json.dumps(synthetic_record()), encoding="utf-8")
    monkeypatch.setattr("sys.argv", ["bench_record.py", "--summary", str(path)])
    assert tool.main() == 0
    assert capsys.readouterr().out.startswith("BENCH_5: 10 parent/change pairs")
    monkeypatch.setattr("sys.argv", ["bench_record.py", "--label", "change"])
    with pytest.raises(SystemExit):
        tool.main()
