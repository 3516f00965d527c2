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
