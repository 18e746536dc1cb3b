"""Smoke test of the benchmark at tiny sizes: every metric named in
BENCHMARK.json is emitted with its unit, no invocation fails, and the
traced run's spans nest.

verify-cubic is left out: its cloud is 384 points whatever the size, and
one verify takes seconds; full benchmark runs cover it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BENCHMARK = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize(
    "workload, trace", [("demo", 0), ("demo", 1), ("verify-q8", 1), ("mesh-heightfield", 0)]
)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    listed = json.loads(BENCHMARK.read_text())["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert "error_rate" in proc.stdout and "FAILED" not in proc.stdout

    record = json.loads((ROOT / ".bench_work" / f"{workload}-s5-t{trace}-smoke" / "result.json").read_text())
    assert record["error_rate"] == 0
    assert set(record["environment"]) >= {"nproc", "cpu_model", "python", "numpy", "git_commit", "blas_threads", "workload_seed"}
    assert record["sizes"]["seed_vertices"] > 0
    if trace:
        metrics = result["metrics"]
        for name in ("symmetry.surviving_candidates", "symmetry.classify_chirality"):
            assert 0 < metrics[f"{name}.self_s"]["value"] <= metrics[f"{name}.s"]["value"]
        assert metrics["symmetry.survivors"]["value"] == 8


def test_child_spans_fit_inside_their_parent():
    spans_path = ROOT / ".bench_work" / "demo-s5-t1-smoke" / "spans.jsonl"
    if not spans_path.exists():
        run_bench("--workload", "demo", "--seed", "5", "--seconds", "0", "--trace", "1", "--smoke")
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    by_id = {s["id"]: s for s in spans}
    children: dict[int, float] = {}
    for s in spans:
        assert s["end"] >= s["start"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            assert s["invocation"] == parent["invocation"]
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
    for parent_id, covered in children.items():
        parent = by_id[parent_id]
        assert covered <= parent["end"] - parent["start"] + 1e-9
    assert {s["name"] for s in spans if s["parent"] is None} == {"cli.check_seed", "cli.generate", "cli.verify"}


def test_workload_inputs_follow_the_seed(tmp_path):
    for name in ("verify-q8", "verify-cubic", "mesh-heightfield"):
        texts = []
        for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
            (tmp_path / sub).mkdir(exist_ok=True)
            wl = workloads.build(name, seed, tmp_path / sub)
            texts.append(Path(wl.seed_path).read_text())
        assert texts[0] == texts[1] != texts[2], name
    spec = json.loads(BENCHMARK.read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK, tmp_path)
    proc = run_bench("--workload", "demo", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
