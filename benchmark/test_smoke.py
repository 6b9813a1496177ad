"""Smoke test of the benchmark at tiny sizes.

Not part of the repository's test suite; run it with

    python3 -m pytest benchmark/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from mvmlc import metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "train-small": workloads.Workload("tiny-train", n=50, m=2, c=3, d_e=8, batch=16, epochs=2),
    "train-labels": workloads.Workload("tiny-labels", n=50, m=3, c=5, d_e=8, batch=16, epochs=1),
    "eval-rank": workloads.Workload("tiny-eval", n=32, m=2, c=3, d_e=8, batch=16, epochs=1,
                                    eval_rows=96),
}


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)


def test_workloads_in_spec_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_listed_metric(tiny_workloads, capsys, trace):
    run.main(["--workload", "eval-rank", "--seconds", "0", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for entry in listed:
        value = result["metrics"][entry["name"]]
        assert value["unit"] == entry["unit"]
        assert np.isfinite(value["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_matches_untraced_and_covers_the_step(name, tmp_path):
    w = TINY[name]
    figures, untraced, traced = workloads.traced(w, 3, 0.0, tmp_path)
    assert untraced.failures == [] and traced.failures == []
    assert traced.train_runs[-1][2] == untraced.train_runs[-1][2]
    # every listed metric, per-op and per-scope ones too, is one this program records
    figures.update(workloads.end_to_end(untraced, 0.0)[0])
    for entry in SPEC["per_layer"]:
        assert entry["name"] in figures
    for kind in ("step", "pass"):
        parts = [figures[f"{layer}.self_{kind}_ms"] for layer in
                 (("model", "losses", "autodiff", "trainer") if kind == "step"
                  else ("model", "autodiff", "metrics"))]
        assert sum(parts) > 0
        assert 0.5 < figures[f"trace.{kind}_coverage"] <= 1.0


def test_checks_catch_a_wrong_report(tmp_path, monkeypatch):
    real = metrics.compute_report

    def off_by_a_little(scores, labels, meta=None):
        report = real(scores, labels, meta)
        report.auc += 1e-6
        return report

    monkeypatch.setattr(metrics, "compute_report", off_by_a_little)
    ledger, _ = workloads.measure(TINY["eval-rank"], 0, 0.0, tmp_path)
    assert ledger.failures == ["AUC matches the brute-force oracle"]


def test_oracle_agrees_with_compute_report_on_ties():
    rng = np.random.default_rng(5)
    for _ in range(10):
        scores = rng.integers(0, 4, (40, 6)).astype(float)
        labels = (rng.random((40, 6)) < 0.4).astype(float)
        report = metrics.compute_report(scores, labels)
        assert oracle.average_precision(scores, labels) == pytest.approx(report.ap, abs=1e-12)
        assert oracle.one_minus_ranking_loss(scores, labels) == pytest.approx(
            report.one_minus_rl, abs=1e-12)
        assert oracle.macro_auc(scores, labels) == pytest.approx(report.auc, abs=1e-12)


def test_tail_leaves_ten_samples_above():
    samples = list(range(1, 101))
    value, q = workloads.tail(samples)
    assert (q, value) == (90, 90)
    assert sum(s > value for s in samples) == 10
    assert workloads.tail([3.0, 1.0])[0] == 3.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "train-small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
