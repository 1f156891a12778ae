"""Tests of the benchmark itself: deterministic inputs, transparent tracing,
and printed metrics that match BENCHMARK.json.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import measure
import run as bench_run
import streamcpd
from streamcpd import cli
from tracer import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SHORT = 600


def short(name):
    return dataclasses.replace(WORKLOADS[name], length=SHORT)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_series_deterministic_per_seed(name):
    wl = WORKLOADS[name]
    a, truth_a = wl.series(3, wl.length)
    b, truth_b = wl.series(3, wl.length)
    c, _ = wl.series(4, wl.length)
    assert np.array_equal(a, b) and truth_a == truth_b
    assert not np.array_equal(a, c)
    assert a.shape == (wl.length,) and np.all(np.isfinite(a))
    assert truth_a and all(0 < t < wl.length for t in truth_a)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_outputs_unchanged(name):
    wl = short(name)
    values = wl.series(5, wl.length)[0].tolist()
    cfg = wl.config(streamcpd)
    step, m_step = streamcpd.Detector.step, streamcpd.detector.m_step

    plain = measure.closed_loop(cfg, values)
    tracer = Tracer()
    with tracer.installed():
        assert streamcpd.Detector.step is not step
        traced = measure.closed_loop(cfg, values)

    assert streamcpd.Detector.step is step and streamcpd.detector.m_step is m_step
    assert tracer.n_steps == wl.length
    assert measure.step_rows(traced.steps) == measure.step_rows(plain.steps)
    for a, b in zip(plain.steps, traced.steps):
        np.testing.assert_array_equal(a.rl_posterior.runs, b.rl_posterior.runs)
        np.testing.assert_array_equal(a.rl_posterior.probs, b.rl_posterior.probs)
        np.testing.assert_array_equal(a.responsibilities, b.responsibilities)


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(cli, "render_svg")
    wl = short("baseline-pruned")
    tracer = Tracer()
    with tracer.installed():
        measure.closed_loop(wl.config(streamcpd), wl.series(1, wl.length)[0].tolist())
    metrics, absent = tracer.layer_metrics(classes_kept=0)
    assert "cli.render_svg" in absent
    assert metrics["cli.svg_s"] == 0.0
    assert metrics["runlength.lse_calls_per_step"] == 6


def test_f1_matches_streamcpd_score():
    rng = np.random.default_rng(0)
    for _ in range(200):
        truth = sorted(rng.choice(500, size=rng.integers(1, 8), replace=False).tolist())
        preds = sorted(rng.choice(500, size=rng.integers(0, 10), replace=False).tolist())
        pairs, precision, recall, _ = cli.score_changepoints(preds, truth, 10)
        expected = 2 * precision * recall / (precision + recall) if pairs else 0.0
        assert measure.count_matches(preds, truth) == len(pairs)
        assert measure.f1_score([(preds, truth)]) == pytest.approx(expected)


def test_f1_pools_matches_over_series():
    # 2 of 3 true points found in the first series, none of 2 in the second.
    pooled = measure.f1_score([([100, 205], [100, 200, 300]), ([], [150, 400])])
    precision, recall = 2 / 2, 2 / 5
    assert pooled == pytest.approx(2 * precision * recall / (precision + recall))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_printed_metrics_are_declared(name, trace, monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(WORKLOADS, name, short(name))
    monkeypatch.setattr(bench_run, "OUT", tmp_path)
    argv = ["--workload", name, "--seed", "2", "--seconds", "0", "--trace", str(trace)]
    assert bench_run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= SHORT
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        assert (tmp_path / f"{name}-seed2" / "spans.csv").is_file()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "cli-fixed-k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
