"""Measurement loops, output checks and metrics of the streamcpd benchmark.

Load is a closed loop with one caller: ``Detector.step`` (or ``cli.main``)
is called again only after the previous call returns. Every pass over a
workload's series starts from a fresh ``Detector``; a run repeats whole
passes until its time is up. Latency percentiles are over every step of
every pass, throughput over the summed pass time, wall times are medians.
Reported times are scaled to a reference host speed (see REFERENCE_KERNEL_S).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import streamcpd
from streamcpd import cli
from tracer import Tracer
from workloads import Workload

HERE = Path(__file__).resolve().parent

# Host-speed calibration. On a shared host the same code runs up to 40%
# slower or faster for seconds to minutes at a time, and that drift moves
# every timing alike. A fixed kernel, timed before every KERNEL_EVERY-th step,
# measures it, and reported times are scaled to a host on which the kernel
# takes REFERENCE_KERNEL_S. On a 2-vCPU Xeon VM, over eight 10-second
# processes of the fixed-k and the baseline closed loop, the quartile spread
# of the median step time fell from 0.46 and 0.39 to 0.06 and 0.04 when each
# step was scaled by the kernel's speed around it.
REFERENCE_KERNEL_S = 0.004
KERNEL_ITERATIONS = 600
KERNEL_EVERY = 100
KERNEL_SMOOTHING = 3

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60.0
POSTERIOR_SUM_TOL = 1e-9
F1_TOLERANCE = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "step_p50_us": "us",
    "step_p90_us": "us",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "detect_f1": "ratio",
    "pass_frac": "ratio",
}

PER_LAYER_UNITS = {
    "emission.self_us_per_step": "us",
    "emission.e_step.us_per_step": "us",
    "emission.m_step.us_per_step": "us",
    "emission.decay.us_per_step": "us",
    "emission.m_step.calls_per_step": "count",
    "emission.candidates_per_step": "count",
    "emission.candidate_kept_ratio": "ratio",
    "crp.self_us_per_step": "us",
    "crp.window.us_per_step": "us",
    "crp.record.us_per_step": "us",
    "runlength.self_us_per_step": "us",
    "runlength.recursion.us_per_step": "us",
    "runlength.normalize.us_per_step": "us",
    "runlength.prune.us_per_step": "us",
    "runlength.lse_calls_per_step": "count",
    "runlength.live_mean": "count",
    "runlength.live_max": "count",
    "runlength.prune_in_per_step": "count",
    "runlength.prune_kept_ratio": "ratio",
    "detector.self_us_per_step": "us",
    "detector.state_mb": "MB",
    "detector.trace_mb": "MB",
    "cli.ingest_s": "s",
    "cli.run_s": "s",
    "cli.emit_s": "s",
    "cli.svg_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_pct": "%",
}


# -- outputs and checks ----------------------------------------------------


def step_rows(steps) -> list[tuple[int, int, int, int, int]]:
    """The per-step trace the fingerprint covers: (t, z_star, k_t, r_star, cp_flag)."""
    return [(s.t, s.z_star, s.k_t, s.r_star, int(s.cp_flag)) for s in steps]


def trace_sha256(rows) -> str:
    text = "".join(f"{t},{z},{k},{r},{c}\n" for t, z, k, r, c in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def f1_score(pairs) -> float:
    """F1 of predicted change points against the truth, pooled over
    ``(predicted, truth)`` pairs, one per series."""
    matched = predicted = true = 0
    for preds, truth in pairs:
        matched += count_matches(preds, truth)
        predicted += len(preds)
        true += len(truth)
    if matched == 0:
        return 0.0
    precision, recall = matched / predicted, matched / true
    return 2 * precision * recall / (precision + recall)


def count_matches(predicted, truth, tolerance: int = F1_TOLERANCE) -> int:
    """Predictions matched one to one to true change points, greedily as
    ``streamcpd score`` does: each true point, in order, takes the nearest
    unused prediction within the tolerance."""
    preds = sorted(predicted)
    used = [False] * len(preds)
    matched = 0
    for t in sorted(truth):
        best = None
        for j, p in enumerate(preds):
            if not used[j] and abs(p - t) <= tolerance and (
                best is None or abs(p - t) < abs(preds[best] - t)
            ):
                best = j
        if best is not None:
            used[best] = True
            matched += 1
    return matched


@dataclass
class Tally:
    """Operations attempted and failed, and what failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, n: int, what: str) -> None:
        if n:
            self.failed += n
            self.problems.append(what)


def check_steps(steps, reference_rows, tally: Tally, label: str) -> None:
    """Per-step output checks: the sparse posterior sums to 1, the MAP run
    length is live, and the trace equals the reference run's."""
    tally.attempted += len(steps)
    bad = abs(len(reference_rows) - len(steps))
    for s, ref in zip(steps, reference_rows):
        runs, probs = s.rl_posterior
        bad += not (
            abs(float(np.sum(probs)) - 1.0) <= POSTERIOR_SUM_TOL
            and bool(np.any(runs == s.r_star))
            and step_rows([s])[0] == ref
        )
    tally.fail(bad, f"{label}: {bad} steps failed an output check")


# -- timed loops -----------------------------------------------------------


@dataclass
class Pass:
    """One pass's outputs, step latencies and wall time, and the kernel time
    measured before every KERNEL_EVERY-th step (excluded from the wall)."""

    steps: list
    latencies: list[float]
    wall: float
    kernel: list[float]

    def scaled_wall(self) -> float:
        return self.wall * host_scale(self.kernel)

    def scaled_latencies(self) -> np.ndarray:
        """Step latencies, each scaled by the kernel's speed around it: the
        mean of KERNEL_SMOOTHING neighbouring kernel samples."""
        half = KERNEL_SMOOTHING // 2
        k = np.pad(np.asarray(self.kernel), half, mode="edge")
        smooth = np.convolve(k, np.ones(KERNEL_SMOOTHING) / KERNEL_SMOOTHING, mode="valid")
        steps = np.arange(len(self.latencies))
        return np.asarray(self.latencies) * REFERENCE_KERNEL_S / smooth[steps // KERNEL_EVERY]


def closed_loop(cfg, values) -> Pass:
    """One pass: a fresh Detector fed every value, one call at a time."""
    clock = time.perf_counter
    latencies, steps, kernel = [], [], []
    start = clock()
    det = streamcpd.Detector(cfg)
    for i, x in enumerate(values):
        if i % KERNEL_EVERY == 0:
            kernel.append(calibration_kernel())
        t0 = clock()
        out = det.step(x)
        latencies.append(clock() - t0)
        steps.append(out)
    return Pass(steps, latencies, clock() - start - sum(kernel), kernel)


def allocation_pass(cfg, values) -> tuple[float, float]:
    """(state MB, trace MB): memory the Detector holds after a pass, and the
    memory of the StepOutputs the caller kept, from tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        det = streamcpd.Detector(cfg)
        steps = [det.step(x) for x in values]
        with_trace = tracemalloc.get_traced_memory()[0]
        del steps
        gc.collect()
        state_only = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del det
    return (state_only - base) / 1e6, (with_trace - state_only) / 1e6


def setup_seconds(wl: Workload, src: Path) -> list[tuple[float, float]]:
    """(measured, host-scaled) time from process start until the first
    observation can be fed, for each of SETUP_REPEATS fresh interpreters; a
    first one, which warms the file and bytecode caches, is discarded."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(src), wl.name]
    times = []
    for i in range(SETUP_REPEATS + 1):
        before = calibration_kernel()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.communicate()
            finally:
                watchdog.cancel()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {wl.name} failed (exit {proc.returncode})")
        if i:
            times.append((elapsed, elapsed * host_scale([before, calibration_kernel()])))
    return times


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of small numpy reductions and Python
    object churn, the kinds of work a detector step does."""
    a = np.linspace(-3.0, 3.0, 200)
    acc = 0.0
    start = time.perf_counter()
    for i in range(KERNEL_ITERATIONS):
        b = np.concatenate(([0.0], a * 0.5))
        m = float(b.max())
        acc += m + math.log(float(np.exp(b - m).sum()))
        acc += len({"x": i, "y": acc})
    return time.perf_counter() - start


def host_scale(kernel_times) -> float:
    """Factor that scales a time measured alongside these kernel times to
    the reference host."""
    return REFERENCE_KERNEL_S / statistics.mean(kernel_times)


def scale_to_reference(metrics: dict[str, float], units: dict[str, str], scale: float) -> dict[str, float]:
    """Times (units s and us) multiplied by ``scale``, rates (1/s) divided by it."""
    factor = {"s": scale, "us": scale, "1/s": 1.0 / scale}
    return {name: value * factor.get(units[name], 1.0) for name, value in metrics.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the CLI workload -------------------------------------------------------


def write_series_csv(series, path: Path) -> None:
    # 17 significant digits round-trip every float64, so the CLI reads
    # exactly the values the library run is given.
    path.write_text("x\n" + "".join(f"{v:.17g}\n" for v in series), encoding="utf-8")


def _read_rows(outdir: Path):
    """(t, z_star, k_t, r_star, cp_flag) rows and change points from the
    files the CLI wrote."""
    assign = [line.split(",") for line in (outdir / "assignments.csv").read_text().splitlines()[1:]]
    rl = [line.split(",") for line in (outdir / "runlength_map.csv").read_text().splitlines()[1:]]
    if len(assign) != len(rl):
        raise ValueError("assignments.csv and runlength_map.csv differ in length")
    rows = [(int(a[0]), int(a[2]), int(a[3]), int(r[1]), int(r[2])) for a, r in zip(assign, rl)]
    cps = [int(v) for v in (outdir / "changepoints.csv").read_text().splitlines()[1:]]
    return rows, cps


def cli_call(wl: Workload, csv_path: Path, outdir: Path) -> tuple[float, int]:
    """Wall time and exit code of one ``streamcpd run`` into a fresh outdir."""
    shutil.rmtree(outdir, ignore_errors=True)
    argv = ["run", "--input", str(csv_path), "--out", str(outdir), *wl.cli_args]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    return wall, code


def check_cli(code: int, outdir: Path, ref_rows, ref_cps, tally: Tally) -> None:
    """A CLI run passes when it exits 0 and its changepoints.csv and per-step
    trace equal the library run's with the same config and series."""
    tally.attempted += 1
    try:
        rows, cps = _read_rows(outdir)
        ok = code == 0 and cps == ref_cps and rows == ref_rows
    except (OSError, ValueError, IndexError) as exc:
        ok = False
        print(f"cli output unreadable: {exc}", file=sys.stderr)
    tally.fail(int(not ok), f"cli run (exit {code}) differs from the library run")


# -- one benchmark run -----------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    measured: dict[str, float]
    units: dict[str, str]
    sha: str
    notes: list[str]


def quality_seeds(seed: int, n: int) -> list[int]:
    """The run's seed and n - 1 independent seeds derived from it."""
    children = np.random.SeedSequence(seed).spawn(n - 1)
    return [seed] + [int(c.generate_state(1)[0]) for c in children]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(latencies: list[np.ndarray], q: float) -> float:
    return float(np.percentile(np.concatenate(latencies), q)) * 1e6 if latencies else 0.0


def run_benchmark(wl: Workload, seed: int, seconds: float, trace: bool, src: Path, out: Path) -> Result:
    """Generate the workload's series from the seed, run it for about
    ``seconds`` of passes, check every output, and return the metrics.

    Each end-to-end time is kept twice, as measured and scaled to the
    reference host; the scaled value is reported."""
    out.mkdir(parents=True, exist_ok=True)
    series, truth = wl.series(seed, wl.length)
    values = series.tolist()
    cfg = wl.config(streamcpd)
    tally = Tally()
    notes: list[str] = []
    metrics: dict[str, float] = {}

    setup = [] if trace else setup_seconds(wl, src)

    # Reference: the library's own run(), untimed; it also warms caches.
    reference = streamcpd.run(series, cfg)
    ref_rows = step_rows(reference.steps)
    ref_cps = list(reference.change_points)
    check_steps(reference.steps, ref_rows, tally, "reference run")
    flagged = [s.t for s in reference.steps if s.cp_flag]
    tally.fail(len(set(ref_cps) ^ set(flagged)), "change_points differs from the cp_flag steps")
    del reference
    sha = trace_sha256(ref_rows)
    scored = [(ref_cps, truth)]
    if not trace:
        for extra in quality_seeds(seed, wl.quality_series)[1:]:
            extra_series, extra_truth = wl.series(extra, wl.length)
            scored.append((streamcpd.run(extra_series, cfg).change_points, extra_truth))

    csv_path = out / "series.csv"
    if wl.cli_args is not None:
        write_series_csv(series, csv_path)

    tracer = Tracer()
    passes: list[tuple[float, float]] = []  # (measured, scaled) wall of each timed pass
    cli_walls: list[float] = []
    latencies: list[np.ndarray] = []
    scaled_latencies: list[np.ndarray] = []
    traced_walls: list[float] = []
    kernel_times: list[float] = []
    classes_kept = 0
    deadline = time.perf_counter() + seconds
    if trace:
        # Part of the run's time: under tracemalloc a pass is several times slower.
        metrics["detector.state_mb"], metrics["detector.trace_mb"] = allocation_pass(cfg, values)
    try:
        while True:
            if wl.cli_args is not None:
                kernel_times.append(calibration_kernel())
                wall, code = cli_call(wl, csv_path, out / "cli")
                check_cli(code, out / "cli", ref_rows, ref_cps, tally)
                cli_walls.append(wall)
                if trace:
                    with tracer.installed():
                        wall, code = cli_call(wl, csv_path, out / "cli-traced")
                    check_cli(code, out / "cli-traced", ref_rows, ref_cps, tally)
                    traced_walls.append(wall)
                    metrics["cli.bytes_written"] = float(
                        sum(p.stat().st_size for p in (out / "cli-traced").iterdir())
                    )
            if not trace or wl.cli_args is None:
                p = closed_loop(cfg, values)
                check_steps(p.steps, ref_rows, tally, "timed pass")
                passes.append((p.wall, p.scaled_wall()))
                latencies.append(np.asarray(p.latencies))
                scaled_latencies.append(p.scaled_latencies())
                kernel_times.extend(p.kernel)
                del p
                if trace:
                    with tracer.installed():
                        p = closed_loop(cfg, values)
                    check_steps(p.steps, ref_rows, tally, "traced pass")
                    traced_walls.append(p.wall)
                    kernel_times.extend(p.kernel)
                    k_prev = 0
                    for s in p.steps:
                        classes_kept += max(0, s.k_t - k_prev)
                        k_prev = s.k_t
                    del p
            if time.perf_counter() >= deadline:
                break
    except Exception:  # a step or CLI call raised: record it and end the run
        traceback.print_exc(file=sys.stderr)
        tally.attempted += 1
        tally.fail(1, "a call raised")
    kernel_times.append(calibration_kernel())

    common = {
        "detect_f1": f1_score(scored),
        "pass_frac": 1.0 - tally.failed / max(tally.attempted, 1),
    }
    if trace:
        layer, absent = tracer.layer_metrics(classes_kept)
        metrics.update(layer)
        base = cli_walls or [w for w, _ in passes]
        if base and traced_walls:
            metrics["trace.overhead_pct"] = (_median(traced_walls) / _median(base) - 1.0) * 100.0
        spans_path = out / "spans.csv"
        tracer.write_spans(spans_path)
        notes.append(f"spans written to {spans_path.relative_to(out.parent.parent)}")
        if absent:
            notes.append("absent from the program: " + ", ".join(absent))
        units = PER_LAYER_UNITS
        measured = {name: float(metrics.get(name, 0.0)) for name in units}
        reported = scale_to_reference(measured, units, host_scale(kernel_times))
    else:
        units = END_TO_END_UNITS
        rss = peak_rss_mb()
        n_steps = len(values)
        # A CLI call cannot be interrupted for kernel samples; it alternates
        # with library passes, so the run's mean host speed scales it.
        cli_runs = [(w, w * host_scale(kernel_times)) for w in cli_walls]

        def end_to_end(i: int, lat: list[np.ndarray]) -> dict[str, float]:
            walls = [w[i] for w in passes]
            return {
                "setup_s": _median([t[i] for t in setup]),
                "steps_per_s": len(walls) * n_steps / sum(walls) if walls else 0.0,
                "step_p50_us": _percentile(lat, 50),
                "step_p90_us": _percentile(lat, 90),
                "wall_s": _median([w[i] for w in (cli_runs if wl.cli_args else passes)]),
                "peak_rss_mb": rss,
            } | common

        measured = end_to_end(0, latencies)
        reported = end_to_end(1, scaled_latencies)
        notes.append(
            f"{len(passes)} library passes of {n_steps} steps "
            f"({sum(map(len, latencies))} step latencies), {len(cli_runs)} CLI runs"
        )
    notes.append(
        f"times scaled to a host on which the calibration kernel takes "
        f"{REFERENCE_KERNEL_S * 1e3:.0f} ms"
    )
    notes.extend(tally.problems)
    return Result(
        correct=tally.failed == 0,
        attempted=max(tally.attempted, 1),
        failed=tally.failed,
        metrics={name: float(reported.get(name, 0.0)) for name in units},
        measured={name: float(measured.get(name, 0.0)) for name in units},
        units=units,
        sha=sha,
        notes=notes,
    )
