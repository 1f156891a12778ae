"""Outside-in tracer for streamcpd: wraps the public functions of each layer
from outside the program, records spans, and derives per-layer metrics.

Calls of one function on one call path within one ``Detector.step`` are
merged into one span that carries the call count and the summed duration,
so a layer's self time is its spans' summed duration minus that of their
child spans. A function the program no longer has is reported as absent
instead of failing, so a change to the program never needs an edit here.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

STEP = "detector.step"

# Inclusive time of the outermost span of any of these names, per step.
GROUPS = {
    "emission.e_step": ("emission.e_step",),
    "emission.m_step": ("emission.m_step",),
    "emission.decay": ("emission.decay_rates",),
    "crp.window": (
        "crp.CrpState.run_predictive_many",
        "crp.LabelCounts.window_counts",
        "crp.fixed_k_run_predictive",
    ),
    "crp.record": ("crp.CrpState.record_assignment", "crp.LabelCounts.record"),
    "runlength.recursion": ("runlength.recursion_step",),
    "runlength.normalize": ("runlength.normalize_posterior",),
    "runlength.prune": ("runlength.prune",),
}

CLI_SPANS = {
    "cli.ingest_s": "cli.ingest_csv",
    "cli.run_s": "cli.run",
    "cli.emit_s": "cli.emit_traces",
    "cli.svg_s": "cli.render_svg",
}

LSE_CALLS = "runlength.logsumexp"


def _run_lengths(state):
    runs = getattr(state, "run_lengths", None)
    return None if runs is None else len(runs)


def _probe_recursion(tracer, args, result):
    live = _run_lengths(args[0]) if args else None
    if live is not None:
        tracer.samples["live"].append(live)


def _probe_prune(tracer, args, result):
    before = _run_lengths(args[0]) if args else None
    after = _run_lengths(result)
    if before is not None and after is not None:
        tracer.samples["prune_in"].append(before)
        tracer.samples["prune_kept"].append(after)


PROBES = {"runlength.recursion_step": _probe_recursion, "runlength.prune": _probe_prune}


class Tracer:
    """Span recorder. ``spans`` maps ``(step id, call path)`` to
    ``[first start, last end, summed duration, calls]``; spans outside any
    step carry step id -1."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: dict[tuple[int, tuple[str, ...]], list] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[int]] = defaultdict(list)
        self.wrapped: set[str] = set()
        self.n_steps = 0
        self._path: tuple[str, ...] = ()
        self._step = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------

    def _span_wrapper(self, name, fn, is_step):
        tracer, spans, clock = self, self.spans, time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent_path, parent_step = tracer._path, tracer._step
            if is_step:
                tracer._step = tracer.n_steps
                tracer.n_steps += 1
            path = parent_path + (name,)
            key = (tracer._step, path)
            tracer._path = path
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._path, tracer._step = parent_path, parent_step
                rec = spans.get(key)
                if rec is None:
                    spans[key] = [start, end, end - start, 1]
                else:
                    rec[1] = end
                    rec[2] += end - start
                    rec[3] += 1
            if probe is not None:
                probe(tracer, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, owner, attr, name, *, count_only=False, is_step=False):
        fn = vars(owner).get(attr)
        if not callable(fn):
            return
        wrapper = self._count_wrapper(name, fn) if count_only else self._span_wrapper(name, fn, is_step)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)
        self.wrapped.add(name)

    def _install(self):
        detector = importlib.import_module("streamcpd.detector")
        runlength = importlib.import_module("streamcpd.runlength")
        crp = importlib.import_module("streamcpd.crp")
        cli = importlib.import_module("streamcpd.cli")
        # Every function streamcpd.detector imports from a layer module.
        for attr, obj in list(vars(detector).items()):
            if inspect.isfunction(obj) and obj.__module__.startswith("streamcpd."):
                layer = obj.__module__.rpartition(".")[2]
                if layer in ("emission", "runlength", "crp"):
                    self._wrap(detector, attr, f"{layer}.{attr}")
        for cls_name in ("CrpState", "LabelCounts"):
            cls = getattr(crp, cls_name, None)
            for attr, obj in list(vars(cls).items()) if cls is not None else ():
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    self._wrap(cls, attr, f"crp.{cls_name}.{attr}")
        self._wrap(detector, "fixed_k_run_predictive", "crp.fixed_k_run_predictive")
        self._wrap(runlength, "logsumexp", LSE_CALLS, count_only=True)
        if hasattr(detector, "Detector"):
            self._wrap(detector.Detector, "step", STEP, is_step=True)
        for attr in ("main", "ingest_csv", "run", "emit_traces", "render_svg"):
            self._wrap(cli, attr, f"cli.{attr}")

    def _uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    @contextmanager
    def installed(self):
        """Wrap the program for the duration of the block, then restore
        every original."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    # -- output ----------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write one row per span: step id, name, parent, start and end
        (µs since the tracer was made), summed duration and call count."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "name", "parent", "start_us", "end_us", "total_us", "calls"])
            for (step, path_), (start, end, total, calls) in self.spans.items():
                w.writerow([
                    step,
                    path_[-1],
                    "/".join(path_[:-1]),
                    f"{(start - self.origin) * 1e6:.3f}",
                    f"{(end - self.origin) * 1e6:.3f}",
                    f"{total * 1e6:.3f}",
                    calls,
                ])

    def layer_metrics(self, classes_kept: int) -> tuple[dict[str, float], list[str]]:
        """Per-step layer metrics from the recorded spans, and the metric
        sources this program lacks (their metrics read 0).

        ``classes_kept`` is the number of classes the traced steps opened,
        read from their outputs; it is the numerator of the candidate kept
        ratio, whose base is the number of candidates spawned."""
        child_time: dict[tuple[int, tuple[str, ...]], float] = defaultdict(float)
        for (step, path), rec in self.spans.items():
            if len(path) > 1:
                child_time[(step, path[:-1])] += rec[2]

        self_time: dict[str, float] = defaultdict(float)
        group_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        cli_time: dict[str, float] = defaultdict(float)
        for (step, path), (_, _, total, n) in self.spans.items():
            name = path[-1]
            if step >= 0:
                layer = "detector" if name == STEP else name.partition(".")[0]
                self_time[layer] += total - child_time[(step, path)]
                calls[name] += n
                parent = path[-2] if len(path) > 1 else None
                for group, members in GROUPS.items():
                    if name in members and parent not in members:
                        group_time[group] += total
            elif name.startswith("cli."):
                cli_time[name] += total
                calls[name] += n

        steps = max(self.n_steps, 1)
        m: dict[str, float] = {}
        for layer in ("emission", "crp", "runlength", "detector"):
            m[f"{layer}.self_us_per_step"] = self_time[layer] / steps * 1e6
        for group in GROUPS:
            m[f"{group}.us_per_step"] = group_time[group] / steps * 1e6
        m["emission.m_step.calls_per_step"] = calls["emission.m_step"] / steps
        spawned = calls["emission.spawn_candidate"]
        m["emission.candidates_per_step"] = spawned / steps
        m["emission.candidate_kept_ratio"] = classes_kept / spawned if spawned else 0.0
        m["runlength.lse_calls_per_step"] = self.counts[LSE_CALLS] / steps

        live = self.samples["live"]
        m["runlength.live_mean"] = sum(live) / len(live) if live else 0.0
        m["runlength.live_max"] = float(max(live, default=0))
        entering, kept = sum(self.samples["prune_in"]), sum(self.samples["prune_kept"])
        m["runlength.prune_in_per_step"] = entering / steps
        m["runlength.prune_kept_ratio"] = kept / entering if entering else 0.0

        mains = max(calls["cli.main"], 1)
        for metric, name in CLI_SPANS.items():
            m[metric] = cli_time[name] / mains

        expected = {STEP, LSE_CALLS, "emission.spawn_candidate", *CLI_SPANS.values()}
        expected.update(name for members in GROUPS.values() for name in members)
        return m, sorted(expected - self.wrapped)
