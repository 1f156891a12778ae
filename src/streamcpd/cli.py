"""Command-line front end: run a detector on a CSV, synthesize test data,
and score predicted change points against ground truth.

Exit codes: 0 success, 1 input error, 2 config error, 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import errno
import functools
import math
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from . import __version__
from .detector import Detector, DetectorConfig, StepOutput
from .errors import ConfigError, ContractViolation, InputError
from .schema import _fmt, field_spec
from .synth import SegmentSpec, gen_piecewise_gaussian

POSTERIOR_FILE_FLOOR = 1e-12
CLI_DEFAULT_PRUNE_EPSILON = 1e-10


def _part_path(path: Path) -> Path:
    return path.with_name(path.name + ".part")


class _PartFile:
    """One output file, written as ``NAME.part``; its group renames it to
    NAME."""

    def __init__(self, path):
        self.path = Path(path)
        self.part = _part_path(self.path)
        self._fh = self.call(open, self.part, "w", encoding="utf-8")

    def call(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, with an ``OSError`` raised as an
        ``InputError`` naming NAME, and not the part file."""
        try:
            return fn(*args, **kwargs)
        except OSError as exc:
            raise InputError(f"cannot write {self.path}: {exc.strerror or exc}") from exc

    def write(self, text: str) -> None:
        self.call(self._fh.write, text)

    def close(self) -> None:
        """Flush and close the part file; its name stays ``NAME.part``."""
        self.call(self._fh.close)

    def discard(self) -> None:
        with contextlib.suppress(OSError):
            self._fh.close()
        with contextlib.suppress(OSError):
            self.part.unlink(missing_ok=True)


class _Outputs:
    """The files one command writes, renamed from ``NAME.part`` to NAME
    together by :meth:`commit`. Leaving the ``with`` block before the
    commit, by an error or an interrupt, removes every part file and each
    directory the group made that is then empty, so files already in place
    are untouched.

    ``names`` is every file the group will write: an iterable of names, or
    a dict from the label a refusal names a file by to its name (otherwise
    its path is its label). With ``outdir``, names are taken inside it, and
    it is made (with its parents) if missing; otherwise names are paths.
    ``reads`` is the command's input file, labelled ``--input``. Two of
    these that share a file, as a target or a part file, would tear it, so
    that is a ``ConfigError`` naming both, raised before any directory or
    file is made."""

    def __init__(self, names, outdir=None, reads=None):
        self.dir = None if outdir is None else Path(outdir)
        # Resolved target and part paths, and the input: their file's label.
        taken = {} if reads is None else {Path(reads).resolve(): "--input"}
        self._named: set[Path] = set()  # not yet written
        for label, name in names.items() if isinstance(names, dict) else ((None, n) for n in names):
            path = self._path(name)
            label = label or str(path)
            for p in (path, _part_path(path)):
                key = p.resolve()
                if key in taken:
                    raise ConfigError(f"{taken[key]} and {label} name the same file {p}")
                taken[key] = label
            self._named.add(path)
        self._files: list[_PartFile] = []
        self._made: list[Path] = []  # deepest first
        if self.dir is not None:
            self._made = [d for d in (self.dir, *self.dir.parents) if not d.exists()]
            try:
                self.dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise InputError(f"cannot create output directory {self.dir}: {exc}") from exc

    def __enter__(self) -> "_Outputs":
        return self

    def __exit__(self, *exc_info) -> None:
        for f in self._files:
            f.discard()
        for d in self._made:
            try:
                d.rmdir()
            except OSError:
                break

    def _path(self, name) -> Path:
        return Path(name if self.dir is None else self.dir / name)

    def write(self, name, blocks) -> _PartFile:
        """A part file for ``name``, one of the group's names not yet
        written, of the text ``blocks``, written as they arrive."""
        path = self._path(name)
        if path not in self._named:
            raise ContractViolation(f"{path} is not a file of this group left to write")
        self._named.remove(path)
        f = _PartFile(path)
        self._files.append(f)
        for block in blocks:
            f.write(block)
        return f

    def commit(self) -> None:
        """Rename every file into place, in the order they were opened.

        Every file is closed, and every target checked not to be a
        directory, before the first rename, so a write that fails there or
        a directory in the way leaves every target as it was."""
        for f in self._files:
            f.close()
        for f in self._files:
            if f.path.is_dir():
                raise InputError(f"cannot write {f.path}: {os.strerror(errno.EISDIR)}")
        for f in self._files:
            f.call(os.replace, f.part, f.path)
        self._files, self._made = [], []


def _rows(fmt: str, *columns) -> str:
    """One ``fmt`` row per index of the equal-length ``columns``, filled in
    by a single ``%`` over the interleaved values. Columns of Python numbers
    (``tolist()``) format faster than numpy scalars, to the same text."""
    width = len(columns)
    values = [None] * (width * len(columns[0]))
    for i, column in enumerate(columns):
        values[i::width] = column
    return (fmt * len(columns[0])) % tuple(values)


# ---------------------------------------------------------------------------
# configuration keys: parsed, checked and formatted by their fields' specs


# The config keys, in manifest order. Each row gives the key's
# ``DetectorConfig`` field and, for a nested field, the attribute (or tuple
# index) inside it; then the ``run`` flag that sets the key (None: only a
# config file does) and the flag's help, which ends with the key's domain.
# Defaults are read from ``DetectorConfig()``; the flags' argparse dests are
# the keys.
_KEYS = {
    "mode": ("mode", None, "--mode", None),
    "alpha": ("alpha", None, "--alpha", None),
    "lambda": ("hazard", "lam", "--lambda", "expected run length of the hazard prior"),
    "k_fixed": ("k_fixed", None, "--k", "the most classes fixed-k opens"),
    "beta": ("dirichlet_beta", None, "--beta", "Dirichlet smoothing in fixed-k mode"),
    "eta_mu": ("eta_init", 0, "--eta-mu", None),
    "eta_sigma": ("eta_init", 1, "--eta-sigma", None),
    "decay": ("decay", None, "--decay", None),
    "var_floor": ("var_floor", None, "--var-floor", None),
    "log_var_update": ("log_var_update", None, None, None),
    "candidate_mu": ("candidate", "mu0", None, None),
    "candidate_var": ("candidate", "var_init", None, None),
    "prune_epsilon": (
        "prune", "epsilon", "--prune", "posterior-mass pruning threshold (0 disables)"
    ),
    "prune_top_m": ("prune", "max_live", None, None),
    "cp_mode": ("cp_rule", "mode", None, None),
    "cp_drop_fraction": ("cp_rule", "drop_fraction", None, None),
    "cp_mass_window": ("cp_rule", "mass_window", None, None),
    "cp_mass_threshold": ("cp_rule", "mass_threshold", None, None),
    "baseline_mu0": ("baseline", "mu", None, None),
    "baseline_kappa0": ("baseline", "kappa", None, None),
    "baseline_a0": ("baseline", "a", None, None),
    "baseline_b0": ("baseline", "b", None, None),
    "seed": ("seed", None, "--seed", None),
}
_SPECS = {key: field_spec(DetectorConfig, f, p) for key, (f, p, *_) in _KEYS.items()}

# The keys a manifest carries before the config snapshot, in its order; a
# config file may carry them too, so a manifest can be fed back unchanged.
_INFO_KEYS = ("input", "output_dir", "tool_version", "duration_seconds")


@contextlib.contextmanager
def _reading(path, what: str = ""):
    """A CLI input file: UTF-8 with or without a byte-order mark, with
    lines ended by LF, CR and CRLF only (not the form feed, NEL and others
    ``str.splitlines`` takes). A read, decode or CSV error inside the block
    is an ``InputError`` naming ``what`` and the path."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as f:
            yield f
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read {what}{path}: {exc}") from exc


def _read_kv_file(path) -> tuple[dict, dict]:
    values, info, set_at = {}, {}, {}
    with _reading(path, "config file ") as f:
        for lineno, raw in enumerate(f, 1):
            raw = raw.rstrip("\r\n")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key in set_at:
                raise ConfigError(f"{path}:{lineno}: {key} is also set at line {set_at[key]}")
            set_at[key] = lineno
            if key in _INFO_KEYS:
                info[key] = val
            elif key in _KEYS:
                spec = _SPECS[key]
                try:
                    values[key] = spec.check(key, spec.parse(val))
                except ValueError as exc:
                    msg = f"{path}:{lineno}: bad value for {key}: {val!r}, expected {spec.domain}"
                    raise ConfigError(msg) from exc
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    return values, info


def _config_values(cfg: DetectorConfig) -> dict:
    """Every key's value in a config."""
    fields = dataclasses.asdict(cfg)
    return {key: fields[f] if p is None else fields[f][p] for key, (f, p, *_) in _KEYS.items()}


def _build_config(values: dict) -> DetectorConfig:
    fields: dict = {}
    for key, (field, part, *_) in _KEYS.items():
        if part is None:
            fields[field] = values[key]
        else:
            fields.setdefault(field, {})[part] = values[key]
    for field, parts in fields.items():
        if isinstance(parts, dict):
            item = field_spec(DetectorConfig, field).item  # a config class, or a pair's spec
            fields[field] = item(**parts) if isinstance(item, type) else tuple(parts.values())
    return DetectorConfig(**fields)


def config_to_items(cfg: DetectorConfig) -> list[tuple[str, str]]:
    """Config snapshot as ordered key=value pairs (manifest/config format)."""
    return [(key, _SPECS[key].format(v)) for key, v in _config_values(cfg).items()]


def parse_config(overrides: dict | None = None, config_file=None, cli_defaults: dict | None = None):
    """Resolve the effective configuration: flags override the file, the
    file overrides defaults. Unknown file keys are an error.

    ``cli_defaults`` replace the ``DetectorConfig()`` defaults of the prune
    keys, and apply only when neither prune key is set by the file or a
    flag: the two keys choose one policy together.

    Returns ``(config, info)`` where ``info`` carries any informational
    keys found in the file (input path and the like).
    """
    given, info = ({}, {}) if config_file is None else _read_kv_file(config_file)
    for key, val in (overrides or {}).items():
        if key not in _KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        if val is not None:
            given[key] = _SPECS[key].check(key, val)
    values = _config_values(DetectorConfig())
    if cli_defaults and not {"prune_epsilon", "prune_top_m"} & given.keys():
        values.update(cli_defaults)
    return _build_config(values | given), info


# ---------------------------------------------------------------------------
# manifest


def _manifest(input_path, outdir, duration: float, cfg: DetectorConfig) -> str:
    """Reproducibility record for one run: what it read and where it wrote,
    the tool version and the wall-clock duration, then the config snapshot."""
    info = zip(_INFO_KEYS, (str(input_path), str(outdir), __version__, _fmt(duration)))
    return _rows("%s=%s\n", *zip(*info, *config_to_items(cfg)))


# ---------------------------------------------------------------------------
# CSV reading / trace writing


def _read_column(path, integer: bool = False):
    """Yield the numbers in the first column of a CSV file, in row order,
    each as its row is read; the first non-blank row may be a header.
    Yields nothing if the file holds no data rows. With ``integer`` a value
    with a fraction is an ``InputError``."""
    path = Path(path)
    header = seen = False
    # A quoted field that runs over several lines keeps its line breaks and
    # is refused, not read as the digits of those lines run together.
    with _reading(path) as f:
        for rownum, row in enumerate(csv.reader(f), 1):
            if not row or all(not c.strip() for c in row):
                continue
            cell = row[0].strip()
            try:
                v = float(cell)
            except ValueError:
                if not (seen or header):
                    header = True
                    continue
                msg = f"{path}: row {rownum}: non-numeric value {cell!r}"
                raise InputError(msg) from None
            # Only a quoted field holds a line break: one left open on
            # the last data line runs to the end of the file, where the
            # reader closes it, and float() would strip the break.
            if "\n" in row[0] or "\r" in row[0]:
                raise InputError(f"{path}: row {rownum}: line break in value {row[0]!r}")
            if not math.isfinite(v):
                raise InputError(f"{path}: row {rownum}: non-finite value {cell!r}")
            if integer and not v.is_integer():
                raise InputError(f"{path}: row {rownum}: non-integer value {cell!r}")
            seen = True
            yield v


def _column_blocks(header: str, fmt: str, values: list):
    """A one-column CSV file's text: its header, then blocks of rows."""
    yield header
    for i in range(0, len(values), _BLOCK_ENTRIES):
        yield _rows(fmt, values[i:i + _BLOCK_ENTRIES])


# The trace writer formats its rows a block of steps at a time: formatting
# each step's rows between two detector steps made the cli-fixed-k run
# about 8% slower. A block ends at this many steps or posterior entries,
# so what it holds stays bounded on an unpruned stream too.
_BLOCK_STEPS = 64
_BLOCK_ENTRIES = 8192


class _TraceWriter:
    """Writes ``assignments.csv``, ``runlength_map.csv`` and
    ``posterior.csv`` as steps arrive, a block at a time (:meth:`flush`
    writes the last one). Of each step it keeps only what the later
    outputs read: whether it flagged a change point, the last step's
    output, and, only for the SVG (``svg``), its x, ``z_star`` and
    ``r_star``, appended to 8-byte ``array`` buffers (else None)."""

    FILES = ("assignments.csv", "runlength_map.csv", "posterior.csv")

    def __init__(self, out: _Outputs, svg: bool = False):
        headers = ("t,x,z_star,k_t\n", "t,r_star,cp_flag\n", "t,r,mass\n")
        self._assignments, self._runlength_map, self._posterior = (
            out.write(name, [header]) for name, header in zip(self.FILES, headers)
        )
        self._block: list[tuple] = []
        self._block_entries = 0
        self.x = self.z_star = self.r_star = None
        if svg:
            self.x, self.z_star, self.r_star = array("d"), array("q"), array("q")
        self.change_points: list[int] = []
        self.last: StepOutput | None = None

    def step(self, s: StepOutput, x: float) -> None:
        runs, probs = s.rl_posterior
        self._block.append((s.t, x, s.z_star, s.k_t, s.r_star, s.cp_flag, runs, probs))
        self._block_entries += len(probs)
        if self.x is not None:
            self.x.append(x)
            self.z_star.append(s.z_star)
            self.r_star.append(s.r_star)
        if s.cp_flag:
            self.change_points.append(s.t)
        self.last = s
        if len(self._block) >= _BLOCK_STEPS or self._block_entries >= _BLOCK_ENTRIES:
            self.flush()

    def flush(self) -> None:
        """Write the rows of the steps held since the last flush."""
        if not self._block:
            return
        t, x, z_star, k_t, r_star, cp_flag, runs, probs = zip(*self._block)
        self._assignments.write(_rows("%d,%.17g,%d,%d\n", t, x, z_star, k_t))
        self._runlength_map.write(_rows("%d,%d,%d\n", t, r_star, cp_flag))
        t = np.repeat(t, [p.size for p in probs])
        runs, probs = np.concatenate(runs), np.concatenate(probs)
        shown = probs >= POSTERIOR_FILE_FLOOR
        self._posterior.write(
            _rows("%d,%d,%.17g\n", t[shown].tolist(), runs[shown].tolist(), probs[shown].tolist())
        )
        self._block.clear()
        self._block_entries = 0


# ---------------------------------------------------------------------------
# SVG rendering (hand-rolled: deterministic markup, no external assets)


def _class_color(k: int) -> str:
    hue = (137.508 * (k - 1)) % 360.0
    return f"hsl({hue:.1f},65%,42%)"


def _scale(value, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span <= 0:
        span = 1.0
    return out_lo + (value - lo) * (out_hi - out_lo) / span


def _ticks(lo, hi, n=5):
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


# The SVG is written this many steps' elements at a time, so the text held
# stays bounded on a long run.
_SVG_STEPS = 1024


def render_svg(series, z_star, r_star, change_points, out: _Outputs) -> Path:
    """Two-panel SVG of a run: the signal colored by each step's class
    ``z_star`` on top, the MAP run length ``r_star`` with markers at the
    change points below. Writes ``trace.svg`` into the open group ``out``,
    whose commit renames it into place; returns that path."""
    xs = np.asarray(series, dtype=float)
    z_star, r_star = np.asarray(z_star), np.asarray(r_star)
    if not len(z_star):
        raise ContractViolation("cannot render an empty trace")
    if not len(xs) == len(z_star) == len(r_star):
        raise ContractViolation("series, z_star and r_star differ in length")
    return out.write("trace.svg", _svg_text(xs, z_star, r_star, change_points)).path


def _svg_text(xs, z_star, r_star, change_points):
    """The SVG markup in blocks, each of at most ``_SVG_STEPS`` steps'
    elements. Coordinates are scaled as arrays, elementwise, which gives
    the doubles the same arithmetic gives one value at a time."""
    T = len(xs)
    W, H = 960.0, 680.0
    L, R = 62.0, 944.0
    panels = ((28.0, 310.0), (376.0, 658.0))

    x_lo, x_hi = 1.0, float(max(T, 2))
    y1_lo, y1_hi = float(xs.min()), float(xs.max())
    pad = 0.05 * (y1_hi - y1_lo) or 1.0
    y1_lo, y1_hi = y1_lo - pad, y1_hi + pad
    y2_lo, y2_hi = 0.0, float(r_star.max()) * 1.05 + 1.0

    px = functools.partial(_scale, lo=x_lo, hi=x_hi, out_lo=L, out_hi=R)
    py1 = functools.partial(_scale, lo=y1_lo, hi=y1_hi, out_lo=panels[0][1], out_hi=panels[0][0])
    py2 = functools.partial(_scale, lo=y2_lo, hi=y2_hi, out_lo=panels[1][1], out_hi=panels[1][0])

    def columns(ys, py):
        """Each block's first step index and its x and y pixel columns."""
        for i in range(0, T, _SVG_STEPS):
            y = ys[i:i + _SVG_STEPS]
            yield i, px(np.arange(i + 1.0, i + 1.0 + y.size)).tolist(), py(y).tolist()

    def polyline(ys, py, stroke: str, width: str):
        # Points are separated by a space, so the first block drops its first.
        points = (_rows(" %.2f,%.2f", x, y) for _, x, y in columns(ys, py))
        yield '<polyline points="' + next(points)[1:]
        yield from points
        yield f'" fill="none" stroke="{stroke}" stroke-width="{width}"/>\n'

    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W:.0f}" height="{H:.0f}" '
        f'viewBox="0 0 {W:.0f} {H:.0f}">\n'
        f'<rect x="0" y="0" width="{W:.0f}" height="{H:.0f}" fill="white"/>\n'
    )

    for (top, bot), (lo, hi, py) in zip(panels, ((y1_lo, y1_hi, py1), (y2_lo, y2_hi, py2))):
        yield (
            f'<rect x="{L:.2f}" y="{top:.2f}" width="{R - L:.2f}" height="{bot - top:.2f}" '
            'fill="none" stroke="#222" stroke-width="1"/>\n'
        )
        ticks = _ticks(lo, hi, 4)
        y = py(np.array(ticks))
        yield _rows(
            f'<line x1="{L - 4:.2f}" y1="%.2f" x2="{L:.2f}" y2="%.2f" stroke="#222"/>\n'
            f'<text x="{L - 7:.2f}" y="%.2f" font-size="11" text-anchor="end" '
            'font-family="monospace">%.4g</text>\n',
            y.tolist(), y.tolist(), (y + 4).tolist(), ticks,
        )
        ticks = _ticks(x_lo, float(T), 5)
        x = px(np.array(ticks)).tolist()
        yield _rows(
            f'<line x1="%.2f" y1="{bot:.2f}" x2="%.2f" y2="{bot + 4:.2f}" stroke="#222"/>\n'
            f'<text x="%.2f" y="{bot + 16:.2f}" font-size="11" text-anchor="middle" '
            'font-family="monospace">%.0f</text>\n',
            x, x, x, ticks,
        )
    yield _rows(
        f'<text x="{L:.2f}" y="%d" font-size="12" font-family="monospace">%s</text>\n',
        (18, 366), ("signal, colored by class", "MAP run length"),
    )

    yield from polyline(xs, py1, "#bbb", "1")
    colors: dict[int, str] = {}
    for i, x, y in columns(xs, py1):
        k = z_star[i:i + _SVG_STEPS].tolist()
        colors.update((c, _class_color(c)) for c in set(k).difference(colors))
        yield _rows('<circle cx="%.2f" cy="%.2f" r="2" fill="%s"/>\n', x, y, [*map(colors.get, k)])

    yield from polyline(r_star, py2, "#336", "1.2")
    marker = "".join(
        f'<line x1="%.2f" y1="{top:.2f}" x2="%.2f" y2="{bot:.2f}" '
        'stroke="#c22" stroke-width="1" stroke-dasharray="4,3"/>\n'
        for top, bot in panels
    )
    change_points = np.fromiter(change_points, float)
    for i in range(0, change_points.size, _SVG_STEPS):
        x = px(change_points[i:i + _SVG_STEPS]).tolist()
        yield _rows(marker, x, x, x, x)
    yield "</svg>\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_run(args) -> int:
    overrides = {k: v for k, v in vars(args).items() if k in _KEYS}
    cfg, info = parse_config(
        overrides, args.config, cli_defaults={"prune_epsilon": CLI_DEFAULT_PRUNE_EPSILON}
    )
    input_path = args.input or info.get("input")
    if not input_path:
        raise ConfigError("no input: pass --input or a config file with an input= line")

    outdir = Path(args.out)
    series = _read_column(input_path)
    # Every file is named before the first row is read, so an input that is
    # one of them is refused before any step.
    names = [*_TraceWriter.FILES, "changepoints.csv", "manifest"]
    if args.svg:
        names.append("trace.svg")
    with _Outputs(names, outdir, input_path) as out, contextlib.closing(series):
        start = time.perf_counter()
        trace = _TraceWriter(out, args.svg)
        det = Detector(cfg)
        for x in series:
            trace.step(det.step(x), x)
        if trace.last is None:
            raise InputError(f"{Path(input_path)}: no numeric data rows")
        trace.flush()
        duration = time.perf_counter() - start
        out.write("changepoints.csv", _column_blocks("t\n", "%d\n", trace.change_points))
        out.write("manifest", [_manifest(input_path, outdir, duration, cfg)])
        if args.svg:
            render_svg(trace.x, trace.z_star, trace.r_star, trace.change_points, out)
        out.commit()

    print(f"steps={trace.last.t}")
    print(f"changepoints={len(trace.change_points)}")
    print(f"final_k={trace.last.k_t}")
    print(f"outdir={outdir}")
    return 0


def parse_segments(spec: str) -> list[SegmentSpec]:
    """``LENGTH:MU:VAR[:CLASS]`` groups separated by commas."""
    segments = []
    for i, part in enumerate(spec.split(","), 1):
        fields = part.strip().split(":")
        if len(fields) not in (3, 4):
            raise ConfigError(
                f"segment {i}: expected LENGTH:MU:VAR[:CLASS], got {part.strip()!r}"
            )
        names = ("length", "mu", "var", "class_id")
        try:
            values = {n: field_spec(SegmentSpec, n).parse(v) for n, v in zip(names, fields)}
        except ValueError as exc:
            raise ConfigError(f"segment {i}: bad number in {part.strip()!r}") from exc
        segments.append(SegmentSpec(**({"class_id": i} | values)))
    return segments


def _cmd_synth(args) -> int:
    segments = parse_segments(args.segments)
    seed = _SPECS["seed"].check("seed", args.seed)
    series, cps, _ = gen_piecewise_gaussian(segments, np.random.default_rng(seed))
    names = {"--out": args.out, **({"--truth": args.truth} if args.truth else {})}
    with _Outputs(names) as out:
        out.write(args.out, _column_blocks("x\n", "%.17g\n", series.tolist()))
        if args.truth:
            out.write(args.truth, _column_blocks("t\n", "%d\n", cps))
        out.commit()
    print(f"samples={len(series)}")
    print(f"changepoints={','.join(str(c) for c in cps) if cps else ''}")
    return 0


def score_changepoints(predicted, truth, tolerance: int):
    """Greedy one-to-one matching of predictions to true change points
    within +-tolerance; returns (matched pairs, precision, recall, mean delay)."""
    preds = sorted(predicted)
    used = [False] * len(preds)
    pairs = []
    for t in sorted(truth):
        best = None
        for j, p in enumerate(preds):
            if used[j] or abs(p - t) > tolerance:
                continue
            if best is None or abs(p - t) < abs(preds[best] - t):
                best = j
        if best is not None:
            used[best] = True
            pairs.append((preds[best], t))
    precision = len(pairs) / len(preds) if preds else 0.0
    recall = len(pairs) / len(truth) if truth else 0.0
    delay = (
        sum(p - t for p, t in pairs) / len(pairs) if pairs else float("nan")
    )
    return pairs, precision, recall, delay


def _cmd_score(args) -> int:
    if args.tolerance < 0:
        raise ConfigError("tolerance must be non-negative")
    # A header-only file (as ``run`` and ``synth`` write when there are no
    # change points) reads as none.
    preds, truth = (
        [int(v) for v in _read_column(p, integer=True)] for p in (args.pred, args.truth)
    )
    pairs, precision, recall, delay = score_changepoints(preds, truth, args.tolerance)
    print(f"true_count={len(truth)}")
    print(f"pred_count={len(preds)}")
    print(f"matched={len(pairs)}")
    print(f"precision={_fmt(precision)}")
    print(f"recall={_fmt(recall)}")
    print(f"mean_delay={_fmt(delay)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamcpd",
        description="Streaming Bayesian change-point detection over latent classes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a detector over a CSV series")
    p.add_argument("--input", help="single-column CSV of observations")
    p.add_argument("--config", help="key=value config file (a manifest also works)")
    for key, (*_, flag, text) in _KEYS.items():
        if flag is not None:
            spec = _SPECS[key]
            help_text = spec.domain if text is None else f"{text}: {spec.domain}"
            p.add_argument(flag, dest=key, type=spec.parse, help=help_text)
    p.add_argument("--out", default="streamcpd_out", help="output directory")
    p.add_argument("--svg", action="store_true", help="also render trace.svg")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("synth", help="generate a piecewise-Gaussian series")
    p.add_argument("--segments", required=True, help="LENGTH:MU:VAR[:CLASS],...")
    p.add_argument("--seed", type=_SPECS["seed"].parse, default=0, help=_SPECS["seed"].domain)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--truth", help="also write true change points to this CSV")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("score", help="score predicted change points against truth")
    p.add_argument("--pred", required=True, help="CSV of predicted change-point times")
    p.add_argument("--truth", required=True, help="CSV of true change-point times")
    p.add_argument("--tolerance", type=int, default=10)
    p.set_defaults(func=_cmd_score)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
