"""The bytes of every file the CLI writes, and the row formatter that
writes them."""

import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcpd import cli
from streamcpd.cli import main, render_svg
from streamcpd.detector import SparsePosterior, StepOutput

SEGMENTS = "200:0:1,200:5:1,200:-3:2"

PRUNE = {
    "none": "prune_epsilon=0\n",
    "threshold": "",  # the CLI's default threshold, 1e-10
    "top-m": "prune_top_m=20\n",
}

# sha256 of each run's files, in name order, each as its name, a NUL and its
# bytes; the manifest without its duration_seconds and output_dir lines.
# Recorded from the per-row writer that preceded cli._rows.
RUN_SHA256 = {
    ("infinite", "none"):
        "93b7d404374eba14ba9d4b353abe62c7b739648aa234dc518b862e864288041f",
    ("infinite", "threshold"):
        "8daf89783ca82262cd0579e4c6c2269ce260228b2cedbd46e7d2cf0650f164a0",
    ("infinite", "top-m"):
        "605758ad08a3c0cc4c4a24f7e780b20563bf33180db24965e67034468a352212",
    ("fixed-k", "none"):
        "2f8b95c9cec1f609362ff52574dc93bd20acaf921ee51086ffaf76c294fc6ae4",
    ("fixed-k", "threshold"):
        "4053d0ecb6f6925bc343fb84185126c065adf34c2b9f6f9976819be64314c7e5",
    ("fixed-k", "top-m"):
        "04883737e696092440c08c5414a5f62521cdd091c45df2d5fce51bec802600d3",
    ("baseline", "none"):
        "8e697bf27c5495441d66c4007310ee6ff96140962498b168802f062ab00e7b38",
    ("baseline", "threshold"):
        "aedca90d52135e5f52bab0b854b52209fc661b14431b68febac5fc1851f0d573",
    ("baseline", "top-m"):
        "e27106a447d66bb37ba3b8c4f615699731b8bacfbc27daf4f08ba2ae5dac50f4",
}
SYNTH_SHA256 = "f472aa305f12403f145c2e999848578e6d015c5f83543509a2de736442a408d6"


def _digest(files):
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name])
    return h.hexdigest()


def _without_run_specifics(manifest: bytes) -> bytes:
    drop = (b"duration_seconds=", b"output_dir=")
    return b"".join(line for line in manifest.splitlines(True) if not line.startswith(drop))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("synth")
    argv = ["synth", "--segments", SEGMENTS, "--seed", "3", "--out", str(d / "series.csv"),
            "--truth", str(d / "truth.csv")]
    assert main(argv) == 0
    return d


def test_synth_files_are_pinned(synth_dir):
    files = {name: (synth_dir / name).read_bytes() for name in ("series.csv", "truth.csv")}
    assert len(files["series.csv"].splitlines()) == 601
    assert _digest(files) == SYNTH_SHA256


@pytest.mark.parametrize("prune", list(PRUNE))
@pytest.mark.parametrize("mode", ["infinite", "fixed-k", "baseline"])
def test_run_files_are_pinned(synth_dir, tmp_path, monkeypatch, mode, prune):
    # Relative paths, so the manifest's input line does not name tmp_path.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "series.csv").write_bytes((synth_dir / "series.csv").read_bytes())
    (tmp_path / "cfg").write_text(f"input=series.csv\nmode={mode}\n" + PRUNE[prune])
    assert main(["run", "--config", "cfg", "--out", "out", "--svg"]) == 0
    files = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert sorted(files) == ["assignments.csv", "changepoints.csv", "manifest",
                             "posterior.csv", "runlength_map.csv", "trace.svg"]
    files["manifest"] = _without_run_specifics(files["manifest"])
    assert _digest(files) == RUN_SHA256[mode, prune]


# -- the row formatter ---------------------------------------------------------

_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
                   -1.7976931348623157e308, 1.0 - 2.0**-53, 1.0, 1e-12, 0.5, 12345.678901234567]
_FLOATS = st.sampled_from(_SPECIAL_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
_INTS = st.integers(-(2**63), 2**63) | st.booleans()
_KINDS = {"i": _INTS, "f": _FLOATS, "s": st.text(max_size=12)}

# The CLI's row formats, each with the kind of each of its columns.
_FORMATS = [
    ("%d,%.17g,%d,%d\n", "ifii"),
    ("%d,%d,%d\n", "iii"),
    ("%d,%d,%.17g\n", "iif"),
    ("%.17g\n", "f"),
    ("%d\n", "i"),
    ("%s=%s\n", "ss"),
    (" %.2f,%.2f", "ff"),
    ('<circle cx="%.2f" cy="%.2f" r="2" fill="%s"/>\n', "ffs"),
    ('<line x1="%.2f" y1="28.00" x2="%.2f"/>\n<text y="%.2f">%.4g</text>\n', "ffff"),
    ('<line x1="%.2f"/>\n<text x="%.2f">%.0f</text>\n', "fff"),
    ('<text y="%d">%s</text>\n', "is"),
]


@settings(max_examples=300)
@given(data=st.data(), form=st.sampled_from(_FORMATS), n=st.integers(0, 12))
def test_rows_equals_one_format_per_row(data, form, n):
    fmt, kinds = form
    columns = [data.draw(st.lists(_KINDS[k], min_size=n, max_size=n)) for k in kinds]
    assert cli._rows(fmt, *columns) == "".join(fmt % row for row in zip(*columns))


_FLOOR = cli.POSTERIOR_FILE_FLOOR
_MASSES = st.sampled_from(
    [_FLOOR, np.nextafter(_FLOOR, 0.0), np.nextafter(_FLOOR, 1.0), 1e-14, 0.0, 1.0, 0.5]
) | st.floats(0.0, 1.0)


def _parent_rows(block):
    """The trace files' rows by the per-row expressions the writer used to
    run, one format per row (``block`` as the writer holds it)."""
    return (
        "".join(["%d,%.17g,%d,%d\n" % (t, x, z_star, k_t) for t, x, z_star, k_t, *_ in block]),
        "".join([
            f"{t},{r_star},{1 if cp_flag else 0}\n"
            for t, _, _, _, r_star, cp_flag, _, _ in block
        ]),
        "".join([
            "%d,%d,%.17g\n" % (t, r, mass)
            for t, *_, runs, probs in block
            for r, mass in zip(runs.tolist(), probs.tolist())
            if mass >= cli.POSTERIOR_FILE_FLOOR
        ]),
    )


@st.composite
def _steps(draw):
    steps = []
    for t in range(1, draw(st.integers(1, 20)) + 1):
        probs = np.array(draw(st.lists(_MASSES, max_size=6)))
        runs = np.array(sorted(draw(st.sets(st.integers(0, 10**6), min_size=probs.size,
                                            max_size=probs.size))), dtype=np.int64)
        steps.append((
            StepOutput(t=t, z_star=draw(st.integers(1, 50)), k_t=draw(st.integers(1, 50)),
                       r_star=draw(st.integers(0, 10**6)), responsibilities=np.ones(1),
                       rl_posterior=SparsePosterior(runs, probs), cp_flag=draw(st.booleans())),
            draw(_FLOATS),
        ))
    return steps


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("trace")


@settings(max_examples=100, deadline=None)
@given(steps=_steps())
def test_trace_writer_rows_equal_the_per_row_expressions(trace_dir, steps):
    # Masses at the file floor (1e-12) and the doubles on either side of it;
    # blocks of 4 steps, so up to 5 blocks.
    outputs = cli._Outputs(cli._TraceWriter.FILES, trace_dir)
    with mock.patch.object(cli, "_BLOCK_STEPS", 4), outputs as out:
        trace = cli._TraceWriter(out)
        for s, x in steps:
            trace.step(s, x)
        trace.flush()
        out.commit()
    block = [(s.t, x, s.z_star, s.k_t, s.r_star, s.cp_flag, *s.rl_posterior) for s, x in steps]
    want = _parent_rows(block)
    headers = ("t,x,z_star,k_t\n", "t,r_star,cp_flag\n", "t,r,mass\n")
    for name, header, rows in zip(("assignments.csv", "runlength_map.csv", "posterior.csv"),
                                  headers, want):
        assert (trace_dir / name).read_text() == header + rows, name


def test_render_svg_memory_is_bounded(tmp_path):
    # The markup is formatted a bounded number of steps at a time; formatting
    # it whole held about 27 MB at this length.
    T = 100_000
    rng = np.random.default_rng(0)
    series = rng.normal(0.0, 1.0, T)
    z_star = rng.integers(1, 40, T)
    r_star = np.arange(T) % 500
    change_points = list(range(500, T, 500))
    tracemalloc.start()
    try:
        with cli._Outputs(["trace.svg"], tmp_path) as out:
            render_svg(series, z_star, r_star, change_points, out)
            out.commit()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert (tmp_path / "trace.svg").read_text().count("<circle ") == T
