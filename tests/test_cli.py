import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from streamcpd import (
    CandidatePolicy,
    ChangePointRule,
    ConfigError,
    DetectorConfig,
    HazardConfig,
    InputError,
    NigParams,
    PrunePolicy,
    run,
)
from streamcpd import cli
from streamcpd.cli import (
    _read_column,
    config_to_items,
    main,
    parse_config,
    parse_segments,
    render_svg,
    score_changepoints,
)

from conftest import write_series


def _run_python(code):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout


def test_import_does_not_load_scipy_stats():
    # The runtime needs only numpy: importing the package and the CLI loads
    # no scipy module at all (scipy.special alone costs about 300 ms).
    out = _run_python(
        "import sys, streamcpd, streamcpd.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert out.strip() == "[]"


def test_import_does_not_load_statistics():
    # statistics (and the fractions and decimal it loads) cost several ms
    # of every fresh interpreter; the package loads them only when used.
    out = _run_python(
        "import sys, streamcpd; "
        "print([m for m in ('statistics', 'fractions', 'decimal') if m in sys.modules])"
    )
    assert out.strip() == "[]"


_BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
"""


def test_runs_without_scipy(tmp_path):
    # Every mode and the CLI run end to end with scipy made unimportable.
    code = _BLOCK_SCIPY + f"""
import numpy as np
from streamcpd import DetectorConfig, PrunePolicy, run
from streamcpd.cli import main

series = np.concatenate([np.zeros(30), np.full(30, 6.0)])
series += np.random.default_rng(0).standard_normal(60)
for mode in ("infinite", "fixed-k", "baseline"):
    res = run(series, DetectorConfig(mode=mode, prune=PrunePolicy.threshold(1e-10)))
    assert len(res.steps) == 60, mode
out = {str(tmp_path)!r}
assert main(["synth", "--segments", "40:0:1,40:6:1", "--out", out + "/s.csv"]) == 0
for mode in ("infinite", "fixed-k", "baseline"):
    assert main(["run", "--input", out + "/s.csv", "--mode", mode, "--out", out + "/" + mode, "--svg"]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    assert _run_python(code).splitlines()[-1] == "[]"
    for mode in ("infinite", "fixed-k", "baseline"):
        assert (tmp_path / mode / "trace.svg").is_file()


# -- ingestion -----------------------------------------------------------


def test_ingest_plain_numbers(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1.0\n2.0\n")
    np.testing.assert_array_equal(list(_read_column(p)), [1.0, 2.0])


def test_ingest_skips_header(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("value\n1.0\n")
    np.testing.assert_array_equal(list(_read_column(p)), [1.0])


def test_ingest_uses_first_column(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("t,v\n3.5,9\n4.5,9\n")
    np.testing.assert_array_equal(list(_read_column(p)), [3.5, 4.5])


def test_ingest_crlf_and_quoted_cells(tmp_path):
    # Line ends are kept for the csv reader, so CRLF, blank rows and a
    # quoted cell on one line read as before.
    p = tmp_path / "a.csv"
    p.write_bytes(b'x,y\r\n1.5,a\r\n\r\n"2.5",b\r\n3\r\n')
    np.testing.assert_array_equal(list(_read_column(p)), [1.5, 2.5, 3.0])


def test_ingest_reports_row_number(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1.0\n2.0\noops\n")
    with pytest.raises(InputError, match="row 3"):
        list(_read_column(p))


def test_ingest_empty_file(tmp_path, capsys):
    p = tmp_path / "a.csv"
    p.write_text("value\n")
    assert list(_read_column(p)) == []
    out = tmp_path / "o"
    assert main(["run", "--input", str(p), "--out", str(out)]) == 1
    assert f"error: {p}: no numeric data rows" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_allows_one_header_row(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("t\nvalue\n1.0\n")
    with pytest.raises(InputError, match="row 2"):
        list(_read_column(p))


def test_ingest_missing_file(tmp_path):
    with pytest.raises(InputError):
        list(_read_column(tmp_path / "nope.csv"))


def test_series_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    series = np.concatenate([rng.normal(0, 1e-7, 5), rng.normal(0, 1e9, 5), [np.pi]])
    # Written as synth writes its series.
    p = tmp_path / "s.csv"
    with cli._Outputs() as out:
        out.write(p, cli._column_blocks("x\n", "%.17g\n", series.tolist()))
        out.commit()
    np.testing.assert_array_equal(list(_read_column(p)), series)


# -- config --------------------------------------------------------------


def test_parse_config_defaults():
    cfg, _ = parse_config()
    assert cfg == DetectorConfig()
    assert cfg.alpha == 1.0
    assert cfg.hazard.lam == 1e6
    assert cfg.eta_init == (1.0, 0.02)
    assert cfg.decay == 0.02
    assert cfg.k_fixed == 10


def test_parse_config_file_overrides_defaults(tmp_path):
    f = tmp_path / "cfg"
    f.write_text("alpha=2.5\nmode=fixed-k\n")
    cfg, _ = parse_config(config_file=f)
    assert cfg.alpha == 2.5 and cfg.mode == "fixed-k"


def test_parse_config_flags_override_file(tmp_path):
    f = tmp_path / "cfg"
    f.write_text("alpha=2.5\n")
    cfg, _ = parse_config({"alpha": 3.0}, f)
    assert cfg.alpha == 3.0


def test_parse_config_rejects_unknown_key(tmp_path):
    f = tmp_path / "cfg"
    f.write_text("alhpa=2.5\n")
    with pytest.raises(ConfigError, match="alhpa"):
        parse_config(config_file=f)


def test_parse_config_rejects_bad_value(tmp_path):
    f = tmp_path / "cfg"
    f.write_text("alpha=two\n")
    with pytest.raises(ConfigError):
        parse_config(config_file=f)


def test_parse_config_bad_boolean_names_its_line(tmp_path):
    f = tmp_path / "cfg"
    f.write_text("alpha=2.5\nlog_var_update=maybe\n")
    with pytest.raises(ConfigError) as err:
        parse_config(config_file=f)
    assert f"{f}:2: bad value for log_var_update" in str(err.value)


def test_manifest_round_trips_as_config(tmp_path):
    cfg = DetectorConfig(mode="fixed-k", alpha=0.25, k_fixed=4, seed=9)
    path = tmp_path / "manifest"
    path.write_text(cli._manifest("x.csv", "o", 1.2, cfg))
    cfg2, info = parse_config(config_file=path)
    assert cfg2 == cfg
    assert info["input"] == "x.csv"


# Manifest/config bytes pinned as literals: a format change that the
# round trip would not notice (the same drift on the writing and the reading
# side) fails here.

_DEFAULT_ITEMS = [
    ("mode", "infinite"), ("alpha", "1"), ("lambda", "1000000"), ("k_fixed", "10"),
    ("beta", "1"), ("eta_mu", "1"), ("eta_sigma", "0.02"), ("decay", "0.02"),
    ("var_floor", "9.9999999999999995e-07"), ("log_var_update", "false"),
    ("candidate_mu", "at-observation"), ("candidate_var", "1"), ("prune_epsilon", "0"),
    ("prune_top_m", "0"), ("cp_mode", "map-drop"), ("cp_drop_fraction", "0.5"),
    ("cp_mass_window", "0"), ("cp_mass_threshold", "0.5"), ("baseline_mu0", "0"),
    ("baseline_kappa0", "1"), ("baseline_a0", "1"), ("baseline_b0", "1"), ("seed", "0"),
]

_EVERY_TYPE_CONFIG = DetectorConfig(
    mode="fixed-k",
    alpha=0.25,
    k_fixed=4,
    dirichlet_beta=0.5,
    hazard=HazardConfig(250.0),
    candidate=CandidatePolicy(mu0=-1.5, var_init=3.0),
    eta_init=(0.5, 0.01),
    decay=0.05,
    var_floor=1e-4,
    log_var_update=True,
    prune=PrunePolicy.top_m(50),
    cp_rule=ChangePointRule(
        mode="mass-near-zero", drop_fraction=0.25, mass_window=3, mass_threshold=0.6
    ),
    baseline=NigParams(mu=0.1, kappa=2.0, a=3.0, b=0.7),
    seed=9,
)

_EVERY_TYPE_ITEMS = [
    ("mode", "fixed-k"), ("alpha", "0.25"), ("lambda", "250"), ("k_fixed", "4"),
    ("beta", "0.5"), ("eta_mu", "0.5"), ("eta_sigma", "0.01"),
    ("decay", "0.050000000000000003"), ("var_floor", "0.0001"), ("log_var_update", "true"),
    ("candidate_mu", "-1.5"), ("candidate_var", "3"), ("prune_epsilon", "0"),
    ("prune_top_m", "50"), ("cp_mode", "mass-near-zero"), ("cp_drop_fraction", "0.25"),
    ("cp_mass_window", "3"), ("cp_mass_threshold", "0.59999999999999998"),
    ("baseline_mu0", "0.10000000000000001"), ("baseline_kappa0", "2"), ("baseline_a0", "3"),
    ("baseline_b0", "0.69999999999999996"), ("seed", "9"),
]


@pytest.mark.parametrize(
    "cfg, items",
    [(DetectorConfig(), _DEFAULT_ITEMS), (_EVERY_TYPE_CONFIG, _EVERY_TYPE_ITEMS)],
    ids=["defaults", "every-type"],
)
def test_config_items_are_pinned(tmp_path, cfg, items):
    assert config_to_items(cfg) == items
    f = tmp_path / "cfg"
    f.write_text("".join(f"{k}={v}\n" for k, v in items))
    assert parse_config(config_file=f)[0] == cfg


_FLOAT_KEYS = [k for k, spec in cli._SPECS.items() if spec.domain.startswith("a real number")]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_non_finite_config_value_is_config_error(tmp_path, key, value):
    f = tmp_path / "cfg"
    f.write_text(f"{key}={value}\n")
    with pytest.raises(ConfigError):
        parse_config(config_file=f)


def test_cli_non_finite_flag_exit_code(tmp_path, capsys):
    series = tmp_path / "s.csv"
    write_series([1.0, 2.0], series)
    rc = main(["run", "--input", str(series), "--var-floor", "inf", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "var_floor" in capsys.readouterr().err


def test_config_file_may_set_only_prune_top_m(tmp_path):
    # The CLI's default threshold applies only when neither prune key is
    # set, so a file asking for top-m pruning gets it.
    f = tmp_path / "cfg"
    f.write_text("prune_top_m=50\n")
    cli_defaults = {"prune_epsilon": cli.CLI_DEFAULT_PRUNE_EPSILON}
    cfg, _ = parse_config(config_file=f, cli_defaults=cli_defaults)
    assert cfg.prune == PrunePolicy.top_m(50)
    cfg, _ = parse_config(cli_defaults=cli_defaults)
    assert cfg.prune == PrunePolicy.threshold(cli.CLI_DEFAULT_PRUNE_EPSILON)
    f.write_text("prune_top_m=50\nprune_epsilon=1e-10\n")
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_config(config_file=f, cli_defaults=cli_defaults)


def test_cli_config_with_only_prune_top_m_runs(tmp_path):
    series = tmp_path / "s.csv"
    write_series(np.sin(np.arange(40) / 5.0), series)
    f = tmp_path / "cfg"
    f.write_text(f"input={series}\nprune_top_m=50\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(f), "--out", str(out)]) == 0
    manifest = (out / "manifest").read_text().splitlines()
    assert "prune_top_m=50" in manifest and "prune_epsilon=0" in manifest
    rc = main(["run", "--config", str(f), "--prune", "1e-10", "--out", str(tmp_path / "o2")])
    assert rc == 2
    # --prune 0 sets a zero threshold beside the file's top-m, which stays.
    out = tmp_path / "o3"
    assert main(["run", "--config", str(f), "--prune", "0", "--out", str(out)]) == 0
    manifest = (out / "manifest").read_text().splitlines()
    assert "prune_top_m=50" in manifest and "prune_epsilon=0" in manifest


def test_parse_segments():
    segs = parse_segments("10:0:1,20:5:0.5:7")
    assert [s.length for s in segs] == [10, 20]
    assert segs[1].class_id == 7
    with pytest.raises(ConfigError):
        parse_segments("10:0")


# -- trace files ----------------------------------------------------------


def _cli_run(tmp_path, values, *flags, out="o"):
    """The outdir of ``streamcpd run`` over ``values`` with ``flags``."""
    series, out = tmp_path / "s.csv", tmp_path / out
    write_series(values, series)
    assert main(["run", "--input", str(series), *flags, "--out", str(out)]) == 0
    return out


def _trace_files(result, series) -> dict:
    """The trace files of a library run of ``series``, each row formatted on
    its own from the step's values (``cli._fmt`` gives 17 significant
    digits)."""
    fmt = cli._fmt
    files = {
        "assignments.csv": ["t,x,z_star,k_t\n"],
        "runlength_map.csv": ["t,r_star,cp_flag\n"],
        "posterior.csv": ["t,r,mass\n"],
        "changepoints.csv": ["t\n"] + [f"{t}\n" for t in result.change_points],
    }
    for s, x in zip(result.steps, series):
        files["assignments.csv"].append(f"{s.t},{fmt(x)},{s.z_star},{s.k_t}\n")
        files["runlength_map.csv"].append(f"{s.t},{s.r_star},{int(s.cp_flag)}\n")
        for r, mass in zip(s.rl_posterior.runs, s.rl_posterior.probs):
            if mass >= cli.POSTERIOR_FILE_FLOOR:
                files["posterior.csv"].append(f"{s.t},{int(r)},{fmt(mass)}\n")
    return {name: "".join(rows) for name, rows in files.items()}


def test_emit_row_counts(tmp_path):
    out = _cli_run(tmp_path, np.random.default_rng(0).normal(0, 1, 2))
    lines = (out / "runlength_map.csv").read_text().splitlines()
    assert lines[0] == "t,r_star,cp_flag"
    assert len(lines) == 3


def test_emit_posterior_support_bound(tmp_path):
    out = _cli_run(tmp_path, np.random.default_rng(0).normal(0, 1, 6), "--prune", "0")
    rows = (out / "posterior.csv").read_text().splitlines()[1:]
    per_t = {}
    for row in rows:
        t = int(row.split(",")[0])
        per_t[t] = per_t.get(t, 0) + 1
    assert sorted(per_t) == [1, 2, 3, 4, 5, 6]
    for t, count in per_t.items():
        assert count <= t + 1


def test_emit_is_deterministic(tmp_path):
    values = np.random.default_rng(3).normal(0, 1, 30)
    a = _cli_run(tmp_path, values, "--seed", "3", "--svg", out="a")
    b = _cli_run(tmp_path, values, "--seed", "3", "--svg", out="b")
    for name in ("assignments.csv", "runlength_map.csv", "posterior.csv", "changepoints.csv",
                 "trace.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_emit_rows_match_a_per_value_loop(tmp_path):
    # The CLI's trace rows against the rows formatted one value at a time;
    # on this run some stored posterior entries lie between the readout cut
    # (1e-14) and the file floor (1e-12), so the floor filters them out.
    rng = np.random.default_rng(5)
    series = np.concatenate([rng.normal(0.0, 1.0, 80), rng.normal(-7.0, 2.0, 80)])
    result = run(series, DetectorConfig(mode="baseline"))
    probs = np.concatenate([s.rl_posterior.probs for s in result.steps])
    assert ((probs >= 1e-14) & (probs < cli.POSTERIOR_FILE_FLOOR)).any()

    out = _cli_run(tmp_path, series, "--mode", "baseline", "--prune", "0")
    for name, text in _trace_files(result, series).items():
        assert (out / name).read_text() == text, name


# -- svg --------------------------------------------------------------------


def _render(result, series, outdir):
    """``trace.svg`` of a library run of ``series``, rendered into a group in
    ``outdir``."""
    z_star = [s.z_star for s in result.steps]
    r_star = [s.r_star for s in result.steps]
    with cli._Outputs(outdir) as out:
        path = render_svg(series, z_star, r_star, result.change_points, out)
        out.commit()
    return path


def test_render_svg_empty_trace_writes_nothing(tmp_path):
    from streamcpd import ContractViolation

    with cli._Outputs(tmp_path / "o") as out:
        with pytest.raises(ContractViolation):
            render_svg(np.array([]), [], [], [], out)
    assert not (tmp_path / "o").exists()


def test_render_svg_distinct_class_hues(tmp_path):
    from streamcpd import CandidatePolicy

    rng = np.random.default_rng(1)
    series = np.concatenate([rng.normal(0, 1, 40), rng.normal(10, 1, 40), rng.normal(-10, 1, 40)])
    cfg = DetectorConfig(alpha=0.25, candidate=CandidatePolicy(var_init=2.0), seed=1)
    result = run(series, cfg)
    assert result.final_k == 3
    root = ET.parse(_render(result, series, tmp_path)).getroot()
    hues = {c.get("fill") for c in root.iter("{http://www.w3.org/2000/svg}circle")}
    assert len(hues) == 3


def test_render_svg_is_well_formed_xml(tmp_path):
    series = np.random.default_rng(0).normal(0, 1, 10)
    result = run(series, DetectorConfig())
    ET.parse(_render(result, series, tmp_path))  # raises on malformed markup


# -- scoring ------------------------------------------------------------------


def test_score_perfect_match():
    pairs, precision, recall, delay = score_changepoints([102, 205], [100, 200], 10)
    assert len(pairs) == 2 and precision == 1.0 and recall == 1.0
    assert delay == pytest.approx(3.5)


def test_score_misses_and_false_alarms():
    pairs, precision, recall, _ = score_changepoints([50, 300], [100, 300], 10)
    assert len(pairs) == 1
    assert precision == 0.5 and recall == 0.5


def test_score_empty_predictions():
    pairs, precision, recall, delay = score_changepoints([], [100], 10)
    assert pairs == [] and precision == 0.0 and recall == 0.0


# -- the key table ----------------------------------------------------------

_FLAGS = {key: flag for key, (*_, flag, _) in cli._KEYS.items() if flag is not None}

# For the key of each run flag, a value other than its default and the
# CLI's default threshold.
_FLAG_VALUES = {
    "mode": "fixed-k", "alpha": "0.5", "lambda": "250", "k_fixed": "3", "beta": "0.5",
    "eta_mu": "0.5", "eta_sigma": "0.01", "decay": "0.05", "var_floor": "1e-4",
    "prune_epsilon": "1e-8", "seed": "7",
}


@pytest.mark.parametrize("key", list(_FLAGS))
def test_run_flag_sets_its_key(tmp_path, key):
    # The manifest of a run with the flag differs from one without it in
    # that key's line alone (and in the run-specific lines).
    series = tmp_path / "s.csv"
    write_series(np.sin(np.arange(20) / 3.0), series)
    manifests = []
    for flag in ([], [_FLAGS[key], _FLAG_VALUES[key]]):
        out = tmp_path / f"o{len(manifests)}"
        assert main(["run", "--input", str(series), *flag, "--out", str(out)]) == 0
        lines = (out / "manifest").read_text().splitlines()
        manifests.append({x for x in lines if not x.startswith(("output_dir=", "duration"))})
    spec = cli._SPECS[key]
    line = f"{key}={spec.format(spec.parse(_FLAG_VALUES[key]))}"
    assert manifests[1] - manifests[0] == {line}
    assert len(manifests[0] - manifests[1]) == 1


def test_cli_bad_mode_is_config_error(tmp_path, capsys):
    series, out = tmp_path / "s.csv", tmp_path / "o"
    write_series([0.0, 1.0], series)
    assert main(["run", "--input", str(series), "--mode", "banana", "--out", str(out)]) == 2
    assert "config error: mode must be one of" in capsys.readouterr().err
    assert not out.exists()


def test_run_help_names_every_flag_and_mode(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps help to the terminal
    with pytest.raises(SystemExit) as stop:
        main(["run", "--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    for flag in _FLAGS.values():
        assert f"  {flag} " in text, flag
    for mode in ("infinite", "fixed-k", "baseline"):
        assert mode in text


# -- whole commands ------------------------------------------------------------


def test_cli_pipeline_and_exit_codes(tmp_path, capsys):
    series = tmp_path / "series.csv"
    truth = tmp_path / "truth.csv"
    out = tmp_path / "out"
    assert main([
        "synth", "--segments", "50:0:0.25,50:4:0.25", "--seed", "2",
        "--out", str(series), "--truth", str(truth),
    ]) == 0
    assert main([
        "run", "--input", str(series), "--alpha", "0.5", "--seed", "2",
        "--out", str(out), "--svg",
    ]) == 0
    for name in ("assignments.csv", "runlength_map.csv", "posterior.csv",
                 "changepoints.csv", "manifest", "trace.svg"):
        assert (out / name).exists()
    assert main([
        "score", "--pred", str(out / "changepoints.csv"), "--truth", str(truth),
        "--tolerance", "10",
    ]) == 0
    captured = capsys.readouterr().out
    assert "recall=1" in captured


@pytest.mark.parametrize("segments", ["5:nan:1", "5:0:inf", "5:0:1:0"])
def test_cli_synth_refuses_what_run_would_refuse(tmp_path, capsys, segments):
    out = tmp_path / "s.csv"
    assert main(["synth", "--segments", segments, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("truth", ["s.csv", "./s.csv", "s.csv.part"])
def test_cli_synth_refuses_out_and_truth_naming_one_file(tmp_path, capsys, monkeypatch, truth):
    # Both were written to s.csv.part: the truth over the series' start,
    # which the first rename put in place before the command exited 1. A
    # truth named as the series' part file is refused too.
    monkeypatch.chdir(tmp_path)
    argv = ["synth", "--segments", "5:0:1,5:4:1", "--out", "s.csv", "--truth", truth]
    assert main(argv) == 2
    assert "--out and --truth name the same file" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    (tmp_path / "s.csv").write_text("x\n1\n")
    assert main(argv) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]
    assert (tmp_path / "s.csv").read_text() == "x\n1\n"


def test_cli_synth_negative_seed_is_config_error(tmp_path, capsys):
    out, truth = tmp_path / "s.csv", tmp_path / "t.csv"
    argv = ["synth", "--segments", "5:0:1", "--seed", "-1", "--out", str(out), "--truth", str(truth)]
    assert main(argv) == 2
    assert "config error: seed must be an integer" in capsys.readouterr().err
    assert not out.exists() and not truth.exists()


def test_cli_large_decay_runs_to_the_end(tmp_path):
    series, out = tmp_path / "s.csv", tmp_path / "o"
    assert main(["synth", "--segments", "1000:0:1", "--out", str(series)]) == 0
    argv = ["run", "--input", str(series), "--mode", "fixed-k", "--k", "1", "--decay", "0.9"]
    assert main(argv + ["--out", str(out)]) == 0
    assert len((out / "assignments.csv").read_text().splitlines()) == 1001


def test_cli_score_reads_header_only_changepoint_files(tmp_path, capsys):
    # A single segment: synth writes a header-only truth file and run flags
    # nothing, so it writes a header-only changepoints.csv.
    series, truth, out = tmp_path / "series.csv", tmp_path / "truth.csv", tmp_path / "o"
    assert main([
        "synth", "--segments", "200:0:1", "--seed", "0", "--out", str(series),
        "--truth", str(truth),
    ]) == 0
    assert main(["run", "--input", str(series), "--mode", "baseline", "--out", str(out)]) == 0
    pred = out / "changepoints.csv"
    assert truth.read_text() == pred.read_text() == "t\n"
    other = tmp_path / "other.csv"
    other.write_text("t\n120\n")
    for p, t, counts in [(pred, truth, (0, 0)), (pred, other, (1, 0)), (other, truth, (0, 1))]:
        capsys.readouterr()
        assert main(["score", "--pred", str(p), "--truth", str(t)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"true_count={counts[0]}" in lines and f"pred_count={counts[1]}" in lines
        assert "matched=0" in lines


@pytest.mark.parametrize("text", ["t\n100\nabc\n", "t\nabc\n", "t\ninf\n", None])
def test_cli_score_bad_changepoint_file_is_input_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.csv"
    if text is not None:
        bad.write_text(text)
    good = tmp_path / "good.csv"
    good.write_text("t\n100\n")
    assert main(["score", "--pred", str(bad), "--truth", str(good)]) == 1
    assert main(["score", "--pred", str(good), "--truth", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_score_refuses_fractional_changepoint_times(tmp_path, capsys):
    # 3.7 is not rounded to 4, which would match truth 4 at tolerance 0.
    pred, truth = tmp_path / "pred.csv", tmp_path / "truth.csv"
    pred.write_text("t\n2\n3.7\n")
    truth.write_text("t\n4\n")
    assert main(["score", "--pred", str(pred), "--truth", str(truth), "--tolerance", "0"]) == 1
    assert "row 3" in capsys.readouterr().err


def test_cli_score_reads_integral_and_header_only_files(tmp_path, capsys):
    pred, truth, empty = tmp_path / "pred.csv", tmp_path / "truth.csv", tmp_path / "empty.csv"
    pred.write_text("t\n4.0\n")
    truth.write_text("t\n4\n")
    empty.write_text("t\n")
    assert main(["score", "--pred", str(pred), "--truth", str(truth), "--tolerance", "0"]) == 0
    assert "matched=1" in capsys.readouterr().out.splitlines()
    assert main(["score", "--pred", str(empty), "--truth", str(truth)]) == 0
    assert "pred_count=0" in capsys.readouterr().out.splitlines()


def test_cli_manifest_writes_the_seed_as_given(tmp_path):
    series, out = tmp_path / "s.csv", tmp_path / "o"
    series.write_text("x\n0\n1\n2\n")
    assert main(["run", "--input", str(series), "--seed", "3", "--out", str(out)]) == 0
    assert "seed=3\n" in (out / "manifest").read_text().splitlines(keepends=True)
    assert ("seed", "3") in config_to_items(DetectorConfig(seed=np.int64(3)))


def test_cli_input_error_exit_code(tmp_path):
    assert main(["run", "--input", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("command, data", [
    ("run --input", b"\xff\xfex\n1\n"),
    ("run --input", b"x\n" + b"1" * 200_000 + b"\n"),  # beyond the csv field limit
    ("run --config", b"alpha=1\n\xff\n"),
    ("score --pred", b"t\n\xff\n"),
], ids=["undecodable-input", "huge-cell", "undecodable-config", "undecodable-pred"])
def test_cli_unreadable_input_file_is_input_error(tmp_path, capsys, command, data):
    good, bad, out = tmp_path / "good.csv", tmp_path / "bad", tmp_path / "o"
    write_series([0.0, 1.0], good)
    bad.write_bytes(data)
    argv = {
        "run --input": ["run", "--input", str(bad), "--out", str(out)],
        "run --config": ["run", "--input", str(good), "--config", str(bad), "--out", str(out)],
        "score --pred": ["score", "--pred", str(bad), "--truth", str(good)],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert not out.exists()
    assert not list(tmp_path.rglob("*.part"))


def test_cli_unmatched_quote_is_input_error(tmp_path, capsys):
    # The quoted field runs to the end of the file and keeps its line
    # breaks, so it is refused, not read as the one value 123.
    series, out = tmp_path / "quote.csv", tmp_path / "o"
    series.write_text('x\n"1\n2\n3\n')
    assert main(["run", "--input", str(series), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{series}: row 2: non-numeric value '1\\n2\\n3'" in err
    assert not out.exists()
    assert not list(tmp_path.rglob("*.part"))


@pytest.mark.parametrize("sep", ["\f", "\x1e", "\x85"], ids=["form-feed", "record-sep", "nel"])
def test_cli_rows_end_only_at_line_ends(tmp_path, capsys, sep):
    # str.splitlines also breaks a line at these, which read the two data
    # rows as the three values 1, 2 and 3.
    series, out = tmp_path / "sep.csv", tmp_path / "o"
    series.write_text(f"x\n1{sep}2\n3\n", encoding="utf-8")
    with pytest.raises(InputError, match="row 2: non-numeric value"):
        list(_read_column(series))
    assert main(["run", "--input", str(series), "--out", str(out)]) == 1
    assert f"{series}: row 2: non-numeric value {f'1{sep}2'!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ['x\n1\n"2\n', 'x\r\n1\r\n"2\r\n', 'x\n1\n"2\r'], ids=repr)
def test_cli_unmatched_quote_on_the_last_line_is_input_error(tmp_path, capsys, text):
    # The reader closes the open field at the end of the data, and float()
    # stripped its line break: the file read as [1.0, 2.0].
    series, out = tmp_path / "quote.csv", tmp_path / "o"
    series.write_bytes(text.encode())
    with pytest.raises(InputError, match=r"row 3: line break in value '2(\\r)?(\\n)?'"):
        list(_read_column(series))
    assert main(["run", "--input", str(series), "--out", str(out)]) == 1
    assert f"{series}: row 3: line break" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["infinite", "fixed-k", "baseline"])
@pytest.mark.parametrize("values", [[0.0, 1e200], [1e200, 0.0]])
def test_cli_overflowing_observation_exit_code(tmp_path, capsys, mode, values):
    series = tmp_path / "s.csv"
    write_series(values, series)
    rc = main(["run", "--input", str(series), "--mode", mode, "--out", str(tmp_path / "o")])
    assert rc == 1
    if mode == "baseline":
        # The baseline prior's mean is 0, so 1e200 overflows wherever it comes.
        want = f"t={values.index(1e200) + 1} overflows the baseline model"
    else:
        want = "t=2 overflows the emission model"
    assert want in capsys.readouterr().err


@pytest.mark.parametrize("blocked", ["assignments.csv", "manifest", "trace.svg"])
def test_cli_unwritable_output_file_is_input_error(tmp_path, capsys, blocked):
    # A directory where an output file goes: the write fails, exit code 1.
    series, out = tmp_path / "s.csv", tmp_path / "o"
    write_series([1.0, 2.0, 3.0], series)
    (out / blocked).mkdir(parents=True)
    rc = main(["run", "--input", str(series), "--out", str(out), "--svg"])
    assert rc == 1
    assert f"cannot write {out / blocked}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--out", "--truth"])
def test_cli_synth_into_missing_directory_is_input_error(tmp_path, capsys, flag):
    paths = {"--out": str(tmp_path / "s.csv"), "--truth": str(tmp_path / "t.csv")}
    paths[flag] = str(tmp_path / "nodir" / "x.csv")
    argv = ["synth", "--segments", "20:0:1,20:5:1"]
    assert main(argv + [arg for kv in paths.items() for arg in kv]) == 1
    assert f"cannot write {paths[flag]}" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path):
    series = tmp_path / "s.csv"
    write_series([1.0, 2.0], series)
    bad = tmp_path / "cfg"
    bad.write_text("whatnot=1\n")
    rc = main(["run", "--input", str(series), "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_cli_run_without_input_is_config_error(tmp_path):
    assert main(["run", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "name", ["assignments.csv.part", "assignments.csv", "manifest", "changepoints.csv", "trace.svg"]
)
def test_cli_run_refuses_an_input_it_would_write(tmp_path, capsys, monkeypatch, name):
    # An input that is one of the run's part files was truncated by its
    # opening before a row was read, and an input that is one of its
    # targets was replaced by the trace. Either is now a config error,
    # naming --input, that leaves the input as it was and makes nothing.
    # The files written after the trace are refused before any step too:
    # an input at o/manifest was once stepped through to its end first.
    from streamcpd.detector import Detector

    steps = []
    step = Detector.step

    def counted(self, x):
        steps.append(x)
        return step(self, x)

    monkeypatch.setattr(Detector, "step", counted)
    out = tmp_path / "o"
    out.mkdir()
    p = out / name
    p.write_text("x\n1\n2\n3\n")
    svg = ["--svg"] if name == "trace.svg" else []
    assert main(["run", "--input", str(p), "--out", str(out), *svg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --input and ") and err.rstrip().endswith(name)
    assert p.read_bytes() == b"x\n1\n2\n3\n"
    assert list(out.iterdir()) == [p]
    assert steps == []


def test_cli_manifest_reproduces_run_byte_identical(tmp_path):
    series = tmp_path / "series.csv"
    write_series(np.sin(np.arange(80) / 5.0), series)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--input", str(series), "--seed", "5", "--out", str(out1), "--svg"]) == 0
    assert main(["run", "--config", str(out1 / "manifest"), "--out", str(out2), "--svg"]) == 0
    for name in ("assignments.csv", "runlength_map.csv", "posterior.csv",
                 "changepoints.csv", "trace.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("prune", ["none", "threshold", "top-m"])
@pytest.mark.parametrize("mode", ["infinite", "fixed-k", "baseline"])
def test_cli_files_equal_emit_traces_of_run(tmp_path, mode, prune):
    # The CLI writes its rows as it steps; they equal the rows of the
    # library run of the same config, formatted one at a time, and its SVG
    # equals the one rendered from that run.
    rng = np.random.default_rng(7)
    series = np.concatenate([rng.normal(0, 1, 60), rng.normal(5, 1, 60), rng.normal(-2, 2, 60)])
    path = tmp_path / "s.csv"
    write_series(series, path)
    settings = {"none": "prune_epsilon=0\n", "threshold": "prune_epsilon=1e-10\n",
                "top-m": "prune_top_m=20\n"}
    f = tmp_path / "cfg"
    f.write_text(f"input={path}\nmode={mode}\n" + settings[prune])
    out = tmp_path / "cli"
    assert main(["run", "--config", str(f), "--out", str(out), "--svg"]) == 0

    cfg, _ = parse_config(config_file=f)
    series = list(_read_column(path))
    result = run(series, cfg)
    for name, text in _trace_files(result, series).items():
        assert (out / name).read_text() == text, name
    svg = _render(result, series, tmp_path / "lib")
    assert (out / "trace.svg").read_bytes() == svg.read_bytes()


def test_cli_memory_does_not_grow_with_the_trace(tmp_path):
    # Rows are written as the steps arrive, so the CLI keeps no StepOutput:
    # storing this run's trace peaked at about 41 MB.
    import tracemalloc

    rng = np.random.default_rng(0)
    series = np.concatenate([rng.normal(m, 1, 500) for m in (0, 8, 0)])
    path = tmp_path / "s.csv"
    write_series(series, path)
    argv = ["run", "--input", str(path), "--mode", "baseline", "--out", str(tmp_path / "o")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _snapshot(d):
    return {p.name: p.read_bytes() for p in d.iterdir()}


@pytest.mark.parametrize("refused_at", [4, 100, pytest.param("row 102", id="row-102")])
@pytest.mark.parametrize("mode", ["infinite", "fixed-k", "baseline"])
def test_cli_mid_stream_failure_leaves_the_outdir_as_it_was(tmp_path, capsys, mode, refused_at):
    # 1e200 is refused at t = 4, before any block of rows was written, or
    # at t = 100, after the first; the non-numeric row 102 follows 100
    # values, so it too is read after the first block was written.
    bad = tmp_path / "bad.csv"
    if refused_at == 4:
        bad.write_text("x\n0\n1\n2\n1e200\n3\n")
    elif refused_at == 100:
        write_series(list(np.sin(np.arange(99) / 3.0)) + [1e200, 0.0], bad)
    else:
        write_series(np.sin(np.arange(100) / 3.0), bad)
        with bad.open("a") as f:
            f.write("oops\n")
    fresh = tmp_path / "fresh" / "o"
    argv = ["run", "--input", str(bad), "--mode", mode, "--svg", "--out"]
    assert main(argv + [str(fresh)]) == 1
    if refused_at == "row 102":
        want = f"error: {bad}: row 102: non-numeric value 'oops'"
    else:
        kind = "baseline" if mode == "baseline" else "emission"
        want = f"error: observation at t={refused_at} overflows the {kind} model"
    assert want in capsys.readouterr().err
    assert not (tmp_path / "fresh").exists()

    good = tmp_path / "good.csv"
    write_series(np.sin(np.arange(30) / 3.0), good)
    earlier = tmp_path / "earlier"
    assert main(["run", "--input", str(good), "--mode", mode, "--svg", "--out", str(earlier)]) == 0
    before = _snapshot(earlier)
    assert main(argv + [str(earlier)]) == 1
    assert _snapshot(earlier) == before
    assert not list(tmp_path.rglob("*.part"))


def test_cli_directory_in_the_way_renames_nothing(tmp_path, capsys):
    # An earlier run's files, with a directory where the manifest goes: the
    # manifest is the last of the group, so a rename-as-you-go commit would
    # have put the four new trace files in place before failing on it.
    series = tmp_path / "s.csv"
    write_series(np.sin(np.arange(30) / 3.0), series)
    out = tmp_path / "o"
    assert main(["run", "--input", str(series), "--out", str(out)]) == 0
    (out / "manifest").unlink()
    (out / "manifest").mkdir()
    (out / "manifest" / "note").write_text("kept\n")
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert sorted(before) == sorted(
        ["assignments.csv", "runlength_map.csv", "posterior.csv", "changepoints.csv"]
    )

    write_series(np.cos(np.arange(40) / 3.0), series)
    assert main(["run", "--input", str(series), "--out", str(out)]) == 1
    assert f"cannot write {out / 'manifest'}: " in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
    assert (out / "manifest" / "note").read_text() == "kept\n"
    assert not list(tmp_path.rglob("*.part"))


def test_cli_svg_in_the_way_renames_nothing(tmp_path, capsys):
    # trace.svg joins the group of the trace files and the manifest, so a
    # directory in its way fails the run before any of them is renamed.
    series = tmp_path / "s.csv"
    write_series(np.sin(np.arange(30) / 3.0), series)
    out = tmp_path / "o"
    assert main(["run", "--input", str(series), "--out", str(out)]) == 0
    (out / "trace.svg").mkdir()
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert len(before) == 5

    write_series(np.cos(np.arange(40) / 3.0), series)
    assert main(["run", "--input", str(series), "--svg", "--out", str(out)]) == 1
    assert f"cannot write {out / 'trace.svg'}: " in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
    assert not list(tmp_path.rglob("*.part"))


@pytest.mark.parametrize(
    "line",
    ["alpha=-1", "mode=nope", "lambda=0.5", "prune_top_m=-1"]
    + [
        pytest.param(f"alpha=0.5{brk}mode=baseline", id=name)
        for brk, name in [("\f", "FF"), ("\x85", "NEL"), ("\x1e", "RS"), ("\u2028", "LS")]
    ],
)
def test_cli_config_file_refusal_names_its_line(tmp_path, capsys, line):
    # A value that parses but lies outside its key's domain named no line.
    # As in a CSV, only \n, \r and \r\n end a line: a form feed or a NEL
    # split the last four in two, and the run went on as a baseline one.
    series = tmp_path / "s.csv"
    write_series([0.0, 1.0], series)
    f = tmp_path / "cfg"
    f.write_text(f"input={series}\n{line}\n", encoding="utf-8")
    assert main(["run", "--config", str(f), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{f}:2: bad value for {line.partition('=')[0]}: " in err
    assert not (tmp_path / "o").exists()


def test_cli_config_file_may_start_with_a_byte_order_mark(tmp_path):
    # As a CSV may: the mark made the first key '\ufeffinput', an unknown key.
    series = tmp_path / "s.csv"
    write_series([0.0, 1.0, 2.0], series)
    f = tmp_path / "cfg"
    f.write_text(f"\ufeffinput={series}\r\nmode=baseline\r\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", "--config", str(f), "--out", str(out)]) == 0
    assert "mode=baseline" in (out / "manifest").read_text().splitlines()


@pytest.mark.parametrize(
    "first, again",
    [("alpha=1", " alpha = 2"), ("tool_version=0", "tool_version=1")],
    ids=["config-key", "info-key"],
)
def test_cli_config_file_key_set_twice_names_both_lines(tmp_path, capsys, first, again):
    # A repeated key ran with its last value: alpha=1 then alpha=2 ran, and
    # wrote its manifest, with alpha=2.
    series = tmp_path / "s.csv"
    write_series([0.0, 1.0], series)
    f = tmp_path / "cfg"
    f.write_text(f"{first}\ninput={series}\n# comment\n{again}\n", encoding="utf-8")
    assert main(["run", "--config", str(f), "--out", str(tmp_path / "o")]) == 2
    key = first.partition("=")[0]
    assert f"{f}:4: {key} is also set at line 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "line", ["candidate_var=1e200", "baseline_b0=1e308", "var_floor=1e-150", "baseline_a0=1e200"]
)
def test_cli_config_file_value_the_models_cannot_take_names_its_line(tmp_path, capsys, line):
    # Each parsed into its key's old domain: candidate_var=1e200 was then
    # refused as an overflowing observation at t=1 (exit code 1), and
    # baseline_b0=1e308 by the baseline model, with no line number. Now a
    # field's bounds are what the models need (baseline_a0's keeps a0^2
    # finite).
    test_cli_config_file_refusal_names_its_line(tmp_path, capsys, line)


def test_cli_interrupt_leaves_no_part_file(tmp_path, monkeypatch):
    from streamcpd.detector import Detector

    step = Detector.step

    def interrupted(self, x):
        if self.rl.t == 80:  # after the first block of rows was written
            raise KeyboardInterrupt
        return step(self, x)

    monkeypatch.setattr(Detector, "step", interrupted)
    series, out = tmp_path / "s.csv", tmp_path / "o"
    write_series(np.zeros(100), series)
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--input", str(series), "--out", str(out)])
    assert not out.exists()
    assert not list(tmp_path.rglob("*.part"))
