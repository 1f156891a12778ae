"""The mutation gate: small deliberate faults in ``src/streamcpd/`` that the
tier-1 tests must catch.

Each mutant names a file under ``src/streamcpd/``, the exact text it
replaces and its replacement, the tests expected to kill it, and the change
that recorded it with why it matters. For each mutant the runner copies
``src/`` to a temporary directory, applies the mutant to the copy, and runs
the named killers against it under ``pytest -x``. If they all pass, it runs
the whole of tier-1; a mutant that passes that too survives. Replaced text
that is not found exactly once is an error, so a refactor that moves it
must re-point the mutant. Nothing under ``src/`` is written.

Run from anywhere, with the standard library and the test dependencies:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Exit status 0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ("--continue-on-collection-errors",)


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/streamcpd/
    old: str
    new: str
    killers: tuple[str, ...]
    recorded: str  # the change that recorded it
    why: str


MUTANTS = (
    Mutant(
        "dense-prefix-off-by-one", "crp.py",
        "self._den[: w.size] if dense",
        "self._den[1 : w.size + 1] if dense",
        ("tests/test_acceptance.py::test_c4_invariant_fuzz",),
        "One owner for the NIG conjugate math",
        "the window predictive's denominators on dense run lengths are a prefix slice",
    ),
    Mutant(
        "keep-all-at-the-wrong-index", "runlength.py",
        "if posterior[i_min] < epsilon:",
        "if posterior[-1] < epsilon:",
        ("tests/test_cli_output.py::test_run_files_are_pinned[infinite-threshold]",),
        "One owner for the emission rule",
        "a threshold prune skips its mask only when the smallest entry reaches epsilon",
    ),
    Mutant(
        "window-count-off-by-one", "crp.py",
        "return c[end] - c[end - runs], runs, longest",
        "return c[end] - c[np.maximum(end - runs - 1, 0)], runs, longest",
        ("tests/test_acceptance.py::test_c1_oracle_equivalence",),
        "One owner for the emission rule",
        "a pruned window's label count is a difference of kept prefix counts",
    ),
    Mutant(
        "skipped-window-rebuild", "crp.py",
        "if k != self._hot or lo < self._base:",
        "if k != self._hot:",
        ("tests/test_crp.py::test_run_predictive_grows_its_tables_past_the_longest_window",),
        "One model call per step",
        "a query reaching before the kept counts must rebuild them; no detector run asks one",
    ),
    Mutant(
        "past-cap-row-at-a0", "nig.py",
        "a = p.a + 0.5 * r",
        "a = p.a + 0.0 * r",
        ("tests/test_detector.py::test_run_length_rows_past_cap_match_recurrence",),
        "One owner for the NIG conjugate math",
        "the baseline's rows past the table cap come from closed forms in a",
    ),
    Mutant(
        "top-m-drops-the-first-tied-minimum", "runlength.py",
        "k = n - 1 - posterior[::-1].argmin()",
        "k = posterior.argmin()",
        ("tests/test_runlength.py::test_prune_top_m_matches_a_stable_sort",),
        "One trellis call per step",
        "top-m's steady state must drop what the stable sort drops; the corpus has no ties",
    ),
    Mutant(
        "baseline-columns-mask-shifted", "runlength.py",
        "columns = columns.compress(keep, axis=1)",
        "columns = columns.compress(np.roll(keep, 1), axis=1)",
        ("tests/test_detector.py::test_golden_trace_baseline_threshold_pruned",),
        "One owner for the NIG conjugate math",
        "the baseline's hypothesis columns are pruned by the trellis's own mask",
    ),
    Mutant(
        "no-drop-prune-rescales", "runlength.py",
        "kept_runs, kept_lw = runs, new_lw\n",
        "kept_runs, kept_lw = runs, new_lw - math.log(float(np.add.reduce(posterior)))\n",
        ("tests/test_runlength.py::test_prune_that_drops_nothing_is_the_unpruned_step",),
        "Two fixed costs off every step",
        "a prune that drops nothing leaves the state bit for bit the unpruned step's",
    ),
    Mutant(
        "prefix-drop-skips-the-rescale", "runlength.py",
        "kept_lw = new_lw[:k] - math.log(float(np.add.reduce(posterior[:k])))",
        "kept_lw = new_lw[:k]",
        ("tests/test_runlength.py::test_prune_equals_a_mask_reference",),
        "Two fixed costs off every step",
        "top-m's steady state that drops the last entry folds its mass into the survivors",
    ),
    Mutant(
        "label-recorded-before-its-window", "detector.py",
        "psi = counts.window_predictive(z_star, state.run_lengths, state.dense)\n"
        "        counts.record(z_star)",
        "counts.record(z_star)\n"
        "        psi = counts.window_predictive(z_star, state.run_lengths, state.dense)",
        ("tests/test_cli_output.py::test_run_files_are_pinned[infinite-none]",),
        "One model call per step",
        "the window predictive counts only the earlier labels",
    ),
    Mutant(
        "dense-off-by-one", "runlength.py",
        "self.dense = run_lengths[-1] == run_lengths.size - 1",
        "self.dense = run_lengths[-1] == run_lengths.size",
        ("tests/test_cli_output.py::test_run_files_are_pinned[infinite-threshold]",),
        "One model call per step",
        "run lengths are read by slices only when they are 0..n-1",
    ),
    Mutant(
        "emission-guard-dropped", "emission.py",
        '@np.errstate(over="raise", invalid="raise", divide="ignore")\ndef em_step',
        "def em_step",
        ("tests/test_detector.py::test_float_guard_restores_the_callers_state_and_still_raises",),
        "Two fixed costs off every step",
        "the EM step refuses an overflowing observation whatever the caller's float state",
    ),
    Mutant(
        "baseline-guard-dropped", "nig.py",
        '    @np.errstate(over="raise", invalid="raise")\n    def log_predictive',
        "    def log_predictive",
        ("tests/test_detector.py::test_float_guard_restores_the_callers_state_and_still_raises",),
        "Two fixed costs off every step",
        "the Student-t pass refuses an overflowing observation whatever the caller's float state",
    ),
    Mutant(
        "fixed-k-opens-past-its-cap", "detector.py",
        "if kf is None or k_prev < kf:",
        "if kf is None or k_prev <= kf:",
        ("tests/test_detector.py::test_fixed_k_opens_at_most_k_classes",),
        "One way to open a class",
        "at K classes fixed-k opens no candidate, so k_t and the responsibilities stay at K",
    ),
    Mutant(
        "fixed-k-candidate-mass-unscaled", "detector.py",
        "prior[k_prev] *= kf - k_prev",
        "prior[k_prev] *= 1",
        ("tests/test_detector.py::test_fixed_k_tends_to_infinite_as_k_grows",),
        "One way to open a class",
        "fixed-k's candidate carries the K - n unused classes' Dirichlet mass",
    ),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Apply ``mutant`` to the copy of ``src/`` at ``src``."""
    path = src / "streamcpd" / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise LookupError(f"its text is found {count} times in src/streamcpd/{mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _env(src: Path) -> dict:
    """The environment that imports ``streamcpd`` from ``src``."""
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}


def _pytest(src: Path, args) -> tuple[int, str | None]:
    """pytest's exit code over ``args`` with ``streamcpd`` imported from
    ``src``, and the first test that failed (None if none did)."""
    env = _env(src)
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-profile=mutants", *args]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, failed[0] if failed else None


def check(mutant: Mutant) -> tuple[bool, str]:
    """Whether tier-1 kills ``mutant``, and what was seen."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, src)
        where = subprocess.run(
            [sys.executable, "-c", "import streamcpd; print(streamcpd.__file__)"],
            env=_env(src), capture_output=True, text=True,
        ).stdout.strip()
        if not Path(where).is_relative_to(src):
            raise RuntimeError(f"streamcpd is imported from {where or 'nowhere'}, not the copy")
        code, failed = _pytest(src, mutant.killers)
        if code == 1:
            return True, f"killed by {failed}"
        if code != 0:
            raise RuntimeError(f"its killers did not run (pytest exit {code})")
        code, failed = _pytest(src, TIER1)
        if code == 1:
            return True, f"killed by {failed} in tier-1; its named killers passed"
        if code != 0:
            raise RuntimeError(f"tier-1 did not run (pytest exit {code})")
        return False, "survived tier-1"


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    mutants = [by_name[name] for name in argv] or MUTANTS
    # A killer that fails on the code as it is would kill every mutant.
    killers = sorted({k for m in mutants for k in m.killers})
    code, failed = _pytest(ROOT / "src", killers)
    if code != 0:
        print(f"FAIL the killers do not pass unmutated (pytest exit {code}, {failed})")
        return 1
    ok = True
    for mutant in mutants:
        start = time.perf_counter()
        try:
            killed, seen = check(mutant)
        except (LookupError, RuntimeError) as exc:
            killed, seen = False, f"error: {exc}"
        ok &= killed
        print(f"{'ok  ' if killed else 'FAIL'} {mutant.name} (src/streamcpd/{mutant.file}): "
              f"{seen} [{time.perf_counter() - start:.1f} s]", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
