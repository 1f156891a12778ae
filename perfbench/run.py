"""streamcpd benchmark: one closed-loop, single-threaded run of one workload.

Usage, from the root of a streamcpd checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It generates the workload's series from the seed, runs it for about S
seconds, checks every output, and prints each metric by name with its unit.
The last line of its output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Files it writes go to ``.perfbench_out/`` in the checkout. See README.md.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported, here and
# in the set-up probes this process starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    init = SRC / "streamcpd" / "__init__.py"
    if not init.is_file():
        print(f"error: {init} not found; run from the root of a streamcpd checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import streamcpd

    if Path(streamcpd.__file__).resolve() != init.resolve():
        print(f"error: streamcpd imported from {streamcpd.__file__}, not {init}", file=sys.stderr)
        return 2

    from measure import run_benchmark

    wl = WORKLOADS[args.workload]
    res = run_benchmark(
        wl, args.seed, args.seconds, bool(args.trace), SRC, OUT / f"{wl.name}-seed{args.seed}"
    )
    for name, value in res.metrics.items():
        print(f"{name} = {value:.6g} {res.units[name]} (measured {res.measured[name]:.6g})")
    for note in res.notes:
        print(note)
    print(f"trace_sha256 {wl.name} seed={args.seed} {res.sha}")
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n: {"value": v, "unit": res.units[n]} for n, v in res.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
