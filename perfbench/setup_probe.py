"""Set-up probe of the streamcpd benchmark, run in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR WORKLOAD

Does what a user does before the first observation can be fed: import
streamcpd and build the workload's configuration and Detector (for a CLI
workload, import ``streamcpd.cli.main``), then prints ``ready`` and exits.
The parent process times it from start to that line.
"""

import sys

sys.path.insert(0, sys.argv[1])

import streamcpd  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

wl = WORKLOADS[sys.argv[2]]
if wl.cli_args is not None:
    from streamcpd.cli import main  # noqa: E402,F401
else:
    streamcpd.Detector(wl.config(streamcpd))
print("ready", flush=True)
