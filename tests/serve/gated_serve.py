"""Run ``repro serve`` with every analysis held until a marker file exists.

Usage::

    python tests/serve/gated_serve.py MARKER [serve options...]

The gate wraps ``repro.serve.daemon.analyze_with_fallback`` before the
daemon starts, so forked attempt children inherit it: a job that starts
while MARKER is missing stays wedged in its worker until the marker
appears.  The crash suite uses this to SIGKILL a daemon mid-job.  A
bound on the wait keeps an orphaned child from outliving a failed test
for long.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro import cli
from repro.serve import daemon

GATE_BOUND_SEC = 120.0


def main(argv) -> int:
    marker = Path(argv[0])
    inner = daemon.analyze_with_fallback

    def gated(*args, **kwargs):
        deadline = time.monotonic() + GATE_BOUND_SEC
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        return inner(*args, **kwargs)

    daemon.analyze_with_fallback = gated
    return cli.main(["serve", *argv[1:]])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
