"""``repro-exp serve`` with the benchmark's span wrappers installed.

Usage: ``python serve_main.py PARTS_DIR serve [serve flags...]``.  The
traced server writes its spans (sweeps, cache reads, simulations) to
``PARTS_DIR/<pid>.jsonl`` about once a second and when it receives
SIGTERM, then exits; the untraced server is started as plain
``python -m repro.obs.diffrun serve``.
"""

import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer(sys.argv[1])

    def stop(signum, frame):
        tracer.flush()
        os._exit(0)

    signal.signal(signal.SIGTERM, stop)
    from repro.obs import diffrun
    from repro.serve import server  # noqa: F401 — binds run_sweep first

    tracer.install()
    return diffrun.main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
