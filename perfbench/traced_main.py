"""Run ``python -m repro.service ARGS`` with the span recorder installed.

    python perfbench/traced_main.py serve --root DIR ...

The traced run of ``http_jobs`` starts the daemon and the gateway
through this launcher instead of ``python -m repro.service``; the
program is the same, with its layers' entry points wrapped.  Spans go
to ``$PERFBENCH_TRACE_DIR`` when the process (or a worker it forked)
exits.
"""

from __future__ import annotations

import runpy
import sys

import common
import spans

if __name__ == "__main__":
    common.enter_checkout_env()
    spans.install_from_env()
    sys.argv = ["python -m repro.service"] + sys.argv[1:]
    runpy.run_module("repro.service", run_name="__main__", alter_sys=True)
