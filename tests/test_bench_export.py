"""The benchmark export fires only in sessions whose ``-m`` expression
selects ``bench``: a plain ``pytest`` run (tier-1) collects and runs
the benchmarks too, and must never rewrite the tracked
``BENCH_results.json``."""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The cheapest benchmark: one receiver measurement, timed once.
CHEAP_BENCH = "benchmarks/test_bench_core.py::test_bench_receiver_measurement"


def _run_bench(export, *args):
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = "src" + (os.pathsep + inherited if inherited else "")
    env["REPRO_BENCH_JSON"] = str(export)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         CHEAP_BENCH, *args],
        capture_output=True, text=True, cwd=REPO_ROOT, env=env,
        timeout=600,
    )


def test_export_only_when_the_session_selects_bench(tmp_path):
    export = tmp_path / "bench.json"
    plain = _run_bench(export)
    assert plain.returncode == 0, plain.stdout + plain.stderr
    assert not export.exists()
    bench = _run_bench(export, "-m", "bench")
    assert bench.returncode == 0, bench.stdout + bench.stderr
    assert export.exists()
