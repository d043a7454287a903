"""Helpers every workload shares: checkout layout, environment, order
statistics, memory, the host fingerprint and the metric tables.

Nothing here imports ``repro`` at module level: the benchmark must be
able to start (and refuse to run) in a directory that holds only its
own files.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Working space inside the checkout for stores, stack roots, span
#: files and the engine's kernel build cache.
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "burst_jobs_per_s": "jobs/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run): name -> unit.  Every workload
#: reports every name; a layer a workload bypasses reads 0.
PER_LAYER = {
    "engine.calls": "count",
    "engine.requests": "count",
    "engine.busy_s": "s",
    "engine.integrate_s": "s",
    "receiver.measure_s": "s",
    "logic.sat_calls": "count",
    "logic.sat_s": "s",
    "logic.sat_decisions": "count",
    "attacks.oracle_queries": "count",
    "attacks.sat_attack_s": "s",
    "campaigns.execute_s": "s",
    "calibration.dies": "count",
    "calibration.busy_s": "s",
    "calibration.s_per_die": "s",
    "calibration.computes_per_triple": "ratio",
    "calibration.serial_wall_s": "s",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.lock_wait_s": "s",
    "scheduler.task_s": "s",
    "scheduler.worker_busy_share": "ratio",
    "daemon.busy_s": "s",
    "journal.busy_s": "s",
    "tenants.busy_s": "s",
    "http.busy_s": "s",
    "frames.pickle_s": "s",
    "http.submit_p50_s": "s",
    "http.result_p50_s": "s",
    "hop.http_ping_p50_s": "s",
    "hop.http_keepalive_ping_p50_s": "s",
    "hop.gateway_ping_p50_s": "s",
    "hop.daemon_ping_p50_s": "s",
    "fleet.execute_p50_s": "s",
    "service.overhead_p50_s": "s",
    "steady.p50_s": "s",
    "steady.p90_s": "s",
    "attach_p50_s": "s",
    "fresh_p50_s": "s",
    "tenants.refusals": "count",
    "gen.late_max_s": "s",
    "gen.backlog_end": "count",
    "other_s": "s",
    "other_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


class CheckoutError(RuntimeError):
    """The directory the benchmark runs in holds no program to measure."""


def check_checkout() -> None:
    """Refuse to run without the program's sources beside the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(
            f"no program sources at {SRC / 'repro'}; run from a full checkout"
        )


def child_env(extra: dict | None = None) -> dict:
    """Environment for this process and every process it launches:
    the checkout's sources first on the path, and the engine's kernel
    build cache kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["XDG_CACHE_HOME"] = str(BUILD / "cache")
    env.setdefault("PYTHONHASHSEED", "0")
    if extra:
        env.update(extra)
    return env


def enter_checkout_env() -> None:
    """Apply :func:`child_env` to this process before it imports repro."""
    env = child_env()
    os.environ["XDG_CACHE_HOME"] = env["XDG_CACHE_HOME"]
    os.environ["PYTHONPATH"] = env["PYTHONPATH"]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    BUILD.mkdir(parents=True, exist_ok=True)


def build() -> None:
    """Byte-compile the sources and compile (or load the cached) engine
    kernel before anything is timed, as an install would: a build is
    not set-up a user pays on every start."""
    import compileall

    compileall.compile_dir(str(SRC), quiet=1)
    from repro.engine import kernel_available

    kernel_available()


def quantile(values, q: float) -> float:
    """The ``q`` quantile (0 < q < 1) by linear interpolation between
    order statistics (``statistics.quantiles`` inclusive method)."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return float(values[lo] + (values[hi] - values[lo]) * (pos - lo))


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb(include_self: bool) -> float:
    """Peak resident set of the largest process the workload launched:
    waited-for children (and, recursively, theirs), plus this process
    when the workload ran in it.  ``ru_maxrss`` is in KiB on Linux."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if include_self:
        peak = max(peak, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak / 1024.0


def time_ready(argv: list, env: dict, marker: str = "ready",
               timeout: float = 120.0) -> float:
    """Start ``argv``, return the seconds until it prints ``marker`` on
    a line of its own, and wait for it to exit."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=env, cwd=str(ROOT), stdout=subprocess.PIPE, text=True
    )
    try:
        for line in proc.stdout:
            if line.strip() == marker:
                elapsed = time.perf_counter() - start
                break
        else:
            raise RuntimeError(f"{argv} exited before reporting {marker!r}")
        proc.stdout.read()
    finally:
        proc.stdout.close()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited with {proc.returncode}")
    return elapsed


def probe_setup(workload: str, samples: int = 5) -> float:
    """Median seconds a fresh process takes to become ready for the
    workload's first timed operation (``probe.py``)."""
    probe = [sys.executable, str(Path(__file__).with_name("probe.py")),
             workload]
    env = child_env()
    return median([time_ready(probe, env) for _ in range(samples)])


def host_fingerprint() -> dict:
    """What a reader needs to compare two results: CPUs, the engine's
    resolved backend and kernel, thread pinning, Python, commit."""
    from repro.engine import get_default_engine, kernel_available, kernel_simd_width

    engine = get_default_engine()
    resolved = engine.backend
    if resolved == "auto":
        resolved = "vectorized" if kernel_available() else "reference"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
                capture_output=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "backend": resolved,
        "kernel_available": kernel_available(),
        "kernel_simd_width": kernel_simd_width(),
        "REPRO_ENGINE_THREADS": os.environ.get("REPRO_ENGINE_THREADS", ""),
        "python": platform.python_version(),
        "git_commit": commit,
    }


def emit(metrics: dict, units: dict, correct: bool, attempted: int,
         failed: int, host: dict, notes: list) -> None:
    """Print every metric by name with its unit, the host fingerprint
    and the checks, then the one-line JSON result (the last line)."""
    print("host " + json.dumps(host, sort_keys=True))
    for note in notes:
        print(f"check {note}")
    for name in units:
        print(f"metric {name} = {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }), flush=True)
