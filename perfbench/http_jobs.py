"""Workload ``http_jobs``: small campaign jobs through the production
path, HTTP -> gateway -> daemon -> 2-worker fleet.

The daemon (``python -m repro.service serve``) and the gateway with
its HTTP facade (``python -m repro.service gateway --http``) are
separate processes; this process only speaks HTTP/JSON to the facade.
Two tenants carry submission and query rate limits far above the
offered load, so the token-bucket and meter code runs on every submit
and every oracle charge without ever refusing.

Jobs are single-cell fabric campaigns with small budgets, so the
service stack, not the cell, is most of each job's cost: scalar
brute-force, genetic and annealing cells, and brute-force cells split
into sub-tasks with ``attack_params.subtask_keys``.  A fifth of the
submissions are identical resubmissions of an earlier job, which
attach to it (running, or finished and journaled) instead of running
again.

A run (``--trace 0``) launches the stack ``LAUNCHES`` times.  Each
launch is one set-up sample (daemon and gateway start, first job
accepted); its ``WARM_JOBS`` then bring the fleet to its steady state
unmeasured, and it takes one *burst*: ``BURST`` fresh jobs of every
kind, a fifth of them attaching, submitted at once, ending when the
last one's result is held.
Job latency is timed from submission of the burst; the run reports the
pooled latencies and the median launch's burst.

Many short launches rather than one long one: on a 2-CPU host how fast
a launched stack runs varies by about a fifth from launch to launch
and stays put for the stack's life (the two fleet workers, the daemon,
the gateway and this process share two CPUs), so a run averages over
launches.

The traced run (``--trace 1``) adds the *steady* phase: an open loop
at ``RATE`` jobs/s (about a third of the burst capacity of a 2-CPU
host) over the scalar kinds for at least ``STEADY_MIN_JOBS`` jobs,
each timed from its due time, with generator lateness and backlog.
Its latencies are per-layer figures, not end-to-end ones: at ~30 ms a
job they are mostly scheduling delay on the shared host, and across
runs they spread by 30-40% — more than any bound may allow.  Split
cells stay out of it: their three tasks in a row made them the slowest
kind, and with a fifth of the jobs the p90 fell inside that one kind.

The generator is one process with two threads (``nproc`` on the 2-CPU
host), each with at most one connection open: the main thread submits
on schedule and one observer long-polls the oldest outstanding job's
result, so observing costs one request per job, not a poll loop.
"""

from __future__ import annotations

import collections
import http.client
import json
import random
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import common
import spans

#: Offered load of the steady phase (jobs/s), and its minimum size.
RATE = 8.0
STEADY_MIN_JOBS = 100
#: Jobs submitted at once per burst.
BURST = 60
#: Jobs that start each stack (the first is the set-up sample).
WARM_JOBS = 13
#: Share of submissions (burst and steady) that repeat an earlier job
#: of the same phase verbatim.
RESUBMIT_SHARE = 0.2
#: Fresh jobs whose report is recomputed in-process and compared.
GATE_SAMPLE = 6
TENANTS = ("acme", "globex")
#: Rate limits per tenant, far above the offered load (per minute).
SUBMITS_PER_MINUTE = 100_000
QUERIES_PER_MINUTE = 100_000_000
SERVICE_WORKERS = 2
#: Stack launches per run: each gives a set-up sample, a share of the
#: steady phase and one burst.
LAUNCHES = 6
HOP_PROBES = 30

HERE = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


KINDS = ("brute-force", "genetic", "annealing", "split")
STEADY_KINDS = KINDS[:3]


def fresh_job(rng: random.Random, seed_base: int, index: int,
              kind: str) -> dict:
    """One fresh single-cell campaign job (request body) of ``kind``.
    The scenario seed is unique per job, so no two fresh jobs share a
    job id."""
    scenario = {
        "chip": {"lot_seed": 2020, "chip_id": rng.randrange(64)},
        "standard_index": rng.randrange(3),
        "n_fft": 1024,
        "seed": seed_base + index,
        "measurement_seed": rng.randrange(1000),
    }
    job = {"type": "campaign", "n_workers": 1}
    if kind == "brute-force":
        scenario["budget"] = 8
        cell = {"attack": "brute-force", "scenario": scenario}
    elif kind == "genetic":
        scenario["budget"] = 8
        cell = {"attack": "genetic", "scenario": scenario,
                "attack_params": {"population_size": 4}}
    elif kind == "annealing":
        scenario["budget"] = 8
        cell = {"attack": "annealing", "scenario": scenario}
    else:
        scenario["budget"] = 16
        cell = {"attack": "brute-force", "scenario": scenario,
                "attack_params": {"subtask_keys": 8}}
        job["n_workers"] = SERVICE_WORKERS
    job["cells"] = [cell]
    return {"tenant": rng.choice(TENANTS), "job": job}


class Job:
    __slots__ = ("body", "kind", "origin", "due", "sent", "submit_s",
                 "job_id", "status", "done", "result")

    def __init__(self, body, kind, origin=None):
        self.body = body
        self.kind = kind        # "fresh" or "attach"
        self.origin = origin    # the fresh Job an attach repeats
        self.due = self.sent = self.done = None
        self.submit_s = None
        self.job_id = None
        self.status = None      # HTTP status of the submit, then the result
        self.result = None

    @property
    def latency(self) -> float:
        return self.done - self.due


def make_jobs(seed: str, n_steady: int):
    """The seeded ``(warm, steady, burst)`` job lists of one stack.

    ``warm`` starts the stack: its first job is the set-up sample, the
    rest bring the fleet to its steady state and are not measured.
    Kinds come in shuffled rounds of one each (the steady phase draws
    from the scalar kinds only), and in the burst and the steady phase
    every fifth submission (at a seeded place in its round of five)
    repeats an earlier job of the same phase, so every seed offers the
    same mix.  The burst is drawn before the steady phase, so it does
    not depend on ``n_steady``."""
    rng = random.Random(seed)
    seed_base = rng.randrange(1 << 20) * 1000
    count = 0

    def jobs(n, pool):
        nonlocal count
        kinds: list = []
        out = []
        for _ in range(n):
            if not kinds:
                kinds.extend(rng.sample(pool, len(pool)))
            out.append(Job(fresh_job(rng, seed_base, count, kinds.pop()), "fresh"))
            count += 1
        return out

    def with_attaches(n, pool):
        period = round(1 / RESUBMIT_SHARE)
        attach_at = {
            block + rng.randrange(1 if block == 0 else 0, period)
            for block in range(0, n, period)
        } & set(range(n))
        fresh = iter(jobs(n - len(attach_at), pool))
        out = []
        for i in range(n):
            if i in attach_at:
                origin = rng.choice([job for job in out if job.kind == "fresh"])
                out.append(Job(origin.body, "attach", origin))
            else:
                out.append(next(fresh))
        return out

    warm = jobs(WARM_JOBS, KINDS)
    burst = with_attaches(BURST, KINDS)
    return warm, with_attaches(n_steady, STEADY_KINDS), burst


# ---------------------------------------------------------------------------
# The stack
# ---------------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def request(port: int, method: str, path: str, body=None,
            timeout: float = 90.0):
    """One HTTP request on its own connection: ``(status, json)``.

    A connection per request, as ``curl`` or ``urllib`` make them.  On
    a kept-alive connection the facade answers each request ~40 ms late
    (its header and body writes meet the client's delayed ACK), which
    would make every figure here a timer; ``hop.http_keepalive_ping_
    p50_s`` keeps that cost visible instead."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, json.loads(data) if data else None
    finally:
        conn.close()


class Stack:
    """A daemon and a gateway with its HTTP facade, on a fresh root."""

    def __init__(self, root: Path, trace_dir: Path | None = None,
                 run_id: str = ""):
        self.root = root
        self.trace_dir = trace_dir
        self.run_id = run_id
        self.procs: list = []
        self.daemon_port = self.gateway_port = self.http_port = None

    def _launch(self, args: list) -> subprocess.Popen:
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "repro.service"] + args
            extra = None
        else:
            argv = [sys.executable, str(HERE / "traced_main.py")] + args
            extra = {spans.TRACE_DIR_ENV: str(self.trace_dir),
                     spans.RUN_ID_ENV: self.run_id}
        log = open(self.root / f"{args[0]}.log", "wb")
        try:
            proc = subprocess.Popen(
                argv, env=common.child_env(extra), cwd=str(common.ROOT),
                stdout=log, stderr=subprocess.STDOUT,
            )
        finally:
            log.close()
        self.procs.append(proc)
        return proc

    def _wait(self, proc, ready, what: str, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while not ready():
            if proc.poll() is not None:
                raise RuntimeError(
                    f"{what} exited with {proc.returncode}; see "
                    f"{self.root}/*.log"
                )
            if time.perf_counter() > deadline:
                raise RuntimeError(f"{what} not ready after {timeout} s")
            time.sleep(0.005)

    def _port_open(self, port: int) -> bool:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
            return True
        except OSError:
            return False

    def _http_up(self) -> bool:
        try:
            return request(self.http_port, "GET", "/v1/ping",
                           timeout=2.0)[0] == 200
        except (OSError, http.client.HTTPException):
            return False

    def start(self, first_job: dict) -> tuple[float, str]:
        """Launch the daemon, then the gateway once the daemon listens
        (so the gateway's first health tick already sees it), then
        submit ``first_job``.  Returns the seconds from launch until
        that job was accepted, and its job id."""
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self.daemon_port = _free_port()
        self.gateway_port = _free_port()
        self.http_port = _free_port()
        tenants = []
        for name in TENANTS:
            tenants += ["--tenant",
                        f"{name}=0::{SUBMITS_PER_MINUTE}:{QUERIES_PER_MINUTE}"]
        start = time.perf_counter()
        daemon = self._launch([
            "serve", "--root", str(self.root),
            "--socket", f"127.0.0.1:{self.daemon_port}",
            "--workers", str(SERVICE_WORKERS), "--name", "bench",
        ] + tenants)
        self._wait(daemon, lambda: self._port_open(self.daemon_port),
                   "daemon")
        gateway = self._launch([
            "gateway", "--root", str(self.root),
            "--backend", f"127.0.0.1:{self.daemon_port}",
            "--socket", f"127.0.0.1:{self.gateway_port}",
            "--http", f"127.0.0.1:{self.http_port}",
        ] + tenants)
        self._wait(gateway, self._http_up, "gateway")
        status, body = request(self.http_port, "POST", "/v1/jobs", first_job)
        if status != 202:
            raise RuntimeError(f"first job refused: {status} {body}")
        return time.perf_counter() - start, body["job_id"]

    def stop(self) -> None:
        """SIGTERM the gateway, then the daemon (which drains and reaps
        its fleet), and wait for both."""
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.terminate()
            try:
                proc.wait(timeout=90)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []


# ---------------------------------------------------------------------------
# The open-loop generator
# ---------------------------------------------------------------------------


class Generator:
    """Submit jobs at their due times; hold results as they complete.

    The main thread submits; one observer thread long-polls the oldest
    outstanding job (``/result?timeout=``).  A job that finishes before
    an older one is held when the older one is — observation stays one
    request per job, never a poll loop.
    """

    def __init__(self, port: int):
        self.port = port
        self.pending: collections.deque = collections.deque()
        self.cond = threading.Condition()
        self.closed = False
        self.thread = threading.Thread(target=self._observe, daemon=True)
        self.thread.start()

    def _observe(self) -> None:
        while True:
            with self.cond:
                self.cond.wait_for(lambda: self.pending or self.closed)
                if not self.pending:
                    return
                job = self.pending[0]
            status, body = request(
                self.port, "GET", f"/v1/jobs/{job.job_id}/result?timeout=30"
            )
            if status == 202:
                continue
            job.done = time.perf_counter()
            job.status = status
            job.result = body
            with self.cond:
                self.pending.popleft()
                self.cond.notify_all()

    def submit(self, job: Job) -> None:
        job.sent = time.perf_counter()
        status, body = request(self.port, "POST", "/v1/jobs", job.body)
        now = time.perf_counter()
        job.submit_s = now - job.sent
        job.status = status
        if status != 202:
            job.done = now
            job.result = body
            return
        job.job_id = body["job_id"]
        with self.cond:
            self.pending.append(job)
            self.cond.notify_all()

    def backlog(self) -> int:
        with self.cond:
            return len(self.pending)

    def drain(self) -> None:
        with self.cond:
            self.cond.wait_for(lambda: not self.pending)

    def close(self) -> None:
        with self.cond:
            self.closed = True
            self.cond.notify_all()
        self.thread.join(timeout=60)


def run_steady(gen: Generator, jobs: list) -> dict:
    start = time.perf_counter() + 0.05
    for i, job in enumerate(jobs):
        job.due = start + i / RATE
        delay = job.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        gen.submit(job)
    backlog = gen.backlog()
    gen.drain()
    return {
        "late_max_s": max(job.sent - job.due for job in jobs),
        "backlog_end": backlog,
    }


def run_burst(gen: Generator, jobs: list) -> float:
    start = time.perf_counter()
    for job in jobs:
        job.due = start
        gen.submit(job)
    gen.drain()
    return max(job.done for job in jobs) - start


def wait_result(port: int, job_id: str) -> None:
    while request(port, "GET", f"/v1/jobs/{job_id}/result?timeout=30")[0] == 202:
        pass


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def _report_bytes(report_dict) -> bytes:
    return json.dumps(report_dict, sort_keys=True).encode()


def check_jobs(jobs: list, seed: int) -> tuple[int, list]:
    """Count wrong or failed jobs: every result is one completed report,
    an attach's report equals its origin's, and a seeded sample of
    fresh reports equals an in-process ``CampaignCell.execute``."""
    from repro.campaigns.serialization import attack_report_to_dict
    from repro.service.http import job_from_json

    bad = []
    for job in jobs:
        reports = (job.result or {}).get("result", {}).get("reports")
        if job.status != 200 or not reports or len(reports) != 1:
            bad.append((job, f"status {job.status}: {job.result}"))
    failed = {id(job) for job, _ in bad}
    ok = [job for job in jobs if id(job) not in failed]

    def report_of(job):
        return _report_bytes(job.result["result"]["reports"][0])

    for job in ok:
        if job.kind == "attach" and (
            id(job.origin) in failed or report_of(job) != report_of(job.origin)
        ):
            bad.append((job, "attached report differs from its origin"))
    fresh = [job for job in ok if job.kind == "fresh"]
    for job in random.Random(seed + 1).sample(
        fresh, min(GATE_SAMPLE, len(fresh))
    ):
        cell = job_from_json(job.body["job"]).cells[0]
        if _report_bytes(attack_report_to_dict(cell.execute())) != report_of(job):
            bad.append((job, "report differs from in-process execute"))
    notes = [f"job {job.job_id}: {why}" for job, why in bad[:5]]
    return len({id(job) for job, _ in bad}), notes


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


def _drive(stack: Stack, warm: list, burst: list, steady=()) -> dict:
    """Launch ``stack`` with the first warm job, warm it up with the
    rest, then run one burst and, when given, the steady phase."""
    setup_s, job_id = stack.start(warm[0].body)
    wait_result(stack.http_port, job_id)
    gen = Generator(stack.http_port)
    stats = {}
    try:
        run_burst(gen, warm[1:])
        start = time.perf_counter()
        burst_wall = run_burst(gen, burst)
        if steady:
            stats = run_steady(gen, steady)
        end = time.perf_counter()
    finally:
        gen.close()
    return {"setup_s": setup_s, "window": (start, end),
            "burst_wall": burst_wall, **stats}


def _hop_p50(call) -> float:
    samples = []
    for _ in range(HOP_PROBES):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return common.median(samples)


def _probe_hops(stack: Stack, steady: list) -> dict:
    """Per-hop latencies and per-job execute seconds, after the run."""
    from repro.service.client import DaemonClient

    port = stack.http_port
    metrics = {"hop.http_ping_p50_s": _hop_p50(
        lambda: request(port, "GET", "/v1/ping"))}
    keepalive = http.client.HTTPConnection("127.0.0.1", port)
    try:
        def ping_keepalive():
            keepalive.request("GET", "/v1/ping")
            keepalive.getresponse().read()

        metrics["hop.http_keepalive_ping_p50_s"] = _hop_p50(ping_keepalive)
    finally:
        keepalive.close()
    gateway = DaemonClient(socket=f"127.0.0.1:{stack.gateway_port}")
    daemon = DaemonClient(socket=f"127.0.0.1:{stack.daemon_port}")
    metrics["hop.gateway_ping_p50_s"] = _hop_p50(gateway.ping)
    metrics["hop.daemon_ping_p50_s"] = _hop_p50(daemon.ping)
    result_s = []
    for job in [j for j in steady if j.status == 200][:HOP_PROBES]:
        start = time.perf_counter()
        request(port, "GET", f"/v1/jobs/{job.job_id}/result?timeout=0")
        result_s.append(time.perf_counter() - start)
    metrics["http.result_p50_s"] = common.median(result_s)
    return metrics


def _execute_seconds(stack: Stack, jobs: list) -> dict:
    """Each fresh job's fleet execute seconds (its events' sum)."""
    execute = {}
    for job in jobs:
        if job.kind == "fresh" and job.status == 200:
            _, body = request(
                stack.http_port, "GET", f"/v1/jobs/{job.job_id}/events?start=0")
            execute[id(job)] = sum(e["seconds"] for e in body["events"])
    return execute


def run(seed: int, seconds: float, traced: bool):
    """Untraced: ``LAUNCHES`` stacks, each launched (a set-up sample),
    warmed and given one burst, so one stack's luck does not decide a
    run.  Traced: one stack's burst untraced, then the same burst and
    the steady phase on a traced stack."""
    if traced:
        return _run_traced(seed, seconds)
    inputs = [make_jobs(f"{seed}/{k}", 0) for k in range(LAUNCHES)]
    base = common.BUILD / f"stack-{seed}"
    launches = []
    try:
        for k, (warm, _, burst) in enumerate(inputs):
            stack = Stack(base / f"launch{k}")
            try:
                launches.append(_drive(stack, warm, burst))
            finally:
                stack.stop()
    finally:
        shutil.rmtree(base, ignore_errors=True)
    jobs = [job for _, _, burst in inputs for job in burst]
    wrong, notes = check_jobs(jobs, seed)
    latencies = [job.latency for job in jobs]
    burst_wall = common.median([d["burst_wall"] for d in launches])
    metrics = {
        "setup_s": common.median([d["setup_s"] for d in launches]),
        "wall_s": burst_wall,
        "job_p50_s": common.median(latencies),
        "job_p90_s": common.quantile(latencies, 0.9),
        "burst_jobs_per_s": BURST / burst_wall,
        "ok_ratio": (len(jobs) - wrong) / len(jobs),
        "peak_rss_mb": common.peak_rss_mb(include_self=False),
    }
    return metrics, wrong == 0, len(jobs), wrong, notes


def _run_traced(seed: int, seconds: float):
    warm, steady, burst = make_jobs(
        f"{seed}/0", max(STEADY_MIN_JOBS, round(RATE * seconds)))
    base = common.BUILD / f"stack-{seed}"
    trace_dir = common.BUILD / f"trace-http-{seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    try:
        stack = Stack(base / "untraced")
        try:
            untraced = _drive(stack, *make_jobs(f"{seed}/0", 0)[::2])
        finally:
            stack.stop()
        stack = Stack(base / "traced", trace_dir, f"http_jobs-{seed}")
        try:
            traced = _drive(stack, warm, burst, steady)
            metrics = _probe_hops(stack, steady)
            execute = _execute_seconds(stack, steady + burst)
        finally:
            stack.stop()
    finally:
        shutil.rmtree(base, ignore_errors=True)

    jobs = steady + burst
    wrong, notes = check_jobs(jobs, seed)
    window = traced["window"]
    collected, counters = spans.collect(trace_dir)
    shutil.rmtree(trace_dir, ignore_errors=True)
    metrics.update(spans.layer_metrics(collected, counters, window))
    fresh_steady = [j for j in steady if id(j) in execute]
    steady_latencies = [j.latency for j in steady]
    task_s = sum(execute.values())
    metrics.update({
        "scheduler.task_s": task_s,
        "scheduler.worker_busy_share": task_s / (
            (window[1] - window[0]) * SERVICE_WORKERS),
        "http.submit_p50_s": common.median([j.submit_s for j in jobs]),
        "fleet.execute_p50_s": common.median(
            [execute[id(j)] for j in fresh_steady]),
        "service.overhead_p50_s": common.median(
            [j.latency - execute[id(j)] for j in fresh_steady]),
        "steady.p50_s": common.median(steady_latencies),
        "steady.p90_s": common.quantile(steady_latencies, 0.9),
        "attach_p50_s": common.median(
            [j.latency for j in steady if j.kind == "attach"]),
        "fresh_p50_s": common.median([j.latency for j in fresh_steady]),
        "tenants.refusals": sum(1 for j in jobs if j.status == 429),
        "gen.late_max_s": traced["late_max_s"],
        "gen.backlog_end": traced["backlog_end"],
        "trace.overhead_ratio": traced["burst_wall"] / untraced["burst_wall"],
    })
    return metrics, wrong == 0, len(jobs), wrong, notes
