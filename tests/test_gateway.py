"""Gateway tests: token-bucket rate limits (typed, un-advanced
refusals), rendezvous routing, the gateway differential guard (a
campaign through the gateway is bit-identical to direct-daemon and
in-process runs), stream/cancel/attach proxy semantics, typed failover
of a killed backend (PENDING re-routes, RUNNING strands behind
BackendDown and resumes bit-identically on restart), the JSON-only
HTTP facade, and the ``jobs``/``ping`` CLI verbs."""

import http.client
import json
import os
import pickle
import signal
import socket as socket_module
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
import uuid
from types import SimpleNamespace

import pytest

from repro import faults
from repro.campaigns import CampaignCell, ThreatScenario
from repro.service import (
    BackendDown,
    CampaignJob,
    DaemonClient,
    DaemonUnavailable,
    FoundryDaemon,
    FoundryGateway,
    FoundryHTTPFrontend,
    FoundryService,
    JobCancelled,
    JobStatus,
    RateLimited,
    TenantConfig,
    TenantMeter,
    TokenBucket,
    parse_tenant_spec,
    rendezvous_backend,
)
from repro.service.protocol import encode_payload, recv_frame, send_frame

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def oracle_cells(n: int = 4, budget: int = 6, seed: int = 5) -> tuple:
    """Cheap oracle-only cells (no calibration in the loop)."""
    base = ThreatScenario(budget=budget, n_fft=1024, seed=seed)
    return tuple(
        CampaignCell("brute-force", base.with_(seed=s)) for s in range(n)
    )


def short_socket() -> str:
    """A socket path short enough for AF_UNIX (pytest tmp_path is not)."""
    return os.path.join(
        tempfile.gettempdir(), f"repro-{uuid.uuid4().hex[:10]}.sock"
    )


def report_bytes(reports) -> list:
    """Per-report pickle bytes — the byte-for-byte identity the guards
    compare (see tests/test_daemon.py for why per-report)."""
    return [pickle.dumps(pickle.loads(pickle.dumps(r))) for r in reports]


class FakeClock:
    """Injectable monotonic clock for deterministic bucket tests."""

    def __init__(self, t: float = 0.0):
        self.t = float(t)

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ---------------------------------------------------------------------------
# Token buckets and rate-limited meters
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_parse_tenant_spec_rate_fields(self):
        assert parse_tenant_spec("acme=5:200:30:600") == TenantConfig(
            "acme", priority=5, max_queries=200,
            max_submits_per_minute=30.0, max_queries_per_minute=600.0,
        )
        # Empty fields keep their defaults.
        assert parse_tenant_spec("acme=::30") == TenantConfig(
            "acme", max_submits_per_minute=30.0
        )
        assert parse_tenant_spec("acme=:::600") == TenantConfig(
            "acme", max_queries_per_minute=600.0
        )
        with pytest.raises(ValueError, match="malformed"):
            parse_tenant_spec("acme=1:2:3:4:5")
        with pytest.raises(ValueError, match="must be > 0"):
            TenantConfig("acme", max_submits_per_minute=0)

    def test_take_refuses_typed_and_unadvanced(self, tmp_path):
        clock = FakeClock()
        bucket = TokenBucket(tmp_path / "t.submits", 60.0, tenant="t",
                             kind="submission", clock=clock)
        assert bucket.level() == 60.0  # fresh bucket starts full
        bucket.take(60.0)
        assert bucket.level() == 0.0
        state = bucket.path.read_text()
        with pytest.raises(RateLimited) as err:
            bucket.take(1.0)
        # Typed, names the limit, un-advanced: the state file is
        # byte-identical and retry_after covers the refill exactly.
        assert "rate limit" in str(err.value)
        assert err.value.retry_after == pytest.approx(1.0)
        assert bucket.path.read_text() == state
        clock.advance(30.0)  # refill at 1 token/s
        assert bucket.level() == pytest.approx(30.0)
        bucket.take(30.0)
        with pytest.raises(ValueError, match="negative"):
            bucket.take(-1.0)

    def test_refund_caps_at_capacity(self, tmp_path):
        clock = FakeClock()
        bucket = TokenBucket(tmp_path / "t.submits", 10.0, clock=clock)
        bucket.take(4.0)
        bucket.refund(100.0)
        assert bucket.level() == 10.0
        bucket.refund(-1.0)  # no-op, never raises
        assert bucket.level() == 10.0

    def test_torn_state_file_reads_as_full(self, tmp_path):
        clock = FakeClock()
        bucket = TokenBucket(tmp_path / "t.submits", 10.0, clock=clock)
        bucket.take(10.0)
        bucket.path.write_text("garbage")  # a torn write forfeits debits
        assert bucket.level() == 10.0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_lock_released_despite_child_forked_while_held(self, tmp_path):
        # A worker forked while a connection thread holds a tenant lock
        # inherits the lock's descriptor; leaving the lock must still
        # release it, or the next charge on that tenant blocks forever.
        import fcntl

        from repro.service.tenants import _flock

        path = tmp_path / "t.submits"
        with _flock(path):
            child = os.fork()
            if child == 0:  # pragma: no cover - child only sleeps
                time.sleep(30)
                os._exit(0)
        try:
            fd = os.open(f"{path}.lock", os.O_RDWR)
            try:  # non-blocking: a leaked lock fails here, not hangs
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            finally:
                os.close(fd)
        finally:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)


class TestMeterRateLimits:
    def test_rate_refusal_leaves_meter_and_bucket_unadvanced(self, tmp_path):
        clock = FakeClock()
        meter = TenantMeter(tmp_path / "m.count", max_queries=1000,
                            tenant="t", max_per_minute=60.0, clock=clock)
        meter.charge_batch(60)
        assert meter.n_queries() == 60
        assert meter.bucket.level() == 0.0
        with pytest.raises(RateLimited) as err:
            meter.charge_batch(5)
        assert err.value.retry_after == pytest.approx(5.0)
        # Quota count AND bucket both un-advanced: the chunk can retry
        # after retry_after having consumed nothing.
        assert meter.n_queries() == 60
        assert meter.bucket.level() == 0.0
        clock.advance(5.0)
        meter.charge_batch(5)
        assert meter.n_queries() == 65

    def test_quota_checked_before_bucket(self, tmp_path):
        from repro.attacks.oracle import QueryBudgetExceeded

        clock = FakeClock()
        meter = TenantMeter(tmp_path / "m.count", max_queries=10,
                            tenant="t", max_per_minute=600.0, clock=clock)
        with pytest.raises(QueryBudgetExceeded, match="quota"):
            meter.charge_batch(11)
        assert meter.bucket.level() == 600.0  # quota refusal spent no tokens

    def test_rollback_refunds_rate_tokens(self, tmp_path):
        clock = FakeClock()
        meter = TenantMeter(tmp_path / "m.count", max_queries=None,
                            tenant="t", max_per_minute=60.0, clock=clock)
        meter.begin_task("task-1")
        meter.charge_batch(40)
        assert meter.bucket.level() == pytest.approx(20.0)
        assert meter.rollback_task("task-1") == 40
        # The reclaimed task's charges come back to both records, so a
        # retry debits them again without double-draining.
        assert meter.n_queries() == 0
        assert meter.bucket.level() == pytest.approx(60.0)
        assert meter.rollback_task("task-1") == 0  # idempotent


# ---------------------------------------------------------------------------
# Rendezvous routing
# ---------------------------------------------------------------------------


class TestRendezvous:
    def test_order_independent_and_deterministic(self):
        backends = ["/tmp/a.sock", "/tmp/b.sock", "/tmp/c.sock"]
        for jid in ("j1", "j2", "abc123"):
            pick = rendezvous_backend(jid, backends)
            assert pick in backends
            assert rendezvous_backend(jid, list(reversed(backends))) == pick
            assert rendezvous_backend(jid, backends) == pick  # stable

    def test_removal_remaps_only_the_dead_backends_jobs(self):
        backends = ["/tmp/a.sock", "/tmp/b.sock", "/tmp/c.sock"]
        ids = [f"job-{i}" for i in range(200)]
        owner = {jid: rendezvous_backend(jid, backends) for jid in ids}
        assert set(owner.values()) == set(backends)  # all three used
        dead = "/tmp/b.sock"
        survivors = [b for b in backends if b != dead]
        for jid in ids:
            after = rendezvous_backend(jid, survivors)
            if owner[jid] != dead:
                assert after == owner[jid]  # unaffected jobs stay put
            else:
                assert after in survivors

    def test_no_backends_is_typed(self):
        with pytest.raises(DaemonUnavailable, match="no live backends"):
            rendezvous_backend("j", [])


# ---------------------------------------------------------------------------
# Submission-rate limits over the wire
# ---------------------------------------------------------------------------


@pytest.fixture
def daemon_factory(tmp_path):
    started = []

    def factory(tag="d", root=None, **kwargs):
        kwargs.setdefault("n_workers", 2)
        daemon = FoundryDaemon(
            root if root is not None else tmp_path / tag,
            socket=short_socket(), **kwargs,
        )
        daemon.start()
        started.append(daemon)
        return daemon

    yield factory
    for daemon in started:
        daemon.stop()


class TestSubmitRateOverWire:
    def test_daemon_refuses_typed_and_persists_nothing(self, daemon_factory):
        daemon = daemon_factory(
            "rate",
            tenants=[TenantConfig("acme", max_submits_per_minute=2.0)],
        )
        daemon.clock = FakeClock()
        client = DaemonClient(socket=daemon.address, tenant="acme")
        first = client.submit(CampaignJob(cells=oracle_cells(1), n_workers=1))
        client.submit(CampaignJob(cells=oracle_cells(2), n_workers=1))
        refused = CampaignJob(cells=oracle_cells(3), n_workers=1)
        with pytest.raises(RateLimited, match="rate limit"):
            client.submit(refused)
        # The refusal admitted nothing: the daemon knows two jobs, and
        # the shared bucket was not advanced by the refused attempt.
        assert len(client.jobs()["jobs"]) == 2
        bucket = daemon.submit_bucket(daemon.tenant("acme"))
        assert bucket.level() == 0.0
        # Attaching to a live identical job is free even when the
        # bucket is empty.
        again = client.submit(CampaignJob(cells=oracle_cells(1), n_workers=1))
        assert again.job_id == first.job_id
        # Refill admits the refused job.
        daemon.clock.advance(30.0)
        client.submit(refused).result(timeout=600)
        first.result(timeout=600)

    def test_unlimited_tenant_never_rate_refused(self, daemon_factory):
        daemon = daemon_factory("free")
        client = DaemonClient(socket=daemon.address, tenant="free")
        handles = [
            client.submit(CampaignJob(cells=oracle_cells(1, seed=s),
                                      n_workers=1))
            for s in range(5)
        ]
        for handle in handles:
            handle.result(timeout=600)


# ---------------------------------------------------------------------------
# The gateway: proxying, differential guard, failover
# ---------------------------------------------------------------------------


@pytest.fixture
def cluster(tmp_path):
    """Two named daemons sharing one root, fronted by a gateway."""
    root = tmp_path / "shared"
    daemons = []
    for tag in ("a", "b"):
        daemon = FoundryDaemon(root, socket=short_socket(), n_workers=2,
                               name=tag)
        daemon.start()
        daemons.append(daemon)
    gateway = FoundryGateway(
        root, backends=[d.address for d in daemons],
        socket=short_socket(), health_interval=0.2,
    )
    gateway.start()
    yield SimpleNamespace(
        root=root, daemons=daemons, gateway=gateway,
        client=DaemonClient(socket=gateway.address),
    )
    gateway.stop()
    for daemon in daemons:
        daemon.stop()


class TestGatewayProxy:
    def test_campaign_bitidentical_via_gateway(self, cluster, daemon_factory):
        """The acceptance property: a campaign through the gateway is
        byte-identical to a direct-daemon run and the in-process
        service, per backend, across worker counts."""
        cells = oracle_cells(4)
        direct = daemon_factory("direct", n_workers=4)
        direct_client = DaemonClient(socket=direct.address)
        for backend in ("reference", "vectorized"):
            reference = FoundryService().submit(
                CampaignJob(cells=cells, n_workers=1, backend=backend)
            ).result()
            expected = report_bytes(reference.reports)
            for n_workers in (1, 2, 4):
                job = CampaignJob(cells=cells, n_workers=n_workers,
                                  backend=backend)
                via_gateway = cluster.client.submit(job).result(timeout=600)
                assert report_bytes(via_gateway.reports) == expected
            job = CampaignJob(cells=cells, n_workers=2, backend=backend)
            via_daemon = direct_client.submit(job).result(timeout=600)
            assert report_bytes(via_daemon.reports) == expected

    def test_identical_submission_attaches_to_same_backend(self, cluster):
        job_text = encode_payload(
            CampaignJob(cells=oracle_cells(2), n_workers=1)
        )
        first = cluster.client._request(
            {"op": "submit", "tenant": "default", "job": job_text}
        )
        second = cluster.client._request(
            {"op": "submit", "tenant": "default", "job": job_text}
        )
        assert first["job_id"] == second["job_id"]
        assert first["backend"] == second["backend"]  # rendezvous agrees
        assert second["attached"] is True
        cluster.client.handle(first["job_id"]).result(timeout=600)

    def test_jobs_span_backends_and_ping_aggregates(self, cluster):
        addrs = [d.address for d in cluster.daemons]
        # Force one job onto each backend by picking ids whose
        # rendezvous ranking differs.
        ids = {}
        i = 0
        while len(ids) < 2:
            jid = f"spread-{i}"
            ids.setdefault(rendezvous_backend(jid, addrs), jid)
            i += 1
        handles = [
            cluster.client.submit(
                CampaignJob(cells=oracle_cells(1, seed=n), n_workers=1),
                job_id=jid,
            )
            for n, jid in enumerate(ids.values())
        ]
        for handle in handles:
            handle.result(timeout=600)
        jobs = cluster.client.jobs()["jobs"]
        assert {jobs[jid]["backend"] for jid in ids.values()} == set(addrs)
        info = cluster.client.ping()
        assert info["gateway"] is True
        assert info["name"] == "gateway"
        assert info["workers"] == 4  # 2 + 2, aggregated
        assert sorted(info["backends"]) == sorted(addrs)
        assert all(b["alive"] for b in info["backends"].values())

    def test_cancel_and_resume_replay_via_gateway(self, cluster):
        handle = cluster.client.submit(
            CampaignJob(cells=oracle_cells(6, budget=12), n_workers=1)
        )
        delivered = 0
        for _ in handle.stream():
            delivered += 1
            if delivered == 2:
                assert handle.cancel() is True
        assert 2 <= delivered < 6
        assert handle.status() is JobStatus.CANCELLED
        with pytest.raises(JobCancelled):
            handle.result()
        # Resubmitting through the gateway resumes from the journal on
        # the same backend: replay events for the finished cells.
        resumed = cluster.client.submit(
            CampaignJob(cells=oracle_cells(6, budget=12), n_workers=1)
        )
        kinds = [event.kind for event in resumed.stream()]
        assert kinds.count("replay") >= 2
        assert resumed.status() is JobStatus.COMPLETED

    def test_stream_resumes_through_torn_relay_frames(self, cluster):
        """Frame faults tear connections on both hops (client-gateway
        and gateway-backend); either tear must engage the client's
        reconnect/buffer-replay, never its error path."""
        handle = cluster.client.submit(
            CampaignJob(cells=oracle_cells(4), n_workers=1)
        )
        handle.result(timeout=600)
        baseline = list(handle.stream())
        assert len(baseline) == 4
        standing = faults.active()  # restore any suite-wide chaos plan
        faults.install(
            faults.parse_spec("frame.truncate:every=7;frame.drop:at=3")
        )
        try:
            streamed = list(
                cluster.client.handle(handle.job_id).stream()
            )
        finally:
            faults.install(standing)
        assert streamed == baseline

    def test_single_torn_frame_does_not_fail_over(self, cluster):
        """One torn gateway->backend frame (here: the first health
        ping's) must NOT read as a dead backend — failover strands
        RUNNING jobs, which is reserved for daemons that are really
        gone.  The round-trip retry absorbs it."""
        handle = cluster.client.submit(
            CampaignJob(cells=oracle_cells(2), n_workers=1)
        )
        handle.result(timeout=600)
        standing = faults.active()  # restore any suite-wide chaos plan
        faults.install(faults.parse_spec("frame.truncate:at=1"))
        try:
            cluster.gateway._health_tick()
        finally:
            faults.install(standing)
        assert all(
            cluster.gateway._alive[addr]
            for addr in cluster.gateway.backends
        )
        record = cluster.gateway._records[handle.job_id]
        assert record.stranded is False
        assert handle.status() is JobStatus.COMPLETED

    def test_unknown_job_is_typed(self, cluster):
        with pytest.raises(KeyError, match="unknown job"):
            cluster.client.handle("nope").status()

    def test_raw_protocol_robustness(self, cluster):
        from repro.service.protocol import connect

        sock = connect(cluster.gateway.address, timeout=10)
        try:
            sock.settimeout(10)
            send_frame(sock, {"op": "frobnicate"})
            reply = recv_frame(sock)
            assert reply["ok"] is False
            assert "unknown op" in reply["error"]
            send_frame(sock, {"op": "ping"})
            assert recv_frame(sock)["ok"] is True
        finally:
            sock.close()


class TestServerLifecycle:
    def test_stop_unlinks_a_relative_unix_socket_with_a_colon(
        self, tmp_path, monkeypatch
    ):
        """``d:1.sock`` is a Unix socket path by :func:`parse_address`
        (its port field is not all digits), so ``stop()`` must unlink
        it like any other Unix socket it bound."""
        monkeypatch.chdir(tmp_path)
        address = "d:1.sock"
        gateway = FoundryGateway(
            tmp_path / "groot", backends=["nowhere.sock"], socket=address,
        )
        gateway.start()
        assert os.path.exists(address)
        gateway.stop()
        assert not os.path.exists(address)
        daemon = FoundryDaemon(tmp_path / "droot", socket=address,
                               n_workers=1)
        daemon.start()
        assert os.path.exists(address)
        daemon.stop()
        assert not os.path.exists(address)


class TestGatewayRateLimits:
    def test_gateway_debits_once_and_relays_typed_refusal(self, tmp_path):
        root = tmp_path / "shared"
        clock = FakeClock()
        config = TenantConfig("acme", max_submits_per_minute=2.0)
        daemon = FoundryDaemon(root, socket=short_socket(), n_workers=1,
                               tenants=[config], name="a")
        daemon.clock = clock
        daemon.start()
        gateway = FoundryGateway(root, backends=[daemon.address],
                                 socket=short_socket(), tenants=[config],
                                 health_interval=0.5)
        gateway.clock = clock
        gateway.start()
        try:
            client = DaemonClient(socket=gateway.address, tenant="acme")
            handle = client.submit(
                CampaignJob(cells=oracle_cells(1), n_workers=1)
            )
            # Gateway and backend share one bucket file; the forward is
            # rate-exempt, so one submission cost exactly one token.
            bucket = TokenBucket(root / "tenants" / "acme.submits", 2.0,
                                 clock=clock)
            assert bucket.level() == pytest.approx(1.0)
            client.submit(CampaignJob(cells=oracle_cells(2), n_workers=1))
            with pytest.raises(RateLimited, match="rate limit"):
                client.submit(
                    CampaignJob(cells=oracle_cells(3), n_workers=1)
                )
            assert bucket.level() == pytest.approx(0.0)  # un-advanced
            handle.result(timeout=600)
        finally:
            gateway.stop()
            daemon.stop()


# ---------------------------------------------------------------------------
# Failover: kill one of two backends mid-batch
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestGatewayFailover:
    def _serve(self, root, socket_path, name, env, extra=()):
        # Its own session so a SIGKILL of the group also reaps any
        # SIGSTOPped (hung-fault) fleet worker the daemon leaves behind.
        return subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--root", str(root), "--socket", socket_path,
             "--name", name, *extra],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            cwd=REPO_ROOT, env=env, text=True, start_new_session=True,
        )

    def _killpg(self, proc):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=60)
        if proc.stdout is not None and not proc.stdout.closed:
            proc.stdout.close()

    def _wait(self, predicate, timeout=60.0, message="condition"):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return
            time.sleep(0.1)
        raise AssertionError(f"timed out waiting for {message}")

    def _wait_listening(self, client, proc, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise AssertionError(
                    f"daemon exited early:\n{proc.stdout.read()}"
                )
            try:
                client.ping()
                return
            except OSError:
                time.sleep(0.1)
        raise AssertionError("daemon never started listening")

    def test_killed_backend_loses_no_job(self, tmp_path):
        """Kill one of two backends mid-batch: its PENDING job re-routes
        to the survivor and completes bit-identically; its RUNNING job
        strands behind a typed BackendDown — never a silent re-run —
        and resumes bit-identically when the backend restarts."""
        hang_cells = oracle_cells(3, budget=24)
        pend_cells = oracle_cells(2, budget=6, seed=9)
        ref_hang = FoundryService().submit(
            CampaignJob(cells=hang_cells, n_workers=1)
        ).result()
        ref_pend = FoundryService().submit(
            CampaignJob(cells=pend_cells, n_workers=1)
        ).result()

        root = tmp_path / "shared"
        sock_a, sock_b = short_socket(), short_socket()
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = "src" + (
            os.pathsep + inherited if inherited else ""
        )
        env.pop("REPRO_FAULTS", None)
        env.pop("REPRO_TASK_TIMEOUT", None)
        # Backend b: one worker whose 2nd task freezes (no watchdog),
        # pinning its first job RUNNING, and max_active=1 so its second
        # job stays PENDING — the two failover classes, deterministic.
        env_b = dict(env)
        env_b["REPRO_FAULTS"] = "task.hang:at=2"
        proc_a = self._serve(root, sock_a, "a", env,
                             extra=("--workers", "2"))
        proc_b = self._serve(root, sock_b, "b", env_b,
                             extra=("--workers", "1", "--max-active", "1"))
        gateway = FoundryGateway(root, backends=[sock_a, sock_b],
                                 socket=short_socket(), health_interval=0.2)
        restarted = None
        try:
            self._wait_listening(DaemonClient(socket=sock_a), proc_a)
            self._wait_listening(DaemonClient(socket=sock_b), proc_b)
            gateway.start()
            client = DaemonClient(socket=gateway.address)

            # Job ids that rendezvous onto backend b specifically.
            def routed_to_b(prefix):
                i = 0
                while True:
                    jid = f"{prefix}-{i}"
                    if rendezvous_backend(jid, [sock_a, sock_b]) == sock_b:
                        return jid
                    i += 1

            jid_hang = routed_to_b("hang")
            jid_pend = routed_to_b("pend")
            hang = client.submit(
                CampaignJob(cells=hang_cells, n_workers=1), job_id=jid_hang
            )
            self._wait(
                lambda: hang.status() is JobStatus.RUNNING
                and client._request(
                    {"op": "status", "job_id": jid_hang}
                )["n_events"] >= 1,
                message="first task to land on backend b",
            )
            pend = client.submit(
                CampaignJob(cells=pend_cells, n_workers=1), job_id=jid_pend
            )
            assert pend.status() is JobStatus.PENDING
            # Let a health tick record the statuses that decide
            # re-route-vs-strand, then kill b without ceremony.
            self._wait(
                lambda: cluster_status(client, jid_hang) == "running"
                and cluster_status(client, jid_pend) == "pending",
                message="gateway to observe both jobs",
            )
            self._killpg(proc_b)
            # Failover runs inside the next health tick: wait for the
            # routing table to settle (PENDING job on the survivor, the
            # RUNNING one stranded) before querying through it.
            self._wait(
                lambda: (
                    client.jobs()["jobs"].get(jid_pend, {}).get("backend")
                    == sock_a
                    and client.jobs()["jobs"].get(jid_hang, {}).get(
                        "stranded"
                    ) is True
                ),
                message="failover to re-route and strand",
            )

            # The PENDING job re-routed to the survivor and completes
            # bit-identically (same journal root, nothing recomputes).
            result_pend = pend.result(timeout=600)
            assert report_bytes(result_pend.reports) == report_bytes(
                ref_pend.reports
            )

            # The RUNNING job is stranded behind a typed error — its
            # partial work is journaled, never silently re-run.
            with pytest.raises(BackendDown, match="journaled"):
                hang.status()

            # Restart b (no fault plan): it recovers its own journaled
            # job, resumes it, and the gateway routes to it again.
            restarted = self._serve(root, sock_b, "b", env,
                                    extra=("--workers", "1"))
            self._wait_listening(DaemonClient(socket=sock_b), restarted)
            self._wait(
                lambda: gateway._alive.get(sock_b, False),
                message="gateway to mark backend b up",
            )
            result_hang = hang.result(timeout=600)
            assert report_bytes(result_hang.reports) == report_bytes(
                ref_hang.reports
            )
            events = list(hang.stream())
            assert len(events) == len(hang_cells)
            assert sum(1 for e in events if e.kind == "replay") >= 1
        finally:
            gateway.stop()
            self._killpg(proc_a)
            if restarted is not None:
                self._killpg(restarted)
            if proc_b.poll() is None:
                self._killpg(proc_b)


def cluster_status(client, job_id):
    jobs = client.jobs()["jobs"]
    return jobs.get(job_id, {}).get("status")


# ---------------------------------------------------------------------------
# The JSON-only HTTP facade
# ---------------------------------------------------------------------------


def http_request(address, method, path, body=None, headers=()):
    """One HTTP round trip; returns (status, parsed JSON body)."""
    request = urllib.request.Request(
        f"http://{address}{path}", method=method,
        data=None if body is None else json.dumps(body).encode(),
        headers={"Content-Type": "application/json", **dict(headers)},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


CAMPAIGN_JSON = {
    "type": "campaign",
    "n_workers": 1,
    "cells": [
        {"attack": "brute-force",
         "scenario": {"budget": 6, "n_fft": 1024, "seed": s}}
        for s in range(2)
    ],
}


@pytest.fixture
def frontend(cluster):
    front = FoundryHTTPFrontend(backend=cluster.gateway.address,
                                max_wait=120.0)
    front.start()
    yield SimpleNamespace(address=front.address, cluster=cluster)
    front.stop()


class TestHTTPFacade:
    def test_submit_poll_result_matches_direct_run(self, frontend):
        from repro.campaigns.serialization import attack_report_to_dict

        status, reply = http_request(
            frontend.address, "POST", "/v1/jobs", {"job": CAMPAIGN_JSON}
        )
        assert status == 202
        job_id = reply["job_id"]
        assert reply["status_url"] == f"/v1/jobs/{job_id}"
        status, result = http_request(
            frontend.address, "GET",
            f"/v1/jobs/{job_id}/result?timeout=115",
        )
        assert status == 200 and result["status"] == "completed"
        # The reports payload is byte-comparable across transports:
        # identical JSON to serializing an in-process run directly.
        cells = tuple(
            CampaignCell(
                "brute-force",
                ThreatScenario(budget=6, n_fft=1024, seed=s),
            )
            for s in range(2)
        )
        reference = FoundryService().submit(
            CampaignJob(cells=cells, n_workers=1)
        ).result()
        assert json.dumps(
            result["result"]["reports"], sort_keys=True
        ) == json.dumps(
            [attack_report_to_dict(r) for r in reference.reports],
            sort_keys=True,
        )
        # The HTTP submission derived the same job id a frame-protocol
        # submission of the logical job would: the frame client attaches.
        attach = frontend.cluster.client.submit(
            CampaignJob(cells=cells, n_workers=1)
        )
        assert attach.job_id == job_id

    def test_events_poll_is_bounded(self, frontend):
        status, reply = http_request(
            frontend.address, "POST", "/v1/jobs", {"job": CAMPAIGN_JSON}
        )
        job_id = reply["job_id"]
        http_request(
            frontend.address, "GET",
            f"/v1/jobs/{job_id}/result?timeout=115",
        )
        status, page = http_request(
            frontend.address, "GET", f"/v1/jobs/{job_id}/events?start=0"
        )
        assert status == 200
        assert len(page["events"]) == 2
        assert page["next"] == 2
        assert {e["kind"] for e in page["events"]} <= {"cell", "replay"}
        assert all("payload" in e for e in page["events"])
        status, rest = http_request(
            frontend.address, "GET",
            f"/v1/jobs/{job_id}/events?start={page['next']}",
        )
        assert status == 200 and rest["events"] == []

    def test_schema_refusals_are_400(self, frontend):
        cases = [
            ({"job": {"type": "campaign", "cells": []}}, "non-empty"),
            ({"job": {"type": "warfare"}}, "job.type"),
            ({"job": {"type": "campaign",
                      "cells": [{"attack": "zero-day"}]}}, "unknown"),
            ({"job": {"type": "campaign", "journal": "/etc/passwd",
                      "cells": [{"attack": "brute-force"}]}},
             "server-side"),
            ({"job": {"type": "campaign",
                      "cells": [{"attack": "brute-force",
                                 "scenario": {"scheme": "nope"}}]}},
             "scheme"),
            ({"job": {"type": "campaign",
                      "cells": [{"attack": "brute-force",
                                 "attack_params": {"x": [1, 2]}}]}},
             "scalar"),
            ({"job": CAMPAIGN_JSON, "surprise": 1}, "unknown field"),
            # Checked by the job's own validate(): refused at submit,
            # never accepted (202) and failed later, and never the 404
            # that means "unknown job id".
            ({"job": dict(CAMPAIGN_JSON, backend="bogus")}, "bogus"),
            ({"job": {"type": "experiment", "backend": "bogus"}}, "bogus"),
            ({"job": {"type": "experiment", "names": ["fig99"]}}, "fig99"),
        ]
        for body, needle in cases:
            status, reply = http_request(
                frontend.address, "POST", "/v1/jobs", body
            )
            assert status == 400, (body, reply)
            assert reply["kind"] == "SchemaError"
            assert needle in reply["error"]

    def test_unknown_job_and_route_are_404(self, frontend):
        status, reply = http_request(frontend.address, "GET", "/v1/jobs/nope")
        assert status == 404
        status, reply = http_request(frontend.address, "GET", "/v2/everything")
        assert status == 404 and reply["kind"] == "NotFound"

    def test_tenant_header_scopes_job_ids(self, frontend):
        body = {"job": CAMPAIGN_JSON}
        _, anon = http_request(frontend.address, "POST", "/v1/jobs", body)
        _, acme = http_request(
            frontend.address, "POST", "/v1/jobs", body,
            headers={"X-Repro-Tenant": "acme"},
        )
        assert anon["job_id"] != acme["job_id"]
        for reply in (anon, acme):
            http_request(
                frontend.address, "GET",
                f"/v1/jobs/{reply['job_id']}/result?timeout=115",
            )

    def test_cancel_endpoint(self, frontend):
        _, reply = http_request(
            frontend.address, "POST", "/v1/jobs", {"job": CAMPAIGN_JSON}
        )
        job_id = reply["job_id"]
        http_request(
            frontend.address, "GET", f"/v1/jobs/{job_id}/result?timeout=115"
        )
        status, reply = http_request(
            frontend.address, "POST", f"/v1/jobs/{job_id}/cancel"
        )
        assert status == 200
        assert reply["cancelled"] is False  # already terminal

    def test_keepalive_requests_do_not_stall(self, frontend):
        """A reply goes out as two writes (headers, then body); with
        Nagle's algorithm on, every request on a kept-alive connection
        waited out the client's delayed ACK (~40 ms).  The handler
        disables Nagle, so requests stay well under 20 ms."""
        host, port = frontend.address.rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=60)
        samples = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                conn.request("GET", "/v1/ping")
                response = conn.getresponse()
                assert response.status == 200
                json.loads(response.read())
                samples.append(time.perf_counter() - start)
        finally:
            conn.close()
        assert statistics.median(samples) < 0.02, samples

    def test_rate_limited_submission_is_429(self, tmp_path):
        clock = FakeClock()
        daemon = FoundryDaemon(
            tmp_path / "r429", socket=short_socket(), n_workers=1,
            tenants=[TenantConfig("acme", max_submits_per_minute=1.0)],
        )
        daemon.clock = clock
        daemon.start()
        front = FoundryHTTPFrontend(backend=daemon.address, tenant="acme")
        front.start()
        try:
            status, first = http_request(
                front.address, "POST", "/v1/jobs", {"job": CAMPAIGN_JSON}
            )
            assert status == 202
            refused = dict(
                CAMPAIGN_JSON,
                cells=[{"attack": "brute-force",
                        "scenario": {"budget": 6, "n_fft": 1024, "seed": 7}}],
            )
            status, reply = http_request(
                front.address, "POST", "/v1/jobs", {"job": refused}
            )
            assert status == 429
            assert reply["kind"] == "RateLimited"
            assert "retry_after" in reply
            http_request(
                front.address, "GET",
                f"/v1/jobs/{first['job_id']}/result?timeout=115",
            )
        finally:
            front.stop()
            daemon.stop()


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------


class TestCLIVerbs:
    def _run(self, *args):
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = "src" + (
            os.pathsep + inherited if inherited else ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.service", *args],
            capture_output=True, text=True, cwd=REPO_ROOT, env=env,
            timeout=120,
        )

    def test_ping_and_jobs_against_live_daemon(self, daemon_factory):
        daemon = daemon_factory("cli", n_workers=1)
        client = DaemonClient(socket=daemon.address)
        client.submit(
            CampaignJob(cells=oracle_cells(1), n_workers=1)
        ).result(timeout=600)
        ping = self._run("ping", "--socket", daemon.address)
        assert ping.returncode == 0
        assert ping.stdout.startswith("daemon pid ")
        jobs = self._run("jobs", "--socket", daemon.address)
        assert jobs.returncode == 0
        assert "completed (1 events)" in jobs.stdout

    def test_ping_unreachable_exits_nonzero(self):
        result = self._run("ping", "--socket", short_socket())
        assert result.returncode == 1
        assert "unreachable" in result.stderr

    def test_jobs_empty(self, daemon_factory):
        daemon = daemon_factory("cli2", n_workers=1)
        result = self._run("jobs", "--socket", daemon.address)
        assert result.returncode == 0
        assert result.stdout.strip() == "no jobs"


# ---------------------------------------------------------------------------
# Protocol satellite: clean EOF mid-length-prefix
# ---------------------------------------------------------------------------


class TestFrameEOF:
    def test_close_mid_length_prefix_is_clean_eof(self):
        """A peer closing after part of the 4-byte length prefix is a
        clean hangup (None), not a ProtocolError — the client's
        reconnect path treats it like any other between-frame close."""
        a, b = socket_module.socketpair()
        try:
            a.sendall(b"\x00\x00")  # 2 of 4 header bytes
            a.close()
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_close_mid_body_is_still_torn(self):
        a, b = socket_module.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\x40{")
            a.close()
            from repro.service.protocol import ProtocolError

            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()
