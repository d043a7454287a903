"""The foundry gateway: one front door over N daemons sharing a root.

:class:`FoundryGateway` is a thin balancer that speaks the
:mod:`~repro.service.protocol` frames on its client side — a
:class:`~repro.service.client.DaemonClient` pointed at a gateway works
unchanged, buffer-replay stream semantics included — and fans job
submissions out across registered :class:`~repro.service.daemon.
FoundryDaemon` backends.  The backends share ONE store/journal root
(the gateway's ``root``): :meth:`~repro.engine.store.CalibrationStore.
get_or_set` lock-election already makes several daemons on one store
compute-once safe, per-job journals live under ``<root>/jobs/<job_id>``
wherever the job runs, and tenant meters and rate buckets are files
under ``<root>/tenants`` — so moving a job between backends changes
*where* it executes and nothing about what it computes.

Routing and failover
====================

* **Consistent routing.**  A new submission routes by rendezvous hash
  of its job id over the *live* backends
  (:func:`rendezvous_backend`), so identical resubmissions land on —
  and attach to — the same backend, and removing one backend remaps
  only that backend's jobs.
* **Health checking.**  A background thread pings every backend each
  ``health_interval`` seconds and refreshes job statuses from the live
  ones.
* **Typed failover.**  When a backend dies, its PENDING jobs re-route:
  the gateway resubmits each one (same job id, rate-exempt) to a
  surviving backend, where it resumes from its journal bit-identically.
  Jobs seen RUNNING (or terminal, their results held only in the dead
  daemon's memory) are *stranded*: queries answer with a typed
  :class:`BackendDown` — never a silent re-run — until the backend
  returns (a restarted daemon recovers its own journaled jobs and
  resumes them bit-identically), or until an explicit resubmission
  re-routes the job as deliberate operator intent.

Rate limits
===========

Tenants configured on the gateway with ``max_submits_per_minute``
debit the shared file-backed :class:`~repro.service.tenants.
TokenBucket` under ``<root>/tenants`` *at the gateway* (refusals are
typed :class:`~repro.service.tenants.RateLimited`, nothing forwarded
or recorded); the forwarded submission is then marked rate-exempt so a
backend configured with the same tenant spec does not double-debit the
same bucket.  Tenants the gateway has no config for pass through and
are enforced by the backend, if configured there.

Like the daemon, the gateway's frame side is **trusted-local** (frames
carry pickles); the untrusted front door is the JSON-only facade in
:mod:`repro.service.http`.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from pathlib import Path

from repro.service.daemon import DaemonUnavailable, derive_job_id
from repro.service.protocol import (
    Hangup,
    ProtocolError,
    bind,
    connect,
    decode_payload,
    recv_frame,
    send_frame,
    serve_frames,
)
from repro.service.scheduler import POLL_SECONDS
from repro.service.tenants import TenantDirectory

#: Environment variable naming the gateway's backend list
#: (comma-separated daemon addresses).
GATEWAY_BACKENDS_ENV = "REPRO_GATEWAY_BACKENDS"

#: Socket-read slack on top of a server-side wait the gateway relays
#: (result/drain timeouts) — the client-side constant, same reasoning.
RELAY_GRACE_SECONDS = 10.0

#: Job statuses a dead backend's jobs re-route from; anything else was
#: (or may have been) running and must never silently re-run.
_REROUTABLE = ("pending",)

#: Fresh-connection attempts per backend round trip.  A single torn
#: frame must not read as a dead backend — failover strands RUNNING
#: jobs, which is for daemons that are really gone.  A genuinely dead
#: backend refuses each connect immediately, so the retries cost
#: microseconds there.
BACKEND_REQUEST_ATTEMPTS = 3


class BackendDown(RuntimeError):
    """The backend holding this job is unreachable; the job is NOT
    lost — a PENDING job re-routes, a RUNNING one resumes from its
    journal when its daemon restarts (or when explicitly resubmitted,
    which re-routes it as deliberate operator intent)."""


def rendezvous_backend(job_id: str, backends) -> str:
    """Pick ``job_id``'s backend by highest-random-weight (rendezvous)
    hashing: every gateway ranks ``(job_id, backend)`` digests the same
    way, so identical resubmissions agree on the backend without any
    shared routing state, and removing a backend remaps only the jobs
    it owned (every other job's top-ranked backend is unchanged)."""
    backends = sorted(backends)
    if not backends:
        raise DaemonUnavailable("no live backends to route to")
    return max(
        backends,
        key=lambda addr: hashlib.sha256(
            f"{job_id}|{addr}".encode()
        ).digest(),
    )


class GatewayJob:
    """One job the gateway knows: enough to route queries to its
    backend and to resubmit it elsewhere on failover (``job_text`` is
    the wire-encoded job; None for jobs discovered from a backend's
    listing, which can strand but not re-route)."""

    __slots__ = ("job_id", "tenant", "job_text", "backend", "status",
                 "stranded")

    def __init__(self, job_id: str, tenant: str, job_text: str | None,
                 backend: str | None = None, status: str = "pending"):
        self.job_id = job_id
        self.tenant = tenant
        self.job_text = job_text
        self.backend = backend
        self.status = status
        self.stranded = False


class FoundryGateway(TenantDirectory):
    """Front balancer over N foundry daemons sharing one root.

    Args:
        root: The *shared* state directory — the same ``--root`` every
            backend daemon serves (store, journals, tenant meters and
            rate buckets).  The gateway itself only touches
            ``<root>/tenants`` (buckets) and its default socket path.
        backends: Daemon addresses (socket paths or ``host:port``) to
            balance over; resolves ``REPRO_GATEWAY_BACKENDS``
            (comma-separated) when empty.
        socket: Address to listen on; defaults to
            ``<root>/gateway.sock``.
        tenants: :class:`TenantConfig` records for gateway-side
            submission-rate enforcement (see module docstring).
        health_interval: Seconds between backend health ticks.
        backend_timeout: Socket budget for one backend round trip.

    Use ``start()``/``stop()`` to embed (tests do) or :meth:`run` as
    the blocking CLI entry point.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        backends=(),
        socket: str | None = None,
        tenants=(),
        health_interval: float = 1.0,
        backend_timeout: float = 10.0,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if not backends:
            spec = os.environ.get(GATEWAY_BACKENDS_ENV, "")
            backends = [addr for addr in spec.split(",") if addr.strip()]
        self.backends = [str(addr).strip() for addr in backends]
        if not self.backends:
            raise ValueError(
                f"a gateway needs at least one backend daemon address "
                f"(pass backends= or set {GATEWAY_BACKENDS_ENV})"
            )
        self.address = socket or str(self.root / "gateway.sock")
        self.tenants = {config.name: config for config in tenants}
        self.health_interval = health_interval
        self.backend_timeout = backend_timeout
        #: Injectable clock for the submission-rate bucket (tests).
        self.clock = time.monotonic
        self._alive: dict[str, bool] = {}
        self._records: dict[str, GatewayJob] = {}
        self._lock = threading.RLock()
        self._draining = False
        self._stop_event = threading.Event()
        self._shutdown_requested = threading.Event()
        self._health_wake = threading.Event()
        self._listener = None
        self._accept_thread = None
        self._health_thread = None
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bring the gateway up: one synchronous health tick first (so
        routing works from the first request), then the front door."""
        if self._started:
            raise RuntimeError("gateway already started")
        self._started = True
        self._health_tick()
        self._health_thread = threading.Thread(
            target=self._health_loop, name="repro-gateway-health",
            daemon=True,
        )
        self._health_thread.start()
        self._listener = bind(self.address)
        self._listener.settimeout(POLL_SECONDS)
        self._accept_thread = threading.Thread(
            target=serve_frames, name="repro-gateway-accept",
            args=(self._listener, self, self._stop_event),
            daemon=True,
        )
        self._accept_thread.start()

    def run(self) -> None:
        """Blocking CLI entry point: serve until SIGTERM/SIGINT (or a
        ``drain`` with shutdown), then stop.  The backends are separate
        processes — stopping the gateway never stops them."""
        import signal

        def _on_signal(signum, frame):
            self._shutdown_requested.set()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
        self.start()
        try:
            self._shutdown_requested.wait()
        finally:
            self.stop()

    def stop(self) -> None:
        if not self._started:
            return
        self._shutdown_requested.set()
        self._stop_event.set()
        self._health_wake.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for thread in (self._accept_thread, self._health_thread):
            if thread is not None:
                thread.join(timeout=5.0)
        if os.sep in self.address or ":" not in self.address:
            try:
                os.unlink(self.address)
            except OSError:
                pass
        self._started = False

    # -- backend health and failover ---------------------------------------

    def _alive_backends(self, exclude=()) -> list[str]:
        with self._lock:
            return [
                addr for addr in self.backends
                if self._alive.get(addr, False) and addr not in exclude
            ]

    def _mark_down(self, addr: str) -> None:
        """One backend just failed a request: run its failover now
        rather than waiting for the next health tick."""
        with self._lock:
            was = self._alive.get(addr, False)
            self._alive[addr] = False
        if was:
            self._on_backend_down(addr)

    def _health_loop(self) -> None:
        while not self._stop_event.is_set():
            self._health_wake.wait(self.health_interval)
            self._health_wake.clear()
            if self._stop_event.is_set():
                return
            self._health_tick()

    def _health_tick(self) -> None:
        for addr in list(self.backends):
            try:
                info = self._backend_request(addr, {"op": "ping"})
                up = bool(info.get("ok"))
            except (OSError, ProtocolError, DaemonUnavailable):
                up = False
            with self._lock:
                was = self._alive.get(addr, False)
                self._alive[addr] = up
            if up and not was:
                self._on_backend_up(addr)
            elif was and not up:
                self._on_backend_down(addr)
            if up:
                self._refresh_jobs(addr)

    def _refresh_jobs(self, addr: str) -> None:
        """Keep the routing table's status knowledge fresh from one
        live backend — PENDING-vs-RUNNING at the moment a backend dies
        decides re-route versus strand."""
        try:
            reply = self._backend_request(addr, {"op": "jobs"})
        except (OSError, ProtocolError, DaemonUnavailable):
            return
        if not reply.get("ok"):
            return
        with self._lock:
            for jid, info in reply.get("jobs", {}).items():
                record = self._records.get(jid)
                if record is None:
                    record = GatewayJob(
                        jid, info.get("tenant", "default"), None,
                        backend=addr, status=info.get("status", "unknown"),
                    )
                    self._records[jid] = record
                elif record.backend == addr:
                    record.status = info.get("status", record.status)
                    record.stranded = False

    def _on_backend_up(self, addr: str) -> None:
        """A backend (re)appeared: its stranded jobs are reachable
        again — a restarted daemon has already recovered its own
        journaled jobs and resumed them bit-identically."""
        with self._lock:
            for record in self._records.values():
                if record.backend == addr:
                    record.stranded = False

    def _on_backend_down(self, addr: str) -> None:
        """A backend died: re-route its PENDING jobs to survivors
        (rate-exempt — failover is not client demand — and resuming
        from the shared journal root, so nothing recomputes); strand
        everything else behind a typed :class:`BackendDown`."""
        with self._lock:
            affected = [
                record for record in self._records.values()
                if record.backend == addr
            ]
        for record in affected:
            rerouted = False
            if record.status in _REROUTABLE and record.job_text is not None:
                try:
                    reply, new_addr = self._submit_to(
                        None, record.tenant, record.job_text,
                        record.job_id, rate_exempt=True, exclude=(addr,),
                    )
                    with self._lock:
                        record.backend = new_addr
                        record.stranded = False
                    rerouted = True
                except (DaemonUnavailable, OSError, ProtocolError,
                        RuntimeError):
                    pass
            if not rerouted:
                with self._lock:
                    record.stranded = True

    # -- backend requests --------------------------------------------------

    def _backend_request(self, addr: str, frame: dict,
                         timeout: float | None = "default") -> dict:
        """One round trip to one backend; error frames are returned
        (for relaying), transport failures raise — after retrying on a
        fresh connection up to :data:`BACKEND_REQUEST_ATTEMPTS` times,
        so one torn frame never triggers failover.  Retrying is safe
        because every proxied op is idempotent: ``submit`` attaches by
        job id, ``events`` replays from ``start``, ``cancel`` and
        ``drain`` are no-ops the second time."""
        last_exc = None
        for _ in range(BACKEND_REQUEST_ATTEMPTS):
            try:
                return self._backend_request_once(addr, frame, timeout)
            except (OSError, ProtocolError, DaemonUnavailable) as exc:
                last_exc = exc
        raise last_exc

    def _backend_request_once(self, addr: str, frame: dict,
                              timeout: float | None = "default") -> dict:
        sock = connect(addr, timeout=self.backend_timeout)
        try:
            sock.settimeout(
                self.backend_timeout if timeout == "default" else timeout
            )
            send_frame(sock, frame)
            reply = recv_frame(sock)
        finally:
            sock.close()
        if reply is None:
            raise DaemonUnavailable(
                f"backend {addr} closed the connection"
            )
        return reply

    def _submit_to(self, preferred: str | None, tenant: str, job_text: str,
                   job_id: str, rate_exempt: bool, exclude=()):
        """Forward one submission, preferring ``preferred`` (the job's
        recorded backend) and falling back through the rendezvous
        ranking as backends fail; returns ``(reply, address)``."""
        tried = set(exclude)
        while True:
            alive = self._alive_backends(exclude=tried)
            if preferred is not None and preferred in alive:
                addr = preferred
            elif alive:
                addr = rendezvous_backend(job_id, alive)
            else:
                raise DaemonUnavailable(
                    f"no live backends to submit job {job_id} to "
                    f"({len(self.backends)} registered)"
                )
            try:
                reply = self._backend_request(addr, {
                    "op": "submit", "tenant": tenant, "job": job_text,
                    "job_id": job_id, "rate_exempt": rate_exempt,
                })
            except (OSError, ProtocolError, DaemonUnavailable):
                tried.add(addr)
                self._mark_down(addr)
                continue
            return reply, addr

    def _locate(self, job_id: str) -> str:
        """The live backend serving ``job_id``; typed errors otherwise
        (:class:`KeyError` unknown, :class:`BackendDown` stranded)."""
        with self._lock:
            record = self._records.get(job_id)
        if record is None:
            # Lazy discovery: a job submitted directly to a backend (or
            # known only to a restarted one) is still queryable here.
            for addr in self._alive_backends():
                self._refresh_jobs(addr)
            with self._lock:
                record = self._records.get(job_id)
        if record is None:
            raise KeyError(f"unknown job id {job_id!r}")
        with self._lock:
            stranded = record.stranded
            addr = record.backend
            alive = self._alive.get(addr, False) if addr else False
        if stranded or not alive:
            raise BackendDown(
                f"backend {addr} holding job {job_id} is down; the job "
                f"is journaled and resumes when the backend restarts "
                f"(resubmit it to re-route instead)"
            )
        return addr

    def _forward(self, frame: dict, timeout: float | None = "default") -> dict:
        addr = self._locate(frame["job_id"])
        try:
            return self._backend_request(addr, frame, timeout=timeout)
        except (OSError, ProtocolError, DaemonUnavailable) as exc:
            self._mark_down(addr)
            raise BackendDown(
                f"backend {addr} failed mid-request for job "
                f"{frame['job_id']} ({type(exc).__name__}: {exc})"
            ) from exc

    # -- operations (dispatched by protocol.serve_frames) -------------------

    def _op_submit(self, conn, frame) -> None:
        with self._lock:
            if self._draining:
                raise DaemonUnavailable(
                    "gateway is draining; new submissions are refused"
                )
        tenant_name = frame.get("tenant") or "default"
        job_text = frame["job"]
        job_id = frame.get("job_id") or derive_job_id(
            tenant_name, decode_payload(job_text)
        )
        with self._lock:
            record = self._records.get(job_id)
            preferred = record.backend if record is not None else None
            was_stranded = record.stranded if record is not None else False
        rate_exempt = bool(frame.get("rate_exempt"))
        if record is None and not rate_exempt:
            # Gateway-side submission-rate enforcement for tenants the
            # gateway is configured with; the forward becomes
            # rate-exempt so the backend does not double-debit the
            # shared bucket.  Unknown records that turn out to attach
            # backend-side stay free there (attach never debits).
            bucket = self.submit_bucket(self.tenant(tenant_name))
            if bucket is not None:
                bucket.take(1.0)
                rate_exempt = True
        if was_stranded:
            # An explicit resubmission of a stranded job is operator
            # intent to re-route it now rather than wait for its
            # backend: route fresh (rendezvous over the living).
            preferred = None
        reply, addr = self._submit_to(
            preferred, tenant_name, job_text, job_id, rate_exempt
        )
        if not reply.get("ok"):
            send_frame(conn, reply)  # relay the typed refusal verbatim
            return
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                record = GatewayJob(job_id, tenant_name, job_text)
                self._records[job_id] = record
            record.tenant = tenant_name
            record.job_text = job_text
            record.backend = addr
            record.stranded = False
            if record.status in ("cancelled", "failed", "unknown"):
                record.status = "pending"  # re-admitted backend-side
        send_frame(conn, {
            "ok": True, "job_id": reply.get("job_id", job_id),
            "attached": reply.get("attached", False), "backend": addr,
        })

    def _op_status(self, conn, frame) -> None:
        reply = self._forward(frame)
        if reply.get("ok"):
            with self._lock:
                record = self._records.get(frame["job_id"])
                if record is not None:
                    record.status = reply.get("status", record.status)
        send_frame(conn, reply)

    def _op_result(self, conn, frame) -> None:
        timeout = frame.get("timeout")
        send_frame(conn, self._forward(
            frame,
            timeout=None if timeout is None
            else max(timeout, 0.0) + RELAY_GRACE_SECONDS,
        ))

    def _op_cancel(self, conn, frame) -> None:
        send_frame(conn, self._forward(frame))

    def _op_events(self, conn, frame) -> None:
        """Relay the backend's event stream frame-for-frame.  A torn
        backend link hangs up on the client *without* an error frame,
        so the client's reconnect/resume path (which re-sends ``start``
        past the events it already has) engages — the same buffer
        replay it uses against a daemon directly."""
        addr = self._locate(frame["job_id"])
        back = None
        try:
            back = connect(addr, timeout=self.backend_timeout)
            back.settimeout(None)  # events arrive at task cadence
            send_frame(back, frame)
            while True:
                reply = recv_frame(back)
                if reply is None:
                    raise Hangup()
                send_frame(conn, reply)
                if "end" in reply or not reply.get("ok", True):
                    return
        except (OSError, ProtocolError) as exc:
            raise Hangup() from exc
        finally:
            if back is not None:
                try:
                    back.close()
                except OSError:
                    pass

    def _op_jobs(self, conn, frame) -> None:
        jobs: dict[str, dict] = {}
        for addr in self._alive_backends():
            try:
                reply = self._backend_request(addr, {"op": "jobs"})
            except (OSError, ProtocolError, DaemonUnavailable):
                self._mark_down(addr)
                continue
            for jid, info in reply.get("jobs", {}).items():
                info = dict(info)
                info["backend"] = addr
                jobs[jid] = info
        with self._lock:
            for jid, record in self._records.items():
                if jid not in jobs:
                    jobs[jid] = {
                        "tenant": record.tenant,
                        "status": record.status,
                        "n_events": 0,
                        "backend": record.backend,
                        "stranded": record.stranded,
                    }
            draining = self._draining
        send_frame(conn, {"ok": True, "jobs": jobs, "draining": draining})

    def _op_ping(self, conn, frame) -> None:
        """Aggregate liveness: the shape a daemon's ping answers (so
        ``status`` CLI and clients work unchanged) plus a per-backend
        breakdown."""
        workers = active = n_jobs = 0
        tenants: dict[str, dict] = {}
        per_backend: dict[str, dict] = {}
        for addr in list(self.backends):
            if not self._alive.get(addr, False):
                per_backend[addr] = {"alive": False}
                continue
            try:
                info = self._backend_request(addr, {"op": "ping"})
            except (OSError, ProtocolError, DaemonUnavailable):
                self._mark_down(addr)
                per_backend[addr] = {"alive": False}
                continue
            workers += info.get("workers", 0)
            active += info.get("active", 0)
            n_jobs += info.get("n_jobs", 0)
            tenants.update(info.get("tenants") or {})
            per_backend[addr] = {
                "alive": True,
                "pid": info.get("pid"),
                "name": info.get("name"),
                "workers": info.get("workers", 0),
                "active": info.get("active", 0),
                "n_jobs": info.get("n_jobs", 0),
            }
        with self._lock:
            draining = self._draining
        send_frame(conn, {
            "ok": True,
            "pid": os.getpid(),
            "name": "gateway",
            "gateway": True,
            "workers": workers,
            "active": active,
            "n_jobs": n_jobs,
            "draining": draining,
            "tenants": tenants,
            "backends": per_backend,
        })

    def _op_drain(self, conn, frame) -> None:
        """Fan the drain out: stop gateway admission, then ask every
        live backend to drain (serially; each gets the full timeout).
        ``drained`` is True only when every one of them drained."""
        with self._lock:
            self._draining = True
        timeout = frame.get("timeout")
        shutdown = frame.get("shutdown", True)
        drained = True
        for addr in self._alive_backends():
            try:
                reply = self._backend_request(
                    addr,
                    {"op": "drain", "timeout": timeout,
                     "shutdown": shutdown},
                    timeout=None if timeout is None
                    else max(timeout, 0.0) + RELAY_GRACE_SECONDS,
                )
                drained = drained and bool(reply.get("drained"))
            except (OSError, ProtocolError, DaemonUnavailable):
                self._mark_down(addr)
                drained = False
        send_frame(conn, {"ok": True, "drained": drained})
        if shutdown:
            self._shutdown_requested.set()
