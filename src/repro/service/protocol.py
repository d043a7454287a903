"""Wire protocol of the foundry daemon: length-prefixed JSON frames.

One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON.  Control fields (operation, job id, tenant, status) are
plain JSON so any client can speak the protocol; *values* that must
round-trip bit-identically — submitted jobs, :class:`~repro.service.
jobs.TaskEvent` payloads, campaign results — travel as base64-encoded
pickles inside the JSON frame (:func:`encode_payload` /
:func:`decode_payload`), because an :class:`~repro.campaigns.report.
AttackReport` is a deterministic value and pickling is the identity
the journal already relies on.  The daemon is therefore a *trusted*
local service: never point a client at a socket you do not control
(pickle executes on decode), exactly like the on-disk journal.

Addresses are either a filesystem path (Unix domain socket — the
default, ``<root>/daemon.sock``) or ``host:port`` (TCP, for one lab
network sharing a daemon).  ``REPRO_SERVICE_SOCKET`` names the default
address for both the daemon and every client;
``REPRO_SERVICE_TENANT`` names the client's default tenant.

Each frame-transport job exists once, here: :class:`FrameServer` is
the server lifecycle of the daemon and the gateway (bind, the
:func:`serve_frames` accept thread, signals, stop), :func:`round_trip`
is one request and its reply, and :func:`read_stream` reads an event
stream up to its ``end`` or error frame.  TCP connections disable
Nagle's algorithm on both ends: a reply is often several frames written
back to back (an event replay), and would otherwise wait out a delayed
ACK.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import signal
import socket
import struct
import threading
from contextlib import suppress

from repro import faults
from repro.service.scheduler import POLL_SECONDS

#: Environment variable naming the daemon address (socket path or
#: ``host:port``) for the daemon and every client.
SERVICE_SOCKET_ENV = "REPRO_SERVICE_SOCKET"

#: Environment variable naming the client's default tenant.
SERVICE_TENANT_ENV = "REPRO_SERVICE_TENANT"

#: Refuse frames beyond this many bytes: a corrupt length prefix must
#: not look like a multi-gigabyte allocation request.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Socket-read slack on top of a server-side wait (``result(timeout=T)``,
#: ``drain``): the read must outlive the server's own T-second wait, or
#: a well-behaved reply races the reader's socket timeout.
SERVER_WAIT_GRACE_SECONDS = 10.0

_HEADER = struct.Struct(">I")

_FAMILIES = {"unix": socket.AF_UNIX, "tcp": socket.AF_INET}


class ProtocolError(RuntimeError):
    """The peer sent bytes that are not a well-formed frame."""


class Hangup(Exception):
    """Raised by an op handler to close the client connection without
    an error frame (a torn relay must look like a torn stream, so the
    client's reconnect/resume logic engages, not its error path)."""


def encode_payload(obj) -> str:
    """Pickle ``obj`` and wrap it for a JSON frame (base64 text)."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def decode_payload(text: str):
    """Inverse of :func:`encode_payload`."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def send_frame(sock: socket.socket, obj: dict) -> None:
    """Send one length-prefixed JSON frame."""
    data = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    packet = _HEADER.pack(len(data)) + data
    if faults.ENABLED:
        if faults.fire("frame.drop"):
            # The frame vanishes and the connection tears, the way a
            # mid-stream network failure looks to both peers.
            raise faults.FaultInjected("fault injected: frame dropped")
        if faults.fire("frame.truncate"):
            sock.sendall(faults.torn(packet))
            raise faults.FaultInjected("fault injected: frame truncated")
    sock.sendall(packet)


def _recv_exact(
    sock: socket.socket, n: int, eof_ok: bool = False
) -> bytes | None:
    """Read exactly ``n`` bytes; None on EOF at a frame boundary.

    With ``eof_ok`` (the length-prefix read), a peer that closes
    *mid-prefix* also reads as a clean EOF: a dying peer tears its
    connection at whatever byte its kernel buffer flushed, and 1-3
    prefix bytes carry nothing worth reporting.  A close mid-*payload*
    stays a :class:`ProtocolError`: the peer broke a promised length.
    """
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0 or eof_ok:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({got} of {n} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """Receive one frame; None when the peer closed cleanly — between
    frames or mid-length-prefix (see :func:`_recv_exact`)."""
    header = _recv_exact(sock, _HEADER.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed between header and body")
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(obj).__name__}")
    return obj


def server_wait_timeout(timeout: float | None) -> float | None:
    """The socket timeout for a server-side wait of ``timeout`` seconds:
    the wait plus the grace (0 polls; None waits forever, as does the read)."""
    if timeout is None:
        return None
    return max(timeout, 0.0) + SERVER_WAIT_GRACE_SECONDS


def round_trip(sock: socket.socket, frame: dict,
               timeout: float | None) -> dict:
    """Send ``frame`` on the connected ``sock``, read one reply within
    ``timeout`` seconds and close the socket; a hang-up before the reply
    raises :class:`ProtocolError`."""
    try:
        sock.settimeout(timeout)
        send_frame(sock, frame)
        reply = recv_frame(sock)
    finally:
        sock.close()
    if reply is None:
        raise ProtocolError("no reply: the peer closed the connection")
    return reply


def read_stream(sock: socket.socket, frame: dict):
    """Send the ``events`` request ``frame`` on ``sock`` (closed when
    done) and yield the replies through the ``end`` or error frame, with
    no read timeout; a hang-up first raises :class:`ProtocolError`."""
    try:
        sock.settimeout(None)
        send_frame(sock, frame)
        while True:
            reply = recv_frame(sock)
            if reply is None:
                raise ProtocolError("no end frame: the peer hung up")
            yield reply
            if "end" in reply or not reply.get("ok", True):
                return
    finally:
        sock.close()


def event_to_wire(event) -> dict:
    """One :class:`~repro.service.jobs.TaskEvent` as a wire dict:
    control fields plain JSON, payload pickled (bit-identity)."""
    return {
        "kind": event.kind,
        "label": event.label,
        "index": event.index,
        "seconds": event.seconds,
        "payload": encode_payload(event.payload),
    }


def event_from_wire(wire: dict):
    """Inverse of :func:`event_to_wire`."""
    from repro.service.jobs import TaskEvent

    return TaskEvent(
        kind=wire["kind"],
        label=wire["label"],
        index=wire["index"],
        payload=decode_payload(wire["payload"]),
        seconds=wire["seconds"],
    )


def parse_address(spec: str) -> tuple[str, object]:
    """Classify an address spec: ``("unix", path)`` or ``("tcp", (host, port))``.

    A spec whose final colon-separated field is all digits is TCP
    (``localhost:7070``); anything else — including every filesystem
    path — is a Unix socket path.
    """
    if not spec:
        raise ValueError(
            "empty daemon address; pass a socket path or host:port "
            f"(or set {SERVICE_SOCKET_ENV})"
        )
    host, _, port = spec.rpartition(":")
    if host and port.isdigit() and os.sep not in spec:
        return "tcp", (host, int(port))
    return "unix", spec


def default_address() -> str | None:
    """The ``REPRO_SERVICE_SOCKET`` address, or None when unset."""
    spec = os.environ.get(SERVICE_SOCKET_ENV)
    return spec if spec else None


def connect(spec: str, timeout: float | None = None) -> socket.socket:
    """Open a client connection to a daemon address."""
    family, target = parse_address(spec)
    sock = socket.socket(_FAMILIES[family], socket.SOCK_STREAM)
    _no_delay(sock)
    sock.settimeout(timeout)
    try:
        sock.connect(target)
    except OSError:
        sock.close()
        raise
    return sock


def _no_delay(sock: socket.socket) -> None:
    """Disable Nagle on a TCP socket: a reply written as several frames
    would otherwise wait out the peer's delayed ACK (~40 ms) per
    request."""
    if sock.family != socket.AF_UNIX:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def bind(spec: str) -> socket.socket:
    """Create a server's listening socket for an address.

    A stale Unix socket file left by a killed daemon is unlinked first
    — binding over it would otherwise fail forever (the filesystem
    analogue of the calibration store's crashed-holder lock debris).
    """
    family, target = parse_address(spec)
    sock = socket.socket(_FAMILIES[family], socket.SOCK_STREAM)
    if family == "unix":
        try:
            sock.bind(target)
        except OSError:
            try:
                connect(spec).close()
            except OSError:
                os.unlink(target)  # stale: nobody is listening
                sock.bind(target)
            else:
                sock.close()
                raise OSError(f"a daemon is already listening on {target}")
    else:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(target)
    sock.listen(64)
    return sock


def serve_frames(listener: socket.socket, server, stop_event) -> None:
    """Accept connections on ``listener`` until ``stop_event`` is set
    or the listener closes, serving each on its own thread: every
    request frame dispatches to ``server._op_<op>(conn, frame)``.  An
    unknown op, or a handler exception, answers with a typed error
    frame and keeps the connection; :class:`Hangup` and a torn client
    close it silently; a malformed frame costs only its connection."""
    while not stop_event.is_set():
        try:
            conn, _ = listener.accept()
        except socket.timeout:
            continue
        except OSError:
            return
        _no_delay(conn)
        threading.Thread(
            target=_serve_conn, args=(conn, server, stop_event), daemon=True
        ).start()


def _serve_conn(conn: socket.socket, server, stop_event) -> None:
    try:
        while not stop_event.is_set():
            frame = recv_frame(conn)
            if frame is None:
                return
            op = frame.get("op")
            handler = getattr(server, f"_op_{op}", None)
            if handler is None:
                send_frame(conn, {
                    "ok": False, "kind": "ProtocolError",
                    "error": f"unknown op {op!r}",
                })
                continue
            try:
                handler(conn, frame)
            except (Hangup, BrokenPipeError, ConnectionResetError):
                return
            except Exception as exc:
                send_frame(conn, {
                    "ok": False, "kind": type(exc).__name__,
                    "error": str(exc),
                })
    except (ProtocolError, OSError):
        pass
    finally:
        with suppress(OSError):
            conn.close()


class FrameServer:
    """The server lifecycle the daemon and the gateway share: ``start()``
    runs the :meth:`_before_serving` hook, serves :attr:`address` on a
    :func:`serve_frames` thread and returns the hook's result; ``stop()``
    closes it and unlinks the socket file of a Unix address; :meth:`run`
    serves until SIGTERM/SIGINT (or ``_shutdown_requested``), then
    :meth:`_shutdown`."""

    def __init__(self, address: str):
        self.address = address
        self._stop_event = threading.Event()
        self._shutdown_requested = threading.Event()
        self._listener = None
        self._accept_thread = None
        self._started = False

    def _before_serving(self):
        """Start hook, run before the listener binds."""

    def _shutdown(self) -> None:
        """How :meth:`run` stops the server."""
        self.stop()

    def start(self):
        if self._started:
            raise RuntimeError(f"{type(self).__name__} already started")
        result = self._before_serving()
        self._started = True
        self._listener = bind(self.address)
        self._listener.settimeout(POLL_SECONDS)
        self._accept_thread = threading.Thread(
            target=serve_frames, name=f"{type(self).__name__}-accept",
            args=(self._listener, self, self._stop_event), daemon=True,
        )
        self._accept_thread.start()
        return result

    def run(self) -> None:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: self._shutdown_requested.set())
        self.start()
        try:
            self._shutdown_requested.wait()
        finally:
            self._shutdown()

    def stop(self) -> None:
        if not self._started:
            return
        self._shutdown_requested.set()
        self._stop_event.set()
        if self._accept_thread is not None:  # None: start() failed
            with suppress(OSError):
                self._listener.close()
            self._accept_thread.join(timeout=5.0)
            if parse_address(self.address)[0] == "unix":
                with suppress(OSError):
                    os.unlink(self.address)
        self._started = False
