"""``python -m repro.service`` — the foundry daemon's command line.

Subcommands::

    serve    run a daemon:  python -m repro.service serve --root RUNDIR \\
                [--socket ADDR] [--workers N] [--name NAME] \\
                [--tenant name=prio:quota:spm:qpm]...
    gateway  run a front balancer over daemons sharing RUNDIR:
             python -m repro.service gateway --root RUNDIR \\
                --backend ADDR [--backend ADDR]... [--socket ADDR] \\
                [--http HOST:PORT] [--tenant SPEC]...
    submit   submit a pickled job and stream its events:
             python -m repro.service submit --job job.pkl [--out result.pkl]
    status   daemon stats, or one job's status:
             python -m repro.service status [JOB_ID]
    jobs     list every job the daemon (or gateway) knows
    ping     one-line liveness check (exit 1 when unreachable)
    drain    finish every admitted job, then shut the daemon down:
             python -m repro.service drain [--timeout S] [--no-shutdown]

The daemon address resolves ``--socket``, then ``REPRO_SERVICE_SOCKET``
(serve also falls back to ``<root>/daemon.sock``, gateway to
``<root>/gateway.sock``); the gateway's backend list also resolves
``REPRO_GATEWAY_BACKENDS``; the submitting tenant resolves
``--tenant``, then ``REPRO_SERVICE_TENANT``.
"""

from __future__ import annotations

import argparse
import pickle
import sys


def _cmd_serve(args) -> int:
    from repro.service.daemon import FoundryDaemon
    from repro.service.tenants import parse_tenant_spec

    daemon = FoundryDaemon(
        root=args.root,
        socket=args.socket,
        n_workers=args.workers,
        tenants=[parse_tenant_spec(spec) for spec in args.tenant],
        max_active=args.max_active,
        name=args.name,
    )
    print(
        f"repro-daemon: serving on {daemon.address} "
        f"({daemon.fleet.n_workers} workers, root {daemon.root}, "
        f"name {daemon.name})",
        flush=True,
    )
    daemon.run()
    print("repro-daemon: stopped", flush=True)
    return 0


def _cmd_gateway(args) -> int:
    from repro.service.gateway import FoundryGateway
    from repro.service.tenants import parse_tenant_spec

    gateway = FoundryGateway(
        root=args.root,
        backends=args.backend,
        socket=args.socket,
        tenants=[parse_tenant_spec(spec) for spec in args.tenant],
        health_interval=args.health_interval,
    )
    frontend = None
    if args.http:
        from repro.service.http import FoundryHTTPFrontend

        host, _, port = args.http.rpartition(":")
        frontend = FoundryHTTPFrontend(
            backend=gateway.address,
            host=host or "127.0.0.1",
            port=int(port),
        )
    print(
        f"repro-gateway: serving on {gateway.address} over "
        f"{len(gateway.backends)} backend(s), root {gateway.root}"
        + (f", http {frontend.address}" if frontend else ""),
        flush=True,
    )
    if frontend is not None:
        frontend.start()
    try:
        gateway.run()
    finally:
        if frontend is not None:
            frontend.stop()
    print("repro-gateway: stopped", flush=True)
    return 0


def _client(args):
    from repro.service.client import DaemonClient

    return DaemonClient(
        socket=args.socket, tenant=getattr(args, "tenant", None)
    )


def _cmd_submit(args) -> int:
    with open(args.job, "rb") as fh:
        job = pickle.load(fh)
    client = _client(args)
    handle = client.submit(job, job_id=args.job_id)
    print(f"job {handle.job_id} submitted as tenant {client.tenant!r}",
          flush=True)
    try:
        for event in handle.stream():
            print(f"  [{event.kind}] {event.label} ({event.seconds:.2f}s)",
                  flush=True)
        result = handle.result()
    except Exception as exc:
        print(f"job {handle.job_id} failed: {exc}", file=sys.stderr)
        return 1
    status = handle.status().value
    print(f"job {handle.job_id} {status}", flush=True)
    if args.out:
        # Reports are the deterministic part of a campaign result
        # (timings are not); pickle them for byte-for-byte comparison.
        payload = getattr(result, "reports", result)
        with open(args.out, "wb") as fh:
            fh.write(pickle.dumps(payload))
        print(f"result written to {args.out}", flush=True)
    return 0


def _cmd_status(args) -> int:
    client = _client(args)
    if args.job_id:
        handle = client.handle(args.job_id)
        print(handle.status().value)
        return 0
    info = client.ping()
    print(
        f"daemon pid {info['pid']}: {info['workers']} workers, "
        f"{info['active']} active of {info['n_jobs']} jobs"
        + (" (draining)" if info["draining"] else "")
    )
    for name, stats in sorted(info["tenants"].items()):
        quota = stats["max_queries"]
        print(
            f"  tenant {name}: priority {stats['priority']}, "
            f"{stats['n_queries']} queries"
            + (f" of {quota}" if quota is not None else " (unlimited)")
        )
    jobs = client.jobs()["jobs"]
    for job_id, record in sorted(jobs.items()):
        print(
            f"  job {job_id} [{record['tenant']}]: {record['status']} "
            f"({record['n_events']} events)"
        )
    return 0


def _cmd_jobs(args) -> int:
    reply = _client(args).jobs()
    jobs = reply["jobs"]
    if not jobs:
        print("no jobs")
        return 0
    for job_id, record in sorted(jobs.items()):
        extra = ""
        if record.get("backend"):
            extra += f" @ {record['backend']}"
        if record.get("stranded"):
            extra += " (stranded: backend down)"
        print(
            f"{job_id} [{record['tenant']}]: {record['status']} "
            f"({record['n_events']} events){extra}"
        )
    if reply.get("draining"):
        print("(draining)")
    return 0


def _cmd_ping(args) -> int:
    from repro.service.client import DaemonUnavailableError

    try:
        info = _client(args).ping()
    except (DaemonUnavailableError, ConnectionError, OSError) as exc:
        print(f"unreachable: {exc}", file=sys.stderr)
        return 1
    kind = "gateway" if info.get("gateway") else "daemon"
    line = (
        f"{kind} pid {info['pid']}: {info['workers']} workers, "
        f"{info['active']} active of {info['n_jobs']} jobs"
        + (" (draining)" if info.get("draining") else "")
    )
    backends = info.get("backends") or {}
    if backends:
        up = sum(1 for b in backends.values() if b.get("alive"))
        line += f", {up}/{len(backends)} backends alive"
    print(line)
    return 0


def _cmd_drain(args) -> int:
    client = _client(args)
    drained = client.drain(
        timeout=args.timeout, shutdown=not args.no_shutdown
    )
    print("drained" if drained else "drain timed out")
    return 0 if drained else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Foundry daemon: serve, submit, status, drain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a foundry daemon")
    serve.add_argument("--root", required=True,
                       help="daemon state directory (store, journals, meters)")
    serve.add_argument("--socket", default=None,
                       help="listen address: socket path or host:port")
    serve.add_argument("--workers", type=int, default=None,
                       help="persistent fleet size "
                            "(default: REPRO_SERVICE_WORKERS)")
    serve.add_argument("--tenant", action="append", default=[],
                       metavar="NAME[=PRIO[:QUOTA[:SPM[:QPM]]]]",
                       help="tenant config (repeatable): priority, absolute "
                            "query quota, submits/min, queries/min")
    serve.add_argument("--max-active", type=int, default=None,
                       help="max concurrently running jobs")
    serve.add_argument("--name", default=None,
                       help="daemon identity on a shared root (each daemon "
                            "recovers only its own journaled jobs)")
    serve.set_defaults(func=_cmd_serve)

    gateway = sub.add_parser(
        "gateway", help="run a front balancer over daemons sharing one root"
    )
    gateway.add_argument("--root", required=True,
                         help="the SHARED state directory the backends serve")
    gateway.add_argument("--backend", action="append", default=[],
                         metavar="ADDR",
                         help="backend daemon address (repeatable; default: "
                              "REPRO_GATEWAY_BACKENDS, comma-separated)")
    gateway.add_argument("--socket", default=None,
                         help="listen address (default <root>/gateway.sock)")
    gateway.add_argument("--http", default=None, metavar="HOST:PORT",
                         help="also serve the JSON-only HTTP facade here")
    gateway.add_argument("--tenant", action="append", default=[],
                         metavar="NAME[=PRIO[:QUOTA[:SPM[:QPM]]]]",
                         help="tenant config for gateway-side rate limits")
    gateway.add_argument("--health-interval", type=float, default=1.0,
                         help="seconds between backend health checks")
    gateway.set_defaults(func=_cmd_gateway)

    submit = sub.add_parser("submit", help="submit a pickled job")
    submit.add_argument("--job", required=True,
                        help="path to a pickled job object")
    submit.add_argument("--socket", default=None)
    submit.add_argument("--tenant", default=None)
    submit.add_argument("--job-id", default=None)
    submit.add_argument("--out", default=None,
                        help="write the result's reports as a pickle here")
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser("status", help="daemon or job status")
    status.add_argument("job_id", nargs="?", default=None)
    status.add_argument("--socket", default=None)
    status.set_defaults(func=_cmd_status)

    jobs = sub.add_parser("jobs", help="list every job the service knows")
    jobs.add_argument("--socket", default=None)
    jobs.set_defaults(func=_cmd_jobs)

    ping = sub.add_parser("ping", help="one-line liveness check")
    ping.add_argument("--socket", default=None)
    ping.set_defaults(func=_cmd_ping)

    drain = sub.add_parser("drain", help="drain and shut down the daemon")
    drain.add_argument("--socket", default=None)
    drain.add_argument("--timeout", type=float, default=None)
    drain.add_argument("--no-shutdown", action="store_true",
                       help="stop admission and wait, but keep serving")
    drain.set_defaults(func=_cmd_drain)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
