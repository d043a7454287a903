"""Supervised task execution: one supervisor, one task graph.

Every unit of work — a die calibration, an attack cell, a sub-task of
a partitioned cell, an experiment — runs on supervised worker
processes through the same two pieces, whichever front door submitted
it:

* :class:`Supervisor` — a thread-free executor.  It owns the worker
  slots, one shared ready pool, the per-task attempt ledger, the
  tenant charge-reservation commit/rollback and the barren-respawn
  bound, all under one lock, and :meth:`~Supervisor.step` runs one
  cycle: dispatch ready items to idle workers, wait, settle results
  into per-job *ticket* mailboxes, then sweep dead, hung and torn
  workers.
* :func:`run_graph` — one job's task graph: provisioning tasks first,
  attack cells *gated* on their die's calibration (released the
  instant its last provisioning task lands, while straggler dies are
  still calibrating), partitioned cells fanned out as sub-tasks and
  assembled, and the job's ``max_inflight`` bound.

:func:`run_stealing` is the in-process path: a private supervisor that
the job's consumer drives by pulling events, so no thread lives in the
parent when workers fork or respawn (the same fork-safety argument as
the engine kernel's per-call thread teams).  The daemon's
:class:`~repro.service.daemon.WorkerFleet` is the same supervisor with
a router thread looping on ``step()``, shared by every job the daemon
admits.  Work conservation is the point of the pull model: the next
task goes to whichever worker frees up first, so imbalanced fleets
pack tightly (the dominant cell occupies one worker while the others
drain the rest) and provisioning overlaps the attack phase.

Supervision: each worker is connected to the parent by its own duplex
pipe, so the parent always knows exactly which task each worker holds
— a dead worker (exit code) or a hung one (its heartbeat thread silent
for ``REPRO_TASK_TIMEOUT`` seconds) is killed, respawned, and its task
requeued, and a job only fails once one of its tasks has consumed the
whole ``REPRO_TASK_RETRIES`` attempt budget
(:class:`~repro.service.jobs.TaskRetriesExhausted`, carrying the
per-attempt failure notes).  Per-worker pipes are what make this
airtight: assignment is parent-side state (no pickup-message race to
lose a task in), and a worker killed mid-result tears only its own
channel (a shared queue's writer lock dies with its holder and wedges
every survivor).

Determinism: tasks carry their cell index, results are journaled and
assembled by index, every cell rebuilds its chip and seeds its own
RNGs, and die calibrations are deterministic values read through the
shared :class:`~repro.engine.store.CalibrationStore` — so the reports
are bit-identical to a sequential run whatever the worker count, the
dispatch order *or the crash schedule*: a retried task re-executes
identically (held differentially in ``tests/test_service.py`` and
``tests/test_faults.py``).

Sub-tasks (partitioned cells): a cell whose attack adapter declares a
partition plan (:meth:`~repro.campaigns.attacks.Attack.partition`) is
never dispatched as one :class:`CellTask`.  Instead its plan emits
:class:`SubTask` records — speculative, *unmetered* measurement slices
(brute-force key-range scores, GA population-slice scores) that are
pure functions of the cell, so a retried sub-task is trivially safe —
and the parent absorbs each result back into the plan, which may emit
further sub-tasks (the GA breeds generation ``g+1`` only after
absorbing generation ``g``).  When the plan drains, one
:class:`AssembleTask` replays the *scalar* attack against the plan's
measurement script (sequential accept-order replay: identical draws,
best-so-far updates, early exits and ``unlocks`` adjudications, with
every oracle/tenant charge committed in replay order), so the report,
``n_queries`` and the ``QueryBudgetExceeded`` refusal point are
bit-identical to the unpartitioned cell across partition sizes, worker
counts and backends.  Sub-task completions are internal — only
provision and cell (assembly) results are yielded.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_module
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection

from repro import faults
from repro.service.jobs import (
    JobFailed,
    TaskRetriesExhausted,
    task_retry_budget,
    task_timeout_seconds,
)

#: Seconds between worker-liveness checks while awaiting results.
POLL_SECONDS = 0.2

#: Seconds between a worker's heartbeat ticks.  The watchdog threshold
#: (``REPRO_TASK_TIMEOUT``) should be a comfortable multiple of this.
HEARTBEAT_SECONDS = 0.5


@dataclass(frozen=True)
class ProvisionTask:
    """Calibrate one ``(lot_seed, chip_id, standard_index)`` die into
    the shared calibration store."""

    triple: tuple

    def label(self) -> str:
        lot_seed, chip_id, standard_index = self.triple
        return f"provision lot{lot_seed}/chip{chip_id}/std{standard_index}"

    def key(self) -> tuple:
        """Stable identity for retry accounting and charge reservations."""
        return ("provision", self.triple)

    def run(self):
        from repro.campaigns.scenario import ChipSpec, provision_calibration
        from repro.receiver.standards import standard_by_index

        lot_seed, chip_id, standard_index = self.triple
        provision_calibration(
            ChipSpec(lot_seed=lot_seed, chip_id=chip_id),
            standard_by_index(standard_index),
        )
        return self.triple


@dataclass(frozen=True)
class CellTask:
    """Execute one campaign cell (the cell rebuilds its own chip and
    seeds its own RNGs, so it runs identically on any worker)."""

    index: int
    cell: object

    def label(self) -> str:
        return self.cell.label()

    def key(self) -> tuple:
        """Stable identity for retry accounting and charge reservations."""
        return ("cell", self.index)

    def run(self):
        return self.cell.execute()


@dataclass(frozen=True)
class SubTask:
    """One speculative slice of a partitioned cell's measurement work.

    The part computes raw measurement values (SNR/SFDR scores) directly
    — *never* through the metering oracle, so neither the oracle budget
    nor an installed tenant meter moves: all charges commit later, in
    replay order, inside the cell's :class:`AssembleTask`.  Sub-tasks
    are pure functions of ``(cell, part)`` with no side effects, which
    makes their retries trivially safe under supervision.
    """

    index: int
    part_id: tuple
    cell: object
    part: object

    def label(self) -> str:
        return f"{self.cell.label()} [{'/'.join(map(str, self.part_id))}]"

    def key(self) -> tuple:
        """Stable identity for retry accounting and charge reservations."""
        return ("subtask", self.index, self.part_id)

    def run(self):
        return self.part.run(self.cell)


@dataclass(frozen=True)
class AssembleTask(CellTask):
    """Sequential accept-order replay of a partitioned cell: re-runs
    the scalar attack with measurements served from the sub-tasks'
    script (live fallback when the script runs dry — e.g. a deceptive
    key pushing the search past where speculation stopped).  All
    oracle/tenant charges happen here, in replay order, under the same
    ``("cell", index)`` identity a scalar cell task would use — so the
    retry budget and the daemon's charge-reservation path treat it
    exactly like the cell it assembles, and it journals as a plain cell
    result (it *is* a :class:`CellTask`)."""

    script: object = None

    def run(self):
        return self.cell.execute_scripted(self.script)


@dataclass(frozen=True)
class TaskContext:
    """Everything a worker must (re-)initialise to run a task: the
    job's backend and shared calibration store (the campaign layer's
    ``_worker_init`` arguments) plus, on the daemon, the tenant's
    meter.  Workers re-init only when the context changes hands, so
    consecutive tasks of one job pay it once.  The in-process path's
    context has no meter."""

    backend: str | None = None
    store_path: str | None = None
    tenant: str = "default"
    meter_path: str | None = None
    max_queries: int | None = None
    max_queries_per_minute: float | None = None

    def meter(self):
        """The tenant's :class:`~repro.service.tenants.TenantMeter`, or
        None for an unmetered context."""
        if self.meter_path is None:
            return None
        from repro.service.tenants import TenantMeter

        return TenantMeter(
            self.meter_path,
            self.max_queries,
            tenant=self.tenant,
            max_per_minute=self.max_queries_per_minute,
        )


# ---------------------------------------------------------------------------
# Supervised workers
# ---------------------------------------------------------------------------


def start_heartbeat(heartbeat) -> None:
    """Start the worker-side heartbeat: a daemon thread stamping
    ``time.monotonic()`` into the shared double every
    :data:`HEARTBEAT_SECONDS`.  It beats while a task computes (long
    tasks never look hung) and freezes with the process when the
    process freezes (``SIGSTOP``, a wedged syscall) — which is exactly
    the signal the parent's watchdog reclaims on.

    The shared value is lock-free (a raw aligned double; torn
    reads/writes don't occur on the platforms the fork context runs
    on): a lock would hand a killed worker a way to wedge the parent.

    The ``task.stall_heartbeat`` fault point stops the beat (the thread
    exits) while the worker keeps computing — a starved heartbeat
    thread under a long GIL-holding call looks exactly like this.
    """

    def beat():
        while not _HEARTBEAT_STALLED.is_set():
            heartbeat.value = time.monotonic()
            time.sleep(HEARTBEAT_SECONDS)

    threading.Thread(target=beat, name="repro-heartbeat", daemon=True).start()


#: Worker-process flag the ``task.stall_heartbeat`` fault point sets to
#: silence the heartbeat thread without touching the worker itself.
_HEARTBEAT_STALLED = threading.Event()


def run_task(task):
    """Execute one task under the fault-injection points every
    supervised worker threads through: ``task.hang`` freezes the
    process instead of running (nothing mutated — the watchdog must
    reclaim), ``task.crash_before_report`` kills the process after the
    task ran but before its result message exists (the supervisor must
    requeue), ``task.stall_heartbeat`` silences the heartbeat and delays
    the task past the watchdog while staying alive (the *late result*
    schedule the supervisor's kill-before-drain ordering exists for).
    Returns a ``(kind, task, payload, seconds, error)`` result tuple."""
    if faults.ENABLED and faults.fire("task.hang"):
        faults.hang()
    if faults.ENABLED and faults.fire("task.stall_heartbeat"):
        _HEARTBEAT_STALLED.set()
        timeout = task_timeout_seconds()
        time.sleep((timeout or 0.0) + 3 * POLL_SECONDS)
    start = time.perf_counter()
    try:
        payload = task.run()
    except BaseException:
        return ("error", task, None, time.perf_counter() - start,
                traceback.format_exc())
    if faults.ENABLED and faults.fire("task.crash_before_report"):
        faults.crash()
    return ("done", task, payload, time.perf_counter() - start, None)


def _worker_main(conn, heartbeat) -> None:
    """One supervised worker: receive ``(ticket, context, task,
    task_id)`` items on its private duplex pipe, send one result tuple
    back per item, exit on the None sentinel (or the parent's end of
    the pipe closing).

    The worker re-initialises whenever the context changes: a pristine
    private engine of the job's backend reading through its shared
    calibration store, plus the tenant meter install — so reports
    cannot depend on which worker, or which *attempt*, ran a task.
    Before a metered task runs, its charge reservation opens under
    ``task_id`` (see :meth:`~repro.service.tenants.TenantMeter.
    begin_task`); the *parent* settles it — commit on the result,
    rollback before a retry — because the parent is the only survivor
    of every crash schedule.
    """
    from repro.attacks.oracle import install_tenant_meter
    from repro.campaigns.campaign import _worker_init

    start_heartbeat(heartbeat)
    current = meter = None
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        ticket, context, task, task_id = item
        if context != current:
            _worker_init(context.backend, context.store_path)
            meter = context.meter()
            install_tenant_meter(meter)
            current = context
        if meter is not None:
            meter.begin_task(task_id)
        conn.send((ticket,) + run_task(task))
        if faults.ENABLED and faults.fire("worker.torn_conn"):
            faults.tear_connection(conn)


class WorkerSlot:
    """Parent-side record of one supervised worker: its process, the
    parent end of its private pipe, its heartbeat, and — the heart of
    supervision — exactly which task it currently holds."""

    def __init__(self, proc, conn, heartbeat):
        self.proc = proc
        self.conn = conn
        self.heartbeat = heartbeat
        self.item = None  # the dispatched work, parent-defined shape
        # Set when a send to this worker failed: the process may still
        # be alive with a beating heartbeat, but its pipe is torn, so
        # the supervision sweep must reap it — an idle-looking slot that
        # can never be dispatched to would otherwise livelock the round.
        self.broken = False

    def stale(self, timeout: float | None) -> bool:
        """Has the heartbeat been silent past the watchdog threshold
        while a task is assigned?"""
        return (
            timeout is not None
            and self.item is not None
            and time.monotonic() - self.heartbeat.value > timeout
        )

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


def spawn_worker(ctx) -> WorkerSlot:
    """Fork one supervised worker (:func:`_worker_main`) connected by a
    fresh duplex pipe."""
    parent_conn, child_conn = ctx.Pipe()
    heartbeat = ctx.Value("d", time.monotonic(), lock=False)
    proc = ctx.Process(
        target=_worker_main, args=(child_conn, heartbeat), daemon=True
    )
    proc.start()
    child_conn.close()  # ours alone now lives in the child
    return WorkerSlot(proc, parent_conn, heartbeat)


def kill_slot(slot: WorkerSlot, note_kill: str | None) -> str:
    """Kill (when ``note_kill`` names a reason and the process is still
    alive) and join one worker, WITHOUT closing the parent's end of its
    pipe: the supervisor drains any result the worker managed to send
    *after* this, then closes.  Draining before the kill is the race —
    a hung-but-alive worker can emit its result between the drain and
    the kill, and the drained-empty supervisor would requeue and run the
    task twice.  Killing first makes the post-kill drain complete: a
    dead process cannot send.  Returns the per-attempt note: the kill
    reason when this call did the killing, but the worker's own exit
    code when the join reveals it died by itself first (``is_alive`` can
    lag a crashing worker's pipe EOF, so a kill request may race a
    natural death — the factual exit code outranks the stale reason)."""
    if note_kill is not None and slot.proc.is_alive():
        slot.proc.kill()  # SIGKILL: works on a SIGSTOPped process too
    slot.proc.join(timeout=5.0)
    if slot.proc.is_alive():  # pragma: no cover - kill cannot be refused
        slot.proc.terminate()
        slot.proc.join(timeout=5.0)
    exitcode = slot.proc.exitcode
    if note_kill is not None and (exitcode is None or exitcode < 0):
        return note_kill
    return f"worker died with exit code {exitcode}"


class _Item:
    """One unit of work in flight: the submitting job's ticket, the
    worker context, the task, and the id its charge reservation and
    retry accounting live under."""

    __slots__ = ("ticket", "context", "task", "task_id")

    def __init__(self, ticket: int, context: TaskContext, task):
        self.ticket = ticket
        self.context = context
        self.task = task
        self.task_id = f"{ticket}:{task.key()!r}"


class Supervisor:
    """A self-healing worker team and its shared ready pool, with no
    thread of its own: whoever calls :meth:`step` drives it.

    Jobs open a *ticket* (:meth:`open_ticket`) and :meth:`submit` items
    under it; every result lands in that ticket's mailbox as a
    ``(kind, task, payload, seconds, error)`` tuple, and a closed
    ticket's stragglers are dropped.  A dead or hung worker's item has
    its partial tenant charges rolled back and is requeued at the
    front of the pool, until one task has consumed its whole attempt
    budget: then its own mailbox receives an ``"exhausted"`` message
    carrying the per-attempt notes, and every other ticket keeps
    running.  Slot state is touched only by the stepping thread; the
    pool, the attempt ledger and the mailboxes sit under one lock, so
    other threads may submit and close tickets concurrently.
    """

    def __init__(self, n_workers: int):
        self.n_workers = n_workers
        self.slots: list[WorkerSlot] = []
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self._ready: deque = deque()
        self._attempts: dict[str, list] = {}
        self._mailboxes: dict[int, queue_module.Queue] = {}
        self._tickets = itertools.count(1)
        self._lock = threading.Lock()
        self._retry_budget = task_retry_budget()
        self._watchdog = task_timeout_seconds()
        # Workers dying while idle (at startup, before they hold a task)
        # consume no task's retry budget, so bound deaths without any
        # result separately or a crash-at-start would respawn forever.
        self._barren_respawns = 0
        self._wake_r: int | None = None  # extra fd step() waits on

    @property
    def workers(self) -> list:
        """The live worker processes (diagnostics and tests)."""
        return [slot.proc for slot in self.slots]

    def start(self) -> None:
        """Fork the workers."""
        self.slots = [spawn_worker(self._mp) for _ in range(self.n_workers)]

    # -- tickets ------------------------------------------------------------

    def open_ticket(self) -> tuple[int, queue_module.Queue]:
        with self._lock:
            ticket = next(self._tickets)
            mailbox: queue_module.Queue = queue_module.Queue()
            self._mailboxes[ticket] = mailbox
        return ticket, mailbox

    def close_ticket(self, ticket: int) -> None:
        """Forget a ticket: its mailbox, its queued items and their
        retry history (no mailbox will ever collect them)."""
        with self._lock:
            self._mailboxes.pop(ticket, None)
            self._ready = deque(
                item for item in self._ready if item.ticket != ticket
            )
            prefix = f"{ticket}:"
            for task_id in [t for t in self._attempts if t.startswith(prefix)]:
                del self._attempts[task_id]

    def submit(self, ticket: int, context: TaskContext, task) -> None:
        with self._lock:
            self._ready.append(_Item(ticket, context, task))

    def receive(self, mailbox):
        """The next message for ``mailbox``, stepping the team once
        while it is empty; None when nothing arrived yet."""
        if mailbox.empty():
            self.step(POLL_SECONDS)
        try:
            return mailbox.get_nowait()
        except queue_module.Empty:
            return None

    def _deliver_locked(self, ticket: int, message) -> None:
        mailbox = self._mailboxes.get(ticket)
        if mailbox is not None:
            mailbox.put(message)

    # -- one supervision cycle ----------------------------------------------

    def step(self, timeout: float) -> None:
        """Dispatch ready items to idle workers, wait up to ``timeout``
        seconds for results, settle them, then sweep: kill, drain, reap
        and respawn every dead, hung or torn worker and reclaim its
        item.  Raises :class:`JobFailed` when workers keep dying
        without ever completing a task."""
        with self._lock:
            for slot in self.slots:
                if slot.broken or slot.item is not None or not self._ready:
                    continue
                item = self._ready.popleft()
                try:
                    slot.conn.send(
                        (item.ticket, item.context, item.task, item.task_id)
                    )
                except (OSError, ValueError):
                    self._ready.appendleft(item)
                    # The pipe is torn even if the process looks healthy:
                    # flag it so the sweep reaps it, or an alive worker
                    # with a beating heartbeat would sit here looking
                    # idle forever (the single-worker livelock).
                    slot.broken = True
                    continue
                slot.item = item
        waitable = [slot.conn for slot in self.slots]
        if self._wake_r is not None:
            waitable.append(self._wake_r)
        try:
            readable = connection.wait(waitable, timeout=timeout)
        except OSError:  # a pipe torn down mid-wait: the sweep will see it
            readable = []
        for conn in readable:
            if conn == self._wake_r:  # the wake pipe is a raw fd
                try:
                    os.read(self._wake_r, 4096)
                except OSError:
                    pass
                continue
            slot = next(s for s in self.slots if s.conn is conn)
            try:
                message = slot.conn.recv()
            except (EOFError, OSError):
                slot.broken = True  # the sweep below reclaims it
                continue
            self._settle(slot, message)
        for i, slot in enumerate(self.slots):
            hung = slot.stale(self._watchdog)
            if slot.proc.is_alive() and not hung and not slot.broken:
                continue
            if hung:
                kill_note = (
                    f"worker hung (heartbeat silent > {self._watchdog:g}s); "
                    f"killed"
                )
            elif slot.broken and slot.proc.is_alive():
                kill_note = "worker pipe broke; killed"
            else:
                kill_note = None
            # Kill hung/broken-but-alive workers BEFORE draining:
            # draining first races a late result into the pipe between
            # drain and kill, and the task would settle AND requeue
            # (double execution, double tenant charge).  Dead workers
            # cannot send, so the post-kill drain still collects
            # everything they reported before dying.
            note = kill_slot(slot, kill_note)
            try:
                while slot.conn.poll():
                    self._settle(slot, slot.conn.recv())
            except (EOFError, OSError):
                pass
            slot.close()
            self._reclaim(slot, note)
            self._barren_respawns += 1
            if self._barren_respawns > 3 * len(self.slots) + self._retry_budget:
                raise JobFailed(
                    f"workers died {self._barren_respawns} times without "
                    f"completing a task (last: {note}); giving up instead "
                    f"of respawning forever"
                )
            self.slots[i] = spawn_worker(self._mp)

    def _settle(self, slot: WorkerSlot, message) -> None:
        """One worker result: commit its charge reservation (the
        charges stand — even for an ``"error"`` result, which spent
        real measurements exactly as an in-process run would have) and
        deliver it to the submitting ticket's mailbox."""
        item, slot.item = slot.item, None
        self._barren_respawns = 0
        if item is not None:
            meter = item.context.meter()
            if meter is not None:
                meter.commit_task(item.task_id)
        with self._lock:
            if item is not None:
                self._attempts.pop(item.task_id, None)
            self._deliver_locked(message[0], message[1:])

    def _reclaim(self, slot: WorkerSlot, note: str) -> None:
        """A dead or hung worker's item: roll back its partial tenant
        charges, then requeue it first (other tasks may gate on it) —
        or, once its attempt budget is spent, fail its own ticket."""
        item, slot.item = slot.item, None
        if item is None:
            return
        meter = item.context.meter()
        if meter is not None:
            meter.rollback_task(item.task_id)
        with self._lock:
            notes = self._attempts.setdefault(item.task_id, [])
            notes.append(note)
            if len(notes) < self._retry_budget:
                self._ready.appendleft(item)
                return
            del self._attempts[item.task_id]
            self._deliver_locked(
                item.ticket, ("exhausted", item.task, None, 0.0, notes)
            )

    def shutdown(self, graceful: bool = True) -> None:
        """Reap the team: sentinels and bounded joins when graceful,
        then terminate stragglers (a cancelled job must not leave
        orphans behind)."""
        for slot in self.slots:
            if graceful and slot.proc.is_alive():
                try:
                    slot.conn.send(None)
                except (OSError, ValueError):
                    pass
        for slot in self.slots:
            if graceful:
                slot.proc.join(timeout=5.0)
            if slot.proc.is_alive():
                slot.proc.terminate()
                slot.proc.join(timeout=5.0)
            slot.close()


# ---------------------------------------------------------------------------
# The task graph
# ---------------------------------------------------------------------------


def run_graph(executor, context: TaskContext, cell_tasks, provision_tasks,
              cell_triples, max_inflight: int, partitions=None):
    """Drive one job's tasks through ``executor`` (a
    :class:`Supervisor`): yields ``(task, payload, seconds)`` per
    completed provision or cell task, in completion order.

    ``cell_triples`` maps cell index -> set of provisioning triples the
    cell is gated on; a gated cell is released the moment its last
    triple completes.  ``partitions`` maps cell index -> partition plan
    (see the module docstring): a partitioned cell releases as its
    plan's initial :class:`SubTask` fan-out, absorbed results may fan
    out further (GA generations), and the cell completes via the
    :class:`AssembleTask` replay once its plan has no sub-task
    outstanding.  Sub-task completions are never yielded.

    ``max_inflight`` bounds this job's concurrently submitted tasks
    (its ``n_workers``): on a shared fleet it shares the workers fairly
    between jobs and makes a 1-worker job's cells execute strictly
    sequentially — the property per-tenant quota determinism rides on.
    A task whose workers died or hung through its whole retry budget
    raises :class:`~repro.service.jobs.TaskRetriesExhausted`; a task
    that *raises* fails the job immediately — tasks are pure functions
    of their pickled selves, so the exception would simply recur.
    """
    partitions = partitions or {}
    blocked = {
        task: set(cell_triples.get(getattr(task, "index", None), ()))
        for task in cell_tasks
    }
    waiters: dict[tuple, list] = {}
    for task in cell_tasks:
        for triple in blocked[task]:
            waiters.setdefault(triple, []).append(task)
    outstanding: dict[int, int] = {}  # cell index -> unabsorbed sub-tasks
    ready = deque(provision_tasks)  # provisioning first: it unblocks cells

    def fan_out(task, parts) -> None:
        outstanding[task.index] = outstanding.get(task.index, 0) + len(parts)
        for part_id, part in parts:
            ready.append(SubTask(task.index, part_id, task.cell, part))

    def release(task) -> None:
        plan = partitions.get(getattr(task, "index", None))
        if plan is None:
            ready.append(task)
        else:
            fan_out(task, plan.initial_parts())

    for task in cell_tasks:
        if not blocked[task]:
            release(task)
    total = len(cell_tasks) + len(provision_tasks)
    ticket, mailbox = executor.open_ticket()
    inflight = done = 0
    try:
        while done < total:
            while ready and inflight < max_inflight:
                executor.submit(ticket, context, ready.popleft())
                inflight += 1
            message = executor.receive(mailbox)
            if message is None:
                continue
            kind, task, payload, seconds, error = message
            inflight -= 1
            if kind == "exhausted":
                raise TaskRetriesExhausted(task.label(), error)
            if kind == "error":
                raise JobFailed(f"task {task.label()!r} failed:\n{error}")
            if isinstance(task, SubTask):
                plan = partitions[task.index]
                outstanding[task.index] -= 1
                fan_out(task, plan.absorb(task.part_id, payload))
                if outstanding[task.index] == 0:
                    ready.append(
                        AssembleTask(task.index, task.cell, plan.script())
                    )
                continue
            done += 1
            if isinstance(task, ProvisionTask):
                for waiter in waiters.pop(task.triple, ()):
                    pending = blocked[waiter]
                    pending.discard(task.triple)
                    if not pending:
                        release(waiter)
            yield task, payload, seconds
    finally:
        executor.close_ticket(ticket)


def run_stealing(cell_tasks, provision_tasks, cell_triples, n_workers,
                 backend, store_path, partitions=None):
    """Run one job's task graph (see :func:`run_graph`) on a private
    :class:`Supervisor` of up to ``n_workers`` workers, stepped by the
    consumer of the returned generator — the parent stays
    single-threaded whenever a worker forks or respawns.  The team is
    reaped when the generator finishes, fails or is closed."""
    n_results = len(cell_tasks) + len(provision_tasks)
    # Partitioned rounds hold more units than results, so size the team
    # by the requested width rather than the (smaller) result count.
    n_units = max(n_results, n_workers) if partitions else n_results
    supervisor = Supervisor(max(1, min(n_workers, n_units)))
    supervisor.start()
    graceful = False
    try:
        yield from run_graph(
            supervisor, TaskContext(backend, store_path), cell_tasks,
            provision_tasks, cell_triples, supervisor.n_workers, partitions,
        )
        graceful = True
    finally:
        supervisor.shutdown(graceful)
