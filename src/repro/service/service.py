"""The foundry service: one ``submit(job) -> JobHandle`` front door.

:class:`FoundryService` is the execution layer everything above the
engine now talks to: campaigns, fleet provisioning passes and
experiment-registry runs are all :mod:`~repro.service.jobs` submitted
through one API and executed behind one scheduler.  A submitted job is
validated up front (worker counts, scheduler name, attack names,
journal binding — all rejected before any work starts) and returns a
:class:`JobHandle`:

* ``handle.stream()`` — iterate :class:`~repro.service.jobs.TaskEvent`
  records as tasks complete (completion order, not cell order);
* ``handle.result()`` — drive to completion and return the job's
  result (a :class:`~repro.campaigns.campaign.CampaignResult`, a
  provisioning count, or the experiment result list);
* ``handle.status()`` — the :class:`~repro.service.jobs.JobStatus`
  lifecycle;
* ``handle.cancel()`` — stop scheduling, reap the worker team, keep
  everything already journaled.

The handle's consumer drives the job: multi-worker jobs run on a
private :class:`~repro.service.scheduler.Supervisor` that the consumer
steps, so no thread lives in the parent process and it is
single-threaded whenever a worker forks or respawns — the same
fork-safety argument as the engine kernel's per-call thread teams.
The daemon runs the identical task graph on its persistent fleet by
overriding the executor hook (``_run_tasks``) and two policy hooks
(``_runs_inline``, ``_clear_lock_debris``).  Campaign reports are
bit-identical to a sequential run whatever the worker count or backend
(cells rebuild their chips and seed their own RNGs; calibrations are
deterministic values read through the shared store), and a campaign
with a journal resumes from its finished cells after a kill — both
held in ``tests/test_service.py``.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass

from repro.engine import CalibrationStore, get_default_engine, set_default_backend
from repro.service.jobs import (
    TERMINAL_STATUSES,
    CampaignJob,
    ExperimentJob,
    JobCancelled,
    JobFailed,
    JobStatus,
    ProvisioningJob,
    TaskEvent,
    default_worker_count,
    validate_worker_count,
)
from repro.service.journal import JobJournal, cells_fingerprint
from repro.service.scheduler import CellTask, ProvisionTask, run_stealing


def plan_campaign_tasks(todo, store):
    """Turn the remaining ``(index, cell)`` pairs into scheduler tasks.

    Returns ``(cell_tasks, provision_tasks, cell_triples)``:
    the cells as :class:`CellTask` records, one :class:`ProvisionTask`
    per calibration triple the cells declare that ``store`` does not
    already hold, and the gating map (cell index -> set of missing
    triples the cell must wait for).
    """
    from repro.campaigns.campaign import cell_triples as triples_of

    cell_triples = {index: triples_of(cell) for index, cell in todo}
    triples = sorted(set().union(*cell_triples.values())) if cell_triples else []
    missing = [
        t for t, hit in zip(triples, store.get_many(triples))
        if hit is None
    ]
    for index in cell_triples:
        cell_triples[index] &= set(missing)
    cell_tasks = [CellTask(index, cell) for index, cell in todo]
    return cell_tasks, [ProvisionTask(t) for t in missing], cell_triples


def plan_cell_partitions(todo):
    """Partition plans for the ``(index, cell)`` pairs whose attack
    adapter declares one (``{cell index: plan}``; empty when every cell
    runs scalar).  Built fresh per scheduling round — plans are
    stateful, parent-side objects the scheduler drives."""
    from repro.campaigns.campaign import cell_partition

    partitions = {}
    for index, cell in todo:
        plan = cell_partition(cell)
        if plan is not None:
            partitions[index] = plan
    return partitions


def journal_task_events(events, journal):
    """Map raw ``(task, payload, seconds)`` results to
    :class:`TaskEvent` records, journaling each finished cell the
    moment its result arrives — the shared tail of every campaign
    execution path (in-process, private supervisor, daemon fleet)."""
    for task, payload, seconds in events:
        if isinstance(task, CellTask):
            if journal is not None:
                journal.put_cell(task.index, task.label(), payload, seconds)
            yield TaskEvent("cell", task.label(), task.index, payload, seconds)
        else:
            yield TaskEvent("provision", task.label(), None, payload, seconds)


class JobHandle:
    """Lifecycle handle of one submitted job (see module docstring)."""

    def __init__(self, job, executor):
        self.job = job
        self._executor = executor
        self._status = JobStatus.PENDING
        self._events: list[TaskEvent] = []
        self._result = None
        self._error: JobFailed | None = None
        self._cancelled = False
        self._gen = None

    def status(self) -> JobStatus:
        """Where the job is in its lifecycle."""
        return self._status

    def events(self) -> list[TaskEvent]:
        """Every event delivered so far (the stream's log)."""
        return list(self._events)

    def _run(self):
        self._result = yield from self._executor()

    def _advance(self) -> bool:
        """Drive one task event; False when no more will come."""
        if self._status in TERMINAL_STATUSES:
            return False
        if self._cancelled:
            self._status = JobStatus.CANCELLED
            return False
        if self._gen is None:
            self._gen = self._run()
            self._status = JobStatus.RUNNING
        try:
            event = self._gen.send(None)
        except StopIteration:
            self._status = JobStatus.COMPLETED
            return False
        except JobFailed as exc:
            self._status = JobStatus.FAILED
            self._error = exc
            raise
        except BaseException as exc:
            self._status = JobStatus.FAILED
            self._error = JobFailed(
                f"{self.job.__class__.__name__} failed: "
                f"{type(exc).__name__}: {exc}"
            )
            raise self._error from exc
        self._events.append(event)
        return True

    def stream(self):
        """Yield :class:`TaskEvent` records as tasks complete.

        Drives the job while iterated.  **Consumer contract
        (buffer-replay):** every consumer sees the full event log from
        the beginning — events already delivered are replayed first,
        so late consumers, repeated consumers and a second *concurrent*
        ``stream()`` on the same handle all observe the identical
        complete sequence; concurrent consumers never split events
        between them.  (Two streams of one handle interleaved from
        different threads are not supported — the handle's consumer
        drives the job single-threadedly.)  The stream simply ends on
        cancellation; a failure raises :class:`JobFailed` after the
        delivered events — for live and late consumers alike, so a
        failed job is never mistaken for a completed one.
        """
        i = 0
        while True:
            while i >= len(self._events):
                if not self._advance():
                    if self._status is JobStatus.FAILED:
                        raise self._error
                    return
            yield self._events[i]
            i += 1

    def wait(self, timeout: float | None = None) -> bool:
        """Drive the job until it reaches a terminal status, or until
        ``timeout`` seconds elapse.

        Returns True when the job finished (COMPLETED, FAILED *or*
        CANCELLED — inspect ``status()`` or call ``result()`` to
        distinguish), False on timeout.  The in-process handle is
        consumer-driven, so the deadline is checked between tasks: a
        task already running is never preempted, and ``wait(0)`` on an
        undriven job does no work at all.  The network-backed
        :class:`~repro.service.client.RemoteJobHandle` has the same
        signature with the daemon driving regardless.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._status not in TERMINAL_STATUSES:
            if deadline is not None and time.monotonic() >= deadline:
                return False
            try:
                if not self._advance():
                    break
            except JobFailed:
                break
        return True

    def result(self, timeout: float | None = None):
        """Drive the job to completion and return its result.

        Raises :class:`JobFailed` when a task raised,
        :class:`JobCancelled` when the job was cancelled, and
        :class:`TimeoutError` when ``timeout`` seconds elapse first
        (checked at task boundaries; see :meth:`wait`) — the job is
        *not* cancelled by a timeout, so a later ``result()`` resumes
        driving it.
        """
        if not self.wait(timeout):
            raise TimeoutError(
                f"job still {self._status.value} after {timeout} s "
                f"({len(self._events)} tasks completed); result() again "
                f"to keep driving, cancel() to stop"
            )
        if self._status is JobStatus.FAILED:
            raise self._error
        if self._status is JobStatus.CANCELLED:
            raise JobCancelled(
                f"job cancelled after {len(self._events)} completed tasks"
            )
        return self._result

    def cancel(self) -> bool:
        """Stop the job at the next task boundary.

        Finished tasks stay journaled (a resubmission resumes from
        them); in-flight workers are reaped.  Returns False when the
        job had already finished.
        """
        if self._status in TERMINAL_STATUSES:
            return False
        self._cancelled = True
        if self._gen is not None:
            self._gen.close()  # GeneratorExit -> scheduler reaps workers
            self._gen = None
        self._status = JobStatus.CANCELLED
        return True


@dataclass(frozen=True)
class ExperimentTask:
    """One experiment-registry entry as a task (the daemon runs
    experiment jobs on its fleet — the daemon process itself never
    simulates)."""

    name: str
    full: bool = False
    position: int = 0

    def label(self) -> str:
        return self.name

    def key(self) -> tuple:
        """Stable identity for retry accounting and charge reservations."""
        return ("experiment", self.position, self.name)

    def run(self):
        from repro.experiments.runner import REGISTRY

        return REGISTRY[self.name].execute(full=self.full)


def _run_inline(tasks):
    """Execute ``tasks`` in this process, in order, as ``(task,
    payload, seconds)`` results."""
    for task in tasks:
        start = time.perf_counter()
        payload = task.run()
        yield task, payload, time.perf_counter() - start


class FoundryService:
    """Job-oriented execution front door (``submit`` / ``JobHandle``).

    Args:
        n_workers: Default worker count for jobs that do not pin one;
            None falls back to ``REPRO_SERVICE_WORKERS`` (default 1).
    """

    def __init__(self, n_workers: int | None = None):
        if n_workers is not None:
            validate_worker_count(n_workers)
        self.n_workers = n_workers

    # -- submission -------------------------------------------------------

    def submit(self, job) -> JobHandle:
        """Validate ``job`` up front and return its handle (PENDING).

        Execution is driven by the handle's consumer — iterate
        ``stream()`` or call ``result()``.
        """
        if isinstance(job, CampaignJob):
            prepare = self._prepare_campaign
        elif isinstance(job, ProvisioningJob):
            prepare = self._prepare_provisioning
        elif isinstance(job, ExperimentJob):
            prepare = self._prepare_experiments
        else:
            raise TypeError(
                f"unknown job type {type(job).__name__}; submit a "
                f"CampaignJob, ProvisioningJob or ExperimentJob"
            )
        job.validate()
        executor = prepare(job)
        return JobHandle(job, executor)

    def _resolve_workers(self, job_workers: int | None) -> int:
        if job_workers is not None:
            return validate_worker_count(job_workers)
        if self.n_workers is not None:
            return self.n_workers
        return default_worker_count()

    # -- execution policy (the daemon's fleet service overrides these) ----

    def _runs_inline(self, n_workers: int, n_tasks: int) -> bool:
        """Whether a job of ``n_tasks`` tasks runs in this process
        rather than on workers: 1-worker jobs and single tasks gain
        nothing from a worker team."""
        return n_workers == 1 or n_tasks <= 1

    def _clear_lock_debris(self, store, triples) -> None:
        """Clear a killed run's ``get_or_set`` locks on the missing
        ``triples`` up front — correct because this service owns its
        calibration store exclusively for the job."""
        for triple in triples:
            store.clear_lock(triple)

    def _run_tasks(self, backend, store_path, cell_tasks, provision_tasks,
                   cell_triples, n_workers, partitions=None):
        """Execute one task graph — the executor hook: a private
        supervisor here, the persistent fleet in the daemon."""
        return run_stealing(cell_tasks, provision_tasks, cell_triples,
                            n_workers, backend, store_path, partitions)

    # -- campaign jobs ----------------------------------------------------

    def _prepare_campaign(self, job: CampaignJob):
        from repro.campaigns.attacks import make_attack

        cells = list(job.cells)
        n_workers = self._resolve_workers(job.n_workers)
        # Up-front validation: every attack name must resolve before
        # any cell (or worker fork) runs.
        for attack, params in {(c.attack, c.attack_params) for c in cells}:
            make_attack(attack, **dict(params))
        journal = None
        if job.journal is not None:
            journal = JobJournal(job.journal)
            journal.bind(
                cells_fingerprint(cells), meta={"n_cells": len(cells)}
            )
        return lambda: self._campaign_events(job, cells, n_workers, journal)

    def _campaign_events(self, job, cells, n_workers, journal):
        from repro.campaigns.campaign import CampaignResult

        resolved_backend = job.backend or get_default_engine().backend
        reports: dict[int, object] = {}
        timings: dict[int, float] = {}
        replayed = journal.completed_cells(len(cells)) if journal else {}
        for index in sorted(replayed):
            label, report, seconds = replayed[index]
            reports[index] = report
            timings[index] = seconds
            yield TaskEvent("replay", label, index, report, seconds)
        todo = [(i, cell) for i, cell in enumerate(cells) if i not in replayed]
        results, reported_workers = self._campaign_runner(job, todo, n_workers,
                                                          journal)
        for event in journal_task_events(results, journal):
            if event.kind == "cell":
                reports[event.index] = event.payload
                timings[event.index] = event.seconds
            yield event
        return CampaignResult(
            reports=[reports[i] for i in range(len(cells))],
            cell_seconds=[timings[i] for i in range(len(cells))],
            n_workers=reported_workers,
            backend=resolved_backend,
        )

    def _campaign_runner(self, job, todo, n_workers, journal):
        """Choose how the remaining cells execute: ``(results,
        reported_workers)``, where ``results`` yields ``(task, payload,
        seconds)`` for the shared journaling tail.

        Small jobs run in-process (the ground-truth path, see
        ``_runs_inline``) and everything else as a task graph on
        supervised workers.  Either way the results have the same
        shape, which is why reports are bit-identical across execution
        modes.
        """
        partitions = plan_cell_partitions(todo)
        # A partitioned cell counts as several tasks: a single
        # partitioned cell is exactly the dominant-cell case sub-task
        # scheduling exists for, so it still shards.
        if self._runs_inline(n_workers, len(todo) + len(partitions)):
            return self._campaign_inline(job, todo, journal), 1
        return (
            self._campaign_graph(job, todo, n_workers, journal, partitions),
            n_workers,
        )

    def _campaign_inline(self, job, todo, journal):
        """In-process execution, cell order — the ground truth every
        other mode is differentially held against."""
        engine = get_default_engine()
        previous_backend = engine.backend
        previous_store = engine.calibration_store
        store_dir = job.calibration_store or (
            journal.calibration_store_path() if journal else None
        )
        if job.backend is not None:
            set_default_backend(job.backend)
        if store_dir is not None:
            engine.calibration_store = CalibrationStore(store_dir)
        try:
            yield from _run_inline(CellTask(i, cell) for i, cell in todo)
        finally:
            engine.backend = previous_backend
            engine.calibration_store = previous_store

    def _campaign_graph(self, job, todo, n_workers, journal, partitions):
        """Worker execution: provisioning and cells as one task graph."""
        store_path = job.calibration_store or (
            journal.calibration_store_path() if journal else None
        )
        own_tmp = store_path is None
        if own_tmp:
            store_path = tempfile.mkdtemp(prefix="repro-calstore-")
        try:
            store = CalibrationStore(store_path)
            cell_tasks, provision_tasks, cell_triples = plan_campaign_tasks(
                todo, store
            )
            self._clear_lock_debris(store, [p.triple for p in provision_tasks])
            yield from self._run_tasks(
                job.backend, store_path, cell_tasks, provision_tasks,
                cell_triples, n_workers, partitions,
            )
        finally:
            if own_tmp:
                shutil.rmtree(store_path, ignore_errors=True)

    # -- provisioning jobs ------------------------------------------------

    def _prepare_provisioning(self, job: ProvisioningJob):
        n_workers = self._resolve_workers(job.n_workers)
        return lambda: self._provisioning_events(job, n_workers)

    def _provisioning_events(self, job, n_workers):
        from repro.campaigns.campaign import provision_fleet

        store = CalibrationStore(job.calibration_store)
        triples = sorted({tuple(t) for t in job.triples})
        missing = [
            t for t, hit in zip(triples, store.get_many(triples))
            if hit is None
        ]
        if not missing:
            return 0
        self._clear_lock_debris(store, missing)
        if self._runs_inline(n_workers, len(missing)):
            start = time.perf_counter()
            provision_fleet(missing, store, backend=job.backend)
            yield TaskEvent(
                "provision",
                f"fleet of {len(missing)} dies",
                None,
                tuple(missing),
                time.perf_counter() - start,
            )
            return len(missing)
        events = self._run_tasks(
            job.backend, str(store.path), [],
            [ProvisionTask(t) for t in missing], {}, n_workers,
        )
        for task, payload, seconds in events:
            yield TaskEvent("provision", task.label(), None, payload, seconds)
        return len(missing)

    # -- experiment jobs --------------------------------------------------

    def _prepare_experiments(self, job: ExperimentJob):
        return lambda: self._experiment_events(job)

    def _experiment_events(self, job):
        from repro.experiments.runner import REGISTRY

        selected = [n for n in REGISTRY if not job.names or n in job.names]
        tasks = [
            ExperimentTask(name, job.full, position)
            for position, name in enumerate(selected)
        ]
        # n_workers=1: experiments stream in report order, exactly
        # like the in-process registry loop.
        if self._runs_inline(1, len(tasks)):
            if job.backend is not None:
                set_default_backend(job.backend)
            results = _run_inline(tasks)
        else:
            results = self._run_tasks(job.backend, None, tasks, [], {}, 1)
        payloads = []
        for task, payload, seconds in results:
            payloads.append(payload)
            yield TaskEvent("experiment", task.name, task.position, payload,
                            seconds)
        return payloads
