"""Job-oriented execution service: submit, stream, resume.

The campaign, provisioning and experiment layers used to each own
their execution loop; this package gives them one.  A
:class:`~repro.service.service.FoundryService` accepts declarative
:mod:`jobs <repro.service.jobs>` through a single
``submit(job) -> JobHandle`` API:

* :class:`~repro.service.jobs.CampaignJob` — an attack campaign's cell
  list, executed behind a **work-stealing scheduler**
  (:mod:`repro.service.scheduler`): cells are tasks on a shared queue
  that workers pull as they free up, die calibrations are first-class
  tasks that unblock their gated attack cells the moment they land —
  early-calibrated dies attack while stragglers are still calibrating
  — and imbalanced fleets pack tightly instead of idling behind a
  dominant cell;
* :class:`~repro.service.jobs.ProvisioningJob` — a fleet calibration
  pass into a shared store;
* :class:`~repro.service.jobs.ExperimentJob` — registered paper
  artefacts in report order.

The handle streams :class:`~repro.service.jobs.TaskEvent` records as
tasks complete (``stream()``), assembles the job's result
(``result()``), reports the lifecycle (``status()``) and cancels
cleanly (``cancel()``).  Completed cells journal into an on-disk
:class:`~repro.service.journal.JobJournal` as they finish, so a killed
campaign resumes from its finished cells bit-identically.

Reports are bit-identical to sequential execution across worker
counts and backends — cells rebuild their chips and seed their own
RNGs, and calibrations are deterministic values read through the
shared :class:`~repro.engine.store.CalibrationStore` — held
differentially in ``tests/test_service.py``.
:func:`~repro.campaigns.campaign.run_campaign`, the experiment runner
and the example studies are thin clients of this service.

Execution is **self-healing**: one
:class:`~repro.service.scheduler.Supervisor` runs every worker — a
private one that the consumer drives in-process, and the daemon's
persistent fleet, which is the same supervisor stepped by a router
thread.  Workers that die or hang mid-task are respawned and their
task retried up to ``REPRO_TASK_RETRIES`` attempts (a hung worker is
reclaimed after ``REPRO_TASK_TIMEOUT`` seconds of heartbeat silence),
with reports byte-identical across any crash schedule — held under the
deterministic fault-injection plans of :mod:`repro.faults` in
``tests/test_faults.py``.
"""

from repro.service.jobs import (
    CampaignJob,
    ExperimentJob,
    JobCancelled,
    JobFailed,
    JobStatus,
    JournalMismatch,
    ProvisioningJob,
    SCHEDULERS,
    SERVICE_WORKERS_ENV,
    TASK_RETRIES_ENV,
    TASK_TIMEOUT_ENV,
    TaskEvent,
    TaskRetriesExhausted,
    default_worker_count,
    task_retry_budget,
    task_timeout_seconds,
    validate_worker_count,
)
from repro.service.journal import JobJournal, cells_fingerprint
from repro.service.service import FoundryService, JobHandle
from repro.service.protocol import SERVICE_SOCKET_ENV, SERVICE_TENANT_ENV
from repro.service.tenants import (
    RateLimited,
    TenantConfig,
    TenantMeter,
    TokenBucket,
    parse_tenant_spec,
)
from repro.service.client import DaemonClient, RemoteJobHandle
from repro.service.daemon import DaemonUnavailable, FoundryDaemon, WorkerFleet
from repro.service.gateway import (
    BackendDown,
    FoundryGateway,
    GATEWAY_BACKENDS_ENV,
    rendezvous_backend,
)
from repro.service.http import FoundryHTTPFrontend, job_from_json

__all__ = [
    "BackendDown",
    "CampaignJob",
    "DaemonClient",
    "DaemonUnavailable",
    "ExperimentJob",
    "FoundryDaemon",
    "FoundryGateway",
    "FoundryHTTPFrontend",
    "FoundryService",
    "GATEWAY_BACKENDS_ENV",
    "JobCancelled",
    "JobFailed",
    "JobHandle",
    "JobJournal",
    "JobStatus",
    "JournalMismatch",
    "ProvisioningJob",
    "RateLimited",
    "RemoteJobHandle",
    "SCHEDULERS",
    "SERVICE_SOCKET_ENV",
    "SERVICE_TENANT_ENV",
    "SERVICE_WORKERS_ENV",
    "TASK_RETRIES_ENV",
    "TASK_TIMEOUT_ENV",
    "TaskEvent",
    "TaskRetriesExhausted",
    "TenantConfig",
    "TenantMeter",
    "TokenBucket",
    "WorkerFleet",
    "cells_fingerprint",
    "default_worker_count",
    "job_from_json",
    "parse_tenant_spec",
    "rendezvous_backend",
    "task_retry_budget",
    "task_timeout_seconds",
    "validate_worker_count",
]
