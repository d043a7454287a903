"""Foundry-service tests: job lifecycle, work-stealing determinism,
journal resume (including after a hard SIGKILL), provisioning gating,
and up-front validation of worker counts and job payloads."""

import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro.campaigns import (
    CampaignCell,
    ChipSpec,
    ThreatScenario,
    run_campaign,
)
from repro.engine import CalibrationStore
from repro.service import (
    CampaignJob,
    ExperimentJob,
    FoundryService,
    JobCancelled,
    JobFailed,
    JobJournal,
    JobStatus,
    JournalMismatch,
    ProvisioningJob,
    SERVICE_WORKERS_ENV,
    default_worker_count,
    validate_worker_count,
)


def oracle_cells(n: int = 4, budget: int = 6) -> list:
    """Cheap oracle-only cells (no calibration in the loop)."""
    base = ThreatScenario(budget=budget, n_fft=1024, seed=5)
    return [CampaignCell("brute-force", base.with_(seed=s)) for s in range(n)]


def fleet_cells() -> list:
    """A mixed campaign: gated fabric cells on two dies plus oracle and
    bench-scheme cells — the shape that exercises provisioning gating."""
    base = ThreatScenario(budget=6, n_fft=1024, seed=5)
    return [
        CampaignCell("removal", base.with_(chip=ChipSpec(chip_id=0))),
        CampaignCell("brute-force", base),
        CampaignCell("removal", base.with_(chip=ChipSpec(chip_id=1))),
        CampaignCell(
            "brute-force",
            base.with_(scheme="mixlock", scheme_params=(("n_key_bits", 5),)),
        ),
        CampaignCell("removal", base.with_(scheme="memristor")),
    ]


class TestWorkStealingDeterminism:
    """The tentpole acceptance: reports bit-identical to sequential
    execution across worker counts, backends and scheduler modes."""

    def test_worker_counts_and_schedulers_are_bit_identical(self):
        cells = fleet_cells()
        sequential = run_campaign(cells, n_workers=1)
        for n_workers in (2, 4):
            stealing = run_campaign(cells, n_workers=n_workers)
            assert stealing.reports == sequential.reports
            assert stealing.n_workers == n_workers

    def test_backends_bit_identical_through_scheduler(self):
        cells = fleet_cells()[:3]
        reference = run_campaign(cells, n_workers=2, backend="reference")
        vectorized = run_campaign(cells, n_workers=2, backend="vectorized")
        assert reference.reports == vectorized.reports

    def test_stream_completion_order_and_result_order(self):
        cells = oracle_cells(3)
        handle = FoundryService().submit(
            CampaignJob(cells=tuple(cells), n_workers=2)
        )
        events = [e for e in handle.stream() if e.kind == "cell"]
        assert sorted(e.index for e in events) == [0, 1, 2]
        result = handle.result()
        # Whatever order tasks completed in, reports come back in cell
        # order, matching the sequential run exactly.
        assert result.reports == run_campaign(cells).reports


class TestProvisioningFirstClass:
    def test_provision_events_unblock_gated_cells(self, tmp_path):
        """Die calibrations are tasks in the stream, and each die is
        calibrated exactly once campaign-wide (the store audit)."""
        store = str(tmp_path / "store")
        handle = FoundryService().submit(
            CampaignJob(
                cells=tuple(fleet_cells()),
                n_workers=2,
                calibration_store=store,
            )
        )
        kinds = [e.kind for e in handle.stream()]
        handle.result()
        assert kinds.count("provision") == 2  # dies 0 and 1
        assert kinds.count("cell") == len(fleet_cells())
        assert len(CalibrationStore(store).compute_events()) == 2

    def test_provisioning_job_computes_each_triple_once(self, tmp_path):
        store = str(tmp_path / "store")
        job = ProvisioningJob(
            triples=((2020, 0, 0), (2020, 1, 0)), calibration_store=store
        )
        service = FoundryService()
        assert service.submit(job).result() == 2
        assert len(CalibrationStore(store).compute_events()) == 2
        # A resubmission finds the store warm: nothing to compute.
        assert service.submit(job).result() == 0
        assert len(CalibrationStore(store).compute_events()) == 2

    def test_provisioning_job_requires_store(self):
        with pytest.raises(ValueError, match="calibration_store"):
            FoundryService().submit(ProvisioningJob(triples=((2020, 0, 0),)))


class TestJobLifecycle:
    def test_status_transitions_to_completed(self):
        handle = FoundryService().submit(
            CampaignJob(cells=tuple(oracle_cells(2)))
        )
        assert handle.status() is JobStatus.PENDING
        stream = handle.stream()
        next(stream)
        assert handle.status() is JobStatus.RUNNING
        handle.result()
        assert handle.status() is JobStatus.COMPLETED
        # The stream log replays in full for late consumers.
        assert len(list(handle.stream())) == 2

    def test_status_failed_inline(self):
        # An unknown scheme resolves only at execute time: the job
        # passes up-front validation, then fails at its first task.
        bad = CampaignCell("brute-force", ThreatScenario(scheme="adamantium"))
        handle = FoundryService().submit(CampaignJob(cells=(bad,)))
        with pytest.raises(JobFailed, match="adamantium"):
            handle.result()
        assert handle.status() is JobStatus.FAILED
        # result() keeps raising the same failure.
        with pytest.raises(JobFailed):
            handle.result()

    def test_status_failed_in_worker(self):
        cells = oracle_cells(2) + [
            CampaignCell("brute-force", ThreatScenario(scheme="adamantium"))
        ]
        handle = FoundryService().submit(
            CampaignJob(cells=tuple(cells), n_workers=2)
        )
        with pytest.raises(JobFailed, match="adamantium"):
            handle.result()
        assert handle.status() is JobStatus.FAILED

    def test_stream_raises_for_late_consumers_of_failed_job(self):
        bad = CampaignCell("brute-force", ThreatScenario(scheme="adamantium"))
        handle = FoundryService().submit(CampaignJob(cells=(bad,)))
        with pytest.raises(JobFailed):
            handle.result()
        # A late stream consumer must not mistake the failed job for a
        # completed one: the replayed log ends in the same failure.
        with pytest.raises(JobFailed, match="adamantium"):
            list(handle.stream())

    def test_cancel_before_drive_and_after_completion(self):
        service = FoundryService()
        handle = service.submit(CampaignJob(cells=tuple(oracle_cells(1))))
        assert handle.cancel() is True
        assert handle.status() is JobStatus.CANCELLED
        with pytest.raises(JobCancelled):
            handle.result()
        done = service.submit(CampaignJob(cells=tuple(oracle_cells(1))))
        done.result()
        assert done.cancel() is False
        assert done.status() is JobStatus.COMPLETED

    def test_unknown_job_type_rejected(self):
        with pytest.raises(TypeError, match="unknown job type"):
            FoundryService().submit(object())

    def test_unknown_attack_rejected_at_submit(self):
        cell = CampaignCell("rowhammer", ThreatScenario())
        with pytest.raises(KeyError, match="unknown attack"):
            FoundryService().submit(CampaignJob(cells=(cell,)))

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            FoundryService().submit(
                CampaignJob(cells=(), scheduler="mystery")
            )

    def test_experiment_job_validates_names_at_submit(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            FoundryService().submit(ExperimentJob(names=("fig99",)))


class TestWorkerCountValidation:
    """Satellite: worker counts rejected up front, REPRO_ENGINE_THREADS
    convention (positive integer, valid range in the error)."""

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_run_campaign_rejects_non_positive(self, bad):
        with pytest.raises(ValueError, match=r"n_workers must be a positive integer"):
            run_campaign(oracle_cells(2), n_workers=bad)

    def test_error_names_valid_range(self):
        with pytest.raises(ValueError, match=">= 1"):
            validate_worker_count(0)
        with pytest.raises(ValueError, match="got 2.5"):
            validate_worker_count(2.5)

    def test_service_default_rejected_up_front(self):
        with pytest.raises(ValueError, match="n_workers"):
            FoundryService(n_workers=0)

    def test_env_default_parsed_and_validated(self, monkeypatch):
        monkeypatch.delenv(SERVICE_WORKERS_ENV, raising=False)
        assert default_worker_count() == 1
        monkeypatch.setenv(SERVICE_WORKERS_ENV, "3")
        assert default_worker_count() == 3
        for bad in ("0", "-2", "two"):
            monkeypatch.setenv(SERVICE_WORKERS_ENV, bad)
            with pytest.raises(ValueError, match=SERVICE_WORKERS_ENV):
                default_worker_count()

    def test_env_default_reaches_campaigns(self, monkeypatch):
        monkeypatch.setenv(SERVICE_WORKERS_ENV, "2")
        cells = oracle_cells(3)
        result = run_campaign(cells)
        assert result.n_workers == 2
        assert result.reports == run_campaign(cells, n_workers=1).reports


class TestJournalResume:
    def test_cancelled_campaign_resumes_bit_identically(self, tmp_path):
        cells = fleet_cells()
        uninterrupted = run_campaign(cells)
        journal = str(tmp_path / "journal")
        service = FoundryService()
        job = CampaignJob(cells=tuple(cells), n_workers=2, journal=journal)
        handle = service.submit(job)
        finished = 0
        for event in handle.stream():
            if event.kind == "cell":
                finished += 1
                if finished == 2:
                    handle.cancel()
        assert handle.status() is JobStatus.CANCELLED
        with pytest.raises(JobCancelled):
            handle.result()
        # The journal holds exactly the finished cells; resubmitting
        # the identical job replays them and executes only the rest.
        resumed = service.submit(job)
        kinds = [e.kind for e in resumed.stream() if e.kind in ("cell", "replay")]
        assert kinds.count("replay") == finished
        assert kinds.count("cell") == len(cells) - finished
        assert resumed.result().reports == uninterrupted.reports
        # Total journal computes across both runs: one per cell.
        assert len(JobJournal(journal).events()) == len(cells)

    def test_resume_after_sigkill(self, tmp_path):
        """The acceptance property: a campaign whose driver process is
        SIGKILLed mid-run resumes from its journal and reproduces the
        uninterrupted run's reports bit-identically."""
        cells = oracle_cells(6, budget=24)
        uninterrupted = run_campaign(cells)
        journal = str(tmp_path / "journal")
        cells_file = str(tmp_path / "cells.pkl")
        with open(cells_file, "wb") as fh:
            pickle.dump(cells, fh)
        script = (
            "import pickle, sys\n"
            "from repro.service import CampaignJob, FoundryService\n"
            "cells = pickle.load(open(sys.argv[1], 'rb'))\n"
            "handle = FoundryService().submit(CampaignJob(\n"
            "    cells=tuple(cells), n_workers=2, journal=sys.argv[2]))\n"
            "for event in handle.stream():\n"
            "    if event.kind == 'cell':\n"
            "        print('CELL', flush=True)\n"
            "print('ALLDONE', flush=True)\n"
        )
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = "src" + (os.pathsep + inherited if inherited else "")
        proc = subprocess.Popen(
            [sys.executable, "-c", script, cells_file, journal],
            stdout=subprocess.PIPE,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
            text=True,
            start_new_session=True,
        )
        try:
            seen = 0
            for line in proc.stdout:
                if line.strip() == "CELL":
                    seen += 1
                    if seen >= 2:
                        break
                if line.strip() == "ALLDONE":
                    break
            # Kill the whole driver session (scheduler and workers).
            os.killpg(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
            proc.stdout.close()
        journaled = len(JobJournal(journal).completed_cells(len(cells)))
        assert journaled >= 1  # the kill left finished cells behind
        resumed = run_campaign(cells, n_workers=2, journal=journal)
        assert resumed.reports == uninterrupted.reports

    def test_torn_journal_entry_degrades_to_recompute(self, tmp_path):
        """A kill landing mid-write leaves a torn entry: it must read
        as a miss and the cell re-executes to the identical report."""
        cells = oracle_cells(3)
        journal = str(tmp_path / "journal")
        baseline = run_campaign(cells, journal=journal)
        # Truncate one journaled task entry in place.
        tasks_dir = tmp_path / "journal" / "tasks"
        entry = sorted(tasks_dir.glob("cal-*.pkl"))[0]
        entry.write_bytes(entry.read_bytes()[:7])
        resumed = run_campaign(cells, journal=journal)
        assert resumed.reports == baseline.reports

    def test_journal_bound_to_one_cell_list(self, tmp_path):
        journal = str(tmp_path / "journal")
        run_campaign(oracle_cells(2), journal=journal)
        with pytest.raises(JournalMismatch, match="different job"):
            run_campaign(oracle_cells(3), journal=journal)

    def test_replay_preserves_original_timings(self, tmp_path):
        cells = oracle_cells(2)
        journal = str(tmp_path / "journal")
        first = run_campaign(cells, journal=journal)
        handle = FoundryService().submit(
            CampaignJob(cells=tuple(cells), journal=journal)
        )
        replays = [e for e in handle.stream() if e.kind == "replay"]
        assert [e.seconds for e in replays] == first.cell_seconds
        assert handle.result().cell_seconds == first.cell_seconds

    def test_journal_keeps_calibrations_warm(self, tmp_path):
        """The journal bundles the calibration store: a resumed
        campaign must not recalibrate dies the killed run provisioned."""
        cells = [fleet_cells()[0], fleet_cells()[2]]  # two fabric dies
        journal = str(tmp_path / "journal")
        run_campaign(cells, n_workers=2, journal=journal)
        store = CalibrationStore(
            JobJournal(journal).calibration_store_path()
        )
        assert len(store.compute_events()) == 2
        # Re-running replays both cells; the store stays at 2 computes.
        run_campaign(cells, n_workers=2, journal=journal)
        assert len(store.compute_events()) == 2


class TestExperimentJob:
    def test_experiment_stream_matches_registry_order(self):
        handle = FoundryService().submit(
            ExperimentJob(names=("tab-keys", "tab-ovr"))
        )
        events = list(handle.stream())
        assert [e.label for e in events] == ["tab-keys", "tab-ovr"]
        results = handle.result()
        assert [r.experiment_id for r in results] == [
            e.payload.experiment_id for e in events
        ]
        assert handle.status() is JobStatus.COMPLETED
