"""Workload ``lot_provisioning``: a lot of dies given their secret
14-step calibration.

One in-process :class:`~repro.service.jobs.ProvisioningJob` of fresh
``(lot, die, standard)`` triples — ``DIES`` dies drawn from a seeded
lot, each for ``STANDARDS`` — into a cold
:class:`~repro.engine.store.CalibrationStore` with ``n_workers=2``, so
each triple is one calibration task on the work-stealing scheduler.
Each repetition starts from a new, empty store.

A *job* here is one triple's calibration task (``TaskEvent.seconds``);
the batch is the whole lot, and ``wall_s`` is the fastest repetition's
batch wall (as in ``artefacts.py``).  Correctness: every triple is in
the store after each repetition, and a seeded sample of stored results
is byte-identical (pickled) to a sequential ``Calibrator().calibrate``.

The traced run adds ``calibration.computes_per_triple`` (store audit
lines per distinct triple; 1.0 means no compute was wasted) and
``calibration.serial_wall_s``, the same lot on the 1-worker lockstep
path — the single-worker baseline.
"""

from __future__ import annotations

import pickle
import random
import shutil
import time
from pathlib import Path

import common
import spans

DIES = 8
STANDARDS = (0, 1, 2)
N_WORKERS = 2
SAMPLE = 2


def make_triples(seed: int) -> tuple:
    rng = random.Random(seed)
    lot_seed = rng.randrange(1, 1 << 30)
    dies = rng.sample(range(100_000), DIES)
    return tuple((lot_seed, die, std) for die in dies for std in STANDARDS)


def provision(triples, store_dir: Path, n_workers: int):
    """One cold-store repetition: returns ``(wall_s, events)``."""
    from repro.engine import clear_caches
    from repro.service import FoundryService, ProvisioningJob

    shutil.rmtree(store_dir, ignore_errors=True)
    clear_caches()
    start = time.perf_counter()
    handle = FoundryService().submit(ProvisioningJob(
        triples=triples, calibration_store=str(store_dir),
        n_workers=n_workers,
    ))
    events = list(handle.stream())
    handle.result()
    return time.perf_counter() - start, events


def missing_triples(triples, store_dir: Path) -> list:
    from repro.engine import CalibrationStore

    store = CalibrationStore(store_dir)
    return [t for t, hit in zip(triples, store.get_many(triples)) if hit is None]


def sample_mismatches(triples, store_dir: Path, seed: int) -> list:
    """Triples of a seeded sample whose stored result differs from a
    sequential single-die calibration."""
    from repro.calibration.procedure import Calibrator
    from repro.campaigns.scenario import ChipSpec
    from repro.engine import CalibrationStore
    from repro.receiver.standards import standard_by_index

    store = CalibrationStore(store_dir)
    bad = []
    for triple in random.Random(seed + 1).sample(list(triples), SAMPLE):
        lot_seed, die, std = triple
        expected = Calibrator().calibrate(
            ChipSpec(lot_seed=lot_seed, chip_id=die).build(),
            standard_by_index(std),
        )
        if pickle.dumps(store.get(triple)) != pickle.dumps(expected):
            bad.append(triple)
    return bad


def run(seed: int, seconds: float, traced: bool):
    triples = make_triples(seed)
    store_dir = common.BUILD / f"store-lot-{seed}"
    metrics: dict = {}
    if not traced:
        metrics["setup_s"] = common.probe_setup("lot_provisioning")

    attempted = failed = 0
    notes = []

    def check_store():
        nonlocal attempted, failed
        attempted += len(triples)
        missing = missing_triples(triples, store_dir)
        failed += len(missing)
        if missing:
            notes.append(f"{len(missing)} triple(s) missing from the store")

    reps = []
    begin = time.perf_counter()
    while not reps or (not traced and time.perf_counter() - begin < seconds):
        reps.append(provision(triples, store_dir, N_WORKERS))
        check_store()
    if traced:
        # First repetition is the warm-up; compare with a warm one.
        reps.append(provision(triples, store_dir, N_WORKERS))
        check_store()
        trace_dir = common.BUILD / f"trace-lot-{seed}"
        spans.install(trace_dir, f"lot_provisioning-{seed}")
        window_start = time.perf_counter()
        try:
            traced_wall, events = provision(triples, store_dir, N_WORKERS)
        finally:
            window_end = time.perf_counter()
            spans.uninstall()
        check_store()
        from repro.engine import CalibrationStore

        audit_lines = len(CalibrationStore(store_dir).compute_events())
    bad = sample_mismatches(triples, store_dir, seed)
    attempted += SAMPLE
    failed += len(bad)
    if bad:
        notes.append(f"stored results differ from sequential calibration: {bad}")
    if not notes:
        notes.append(
            f"{len(triples)} triples stored in every repetition; "
            f"{SAMPLE} sampled results equal sequential Calibrator().calibrate"
        )

    if traced:
        collected, counters = spans.collect(trace_dir)
        shutil.rmtree(trace_dir, ignore_errors=True)
        metrics.update(spans.layer_metrics(
            collected, counters, (window_start, window_end)
        ))
        task_s = sum(event.seconds for event in events)
        metrics["scheduler.task_s"] = task_s
        metrics["scheduler.worker_busy_share"] = task_s / (
            traced_wall * N_WORKERS
        )
        metrics["calibration.computes_per_triple"] = (
            audit_lines / len(set(triples))
        )
        metrics["calibration.serial_wall_s"], _ = provision(
            triples, store_dir, 1
        )
        metrics["trace.overhead_ratio"] = traced_wall / reps[-1][0]
    else:
        walls = [wall for wall, _ in reps]
        task_seconds = [e.seconds for _, events in reps for e in events]
        wall = min(walls)
        metrics.update({
            "wall_s": wall,
            "job_p50_s": common.median(task_seconds),
            "job_p90_s": common.quantile(task_seconds, 0.9),
            "burst_jobs_per_s": len(triples) / wall,
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": common.peak_rss_mb(include_self=True),
        })
    shutil.rmtree(store_dir, ignore_errors=True)
    return metrics, failed == 0, attempted, failed, notes
