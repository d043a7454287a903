"""Workload ``artefacts_quick``: the paper-reproduction path.

One in-process :class:`~repro.service.jobs.ExperimentJob` over every
quick-mode registry entry — the work ``python -m repro.experiments.
runner`` does — repeated with the engine's caches cleared in between.
The artefact set is fixed by the registry, so the seed changes
nothing here; what is measured is how fast the program regenerates the
same tables.

A *job* here is one registry entry (its ``TaskEvent.seconds``); the
batch is the whole registry.  ``wall_s`` is the fastest repetition's
batch wall and ``job_p50_s``/``job_p90_s`` are taken over each entry's
fastest time: the work is fixed and interference from a shared host
only adds time, so the fastest of the run's repetitions follows the
program's speed more closely than their median does.

Correctness: each entry's table, with no timing field in it, hashes to
the digest recorded in ``reference_digests.json`` (regenerate with
``python perfbench/artefacts.py --write-reference`` after a change
that is meant to move an artefact).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
from pathlib import Path

import common
import spans

REFERENCE = Path(__file__).resolve().parent / "reference_digests.json"


def artefact_digests(results) -> dict:
    """sha256 of each experiment table as canonical JSON."""
    from repro.campaigns.serialization import experiment_result_to_dict

    return {
        result.experiment_id: hashlib.sha256(
            json.dumps(experiment_result_to_dict(result), sort_keys=True)
            .encode()
        ).hexdigest()
        for result in results
    }


def run_once():
    """One repetition: returns ``(wall_s, events, results)``."""
    from repro.engine import clear_caches
    from repro.service import ExperimentJob, FoundryService

    clear_caches()
    start = time.perf_counter()
    handle = FoundryService().submit(ExperimentJob())
    events = list(handle.stream())
    results = handle.result()
    return time.perf_counter() - start, events, results


def run(seed: int, seconds: float, traced: bool):
    reference = json.loads(REFERENCE.read_text())["artefacts_quick"]
    metrics: dict = {}
    if not traced:
        metrics["setup_s"] = common.probe_setup("artefacts_quick")
    reps = []
    begin = time.perf_counter()
    while not reps or (not traced and time.perf_counter() - begin < seconds):
        reps.append(run_once())
    if traced:
        # The first repetition in a process pays lazy imports; compare
        # the traced repetition with a warm untraced one.
        reps.append(run_once())
        trace_dir = common.BUILD / f"trace-artefacts-{seed}"
        spans.install(trace_dir, f"artefacts_quick-{seed}")
        window_start = time.perf_counter()
        try:
            traced_rep = run_once()
        finally:
            window_end = time.perf_counter()
            spans.uninstall()
        reps.append(traced_rep)

    attempted = failed = 0
    notes = []
    for _, _, results in reps:
        digests = artefact_digests(results)
        for name, want in reference.items():
            attempted += 1
            if digests.get(name) != want:
                failed += 1
                notes.append(f"artefact {name}: digest mismatch")
    if not notes:
        notes.append(
            f"{len(reps)} repetition(s) x {len(reference)} artefacts "
            f"match the recorded digests"
        )

    if traced:
        untraced_wall = reps[-2][0]
        traced_wall, events, _ = traced_rep
        collected, counters = spans.collect(trace_dir)
        shutil.rmtree(trace_dir, ignore_errors=True)
        metrics.update(spans.layer_metrics(
            collected, counters, (window_start, window_end)
        ))
        task_s = sum(event.seconds for event in events)
        metrics["scheduler.task_s"] = task_s
        metrics["scheduler.worker_busy_share"] = task_s / traced_wall
        metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
        return metrics, failed == 0, attempted, failed, notes

    walls = [wall for wall, _, _ in reps]
    per_entry: dict = {}
    for _, events, _ in reps:
        for event in events:
            per_entry.setdefault(event.label, []).append(event.seconds)
    entry_fastest = [min(v) for v in per_entry.values()]
    wall = min(walls)
    metrics.update({
        "wall_s": wall,
        "job_p50_s": common.median(entry_fastest),
        "job_p90_s": common.quantile(entry_fastest, 0.9),
        "burst_jobs_per_s": len(reference) / wall,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": common.peak_rss_mb(include_self=True),
    })
    return metrics, failed == 0, attempted, failed, notes


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        raise SystemExit("usage: python perfbench/artefacts.py --write-reference")
    common.check_checkout()
    common.enter_checkout_env()
    _, _, results = run_once()
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data["artefacts_quick"] = artefact_digests(results)
    REFERENCE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(results)} digests to {REFERENCE}")
