"""Campaign throughput benchmarks: fleet scheduling across workers.

A campaign over a fleet of distinct dies is embarrassingly parallel —
every cell rebuilds its own chip and seeds its own RNGs — so pulling
cells through the service's work-stealing scheduler should scale with
cores.  The sequential fleet benchmark feeds the BENCH trajectory on
any machine; the speedup ratios (>= 2x with 4 workers on a balanced
4-chip fleet; work-stealing >= 1.5x static sharding on an imbalanced
fleet with one dominant cell) are guarded wherever enough cores exist
to demonstrate parallelism at all.
"""

import multiprocessing
import queue
import time

import pytest

from repro.campaigns import CampaignCell, ChipSpec, ThreatScenario, run_campaign
from repro.engine import CalibrationStore, usable_cpus

pytestmark = pytest.mark.bench

N_CHIPS = 4


def fleet_cells(budget: int, n_fft: int = 2048) -> list[CampaignCell]:
    """One brute-force cell per die of a 4-chip fleet (no calibration
    in the loop — pure oracle work, the sharding-relevant load)."""
    base = ThreatScenario(budget=budget, n_fft=n_fft, seed=11)
    return [
        CampaignCell("brute-force", base.with_(chip=ChipSpec(chip_id=chip_id)))
        for chip_id in range(N_CHIPS)
    ]


def _run_shard(shard, results) -> None:
    from repro.campaigns.campaign import _worker_init

    try:
        _worker_init(None)
        for index, cell in shard:
            results.put((index, cell.execute()))
    except BaseException as exc:  # hand the failure to the parent
        results.put((None, repr(exc)))


def run_static_shards(cells, n_workers: int) -> list:
    """The naive baseline the work-stealing scheduler is guarded
    against: contiguous cell shards pre-assigned one per worker
    process, so a dominant cell pins its whole shard behind it.
    Returns the reports in cell order."""
    indexed = list(enumerate(cells))
    chunk = -(-len(indexed) // n_workers)
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    workers = [
        ctx.Process(target=_run_shard, args=(indexed[i:i + chunk], results),
                    daemon=True)
        for i in range(0, len(indexed), chunk)
    ]
    for worker in workers:
        worker.start()
    reports = {}
    try:
        while len(reports) < len(indexed):
            try:
                index, report = results.get(timeout=1.0)
            except queue.Empty:
                codes = [worker.exitcode for worker in workers]
                if any(codes) or None not in codes:
                    raise RuntimeError(
                        f"static shard workers exited {codes} with "
                        f"{len(indexed) - len(reports)} cells unreported"
                    ) from None
                continue
            if index is None:
                raise RuntimeError(f"static shard failed: {report}")
            reports[index] = report
    finally:
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
            worker.join()
    return [reports[i] for i in range(len(indexed))]


def test_bench_campaign_sequential_fleet(run_once):
    """Cells/second of an in-process 4-chip fleet campaign."""
    cells = fleet_cells(budget=32)
    run_campaign(cells)  # warm the kernel
    result = run_once(run_campaign, cells)
    assert len(result.reports) == N_CHIPS
    assert all(r.n_queries == 32 for r in result.reports)


def test_fleet_provisions_each_die_once(benchmark, tmp_path):
    """The acceptance property: no fleet recalibration across workers.

    A sharded campaign whose cells all target calibration-provisioned
    fabric locks used to recalibrate each die in every worker process
    that touched it.  With the shared calibration store and the
    provisioning phase, the store's compute audit must show exactly one
    calibration per (lot, die, standard) — however many workers ran —
    and the wall time is tracked as the fleet-provisioning benchmark.
    """
    n_chips = 2
    base = ThreatScenario(budget=4, n_fft=1024, seed=11)
    cells = [
        CampaignCell(
            "removal",  # removal adjudication provisions its die's key
            base.with_(chip=ChipSpec(chip_id=chip_id), seed=seed),
        )
        for chip_id in range(n_chips)
        for seed in (11, 12)  # two cells per die: sharing must kick in
    ]
    store = str(tmp_path / "calstore")
    start = time.perf_counter()
    result = run_campaign(cells, n_workers=2, calibration_store=store)
    elapsed = time.perf_counter() - start
    assert len(result.reports) == len(cells)
    events = CalibrationStore(store).compute_events()
    assert len(events) == n_chips, (
        f"fleet of {n_chips} dies was calibrated {len(events)} times "
        f"across workers: {events}"
    )
    benchmark.extra_info["fleet_seconds"] = round(elapsed, 3)
    benchmark.extra_info["calibrations"] = len(events)
    benchmark(lambda: None)  # property asserted above; keep the harness happy


@pytest.mark.skipif(
    usable_cpus() < 4,
    reason="needs >= 4 usable CPUs to demonstrate the sharding speedup",
)
def test_campaign_sharding_speedup(benchmark):
    """The acceptance ratio: >= 2x throughput, 4 workers, 4-chip fleet.

    Sequential and sharded runs execute the identical cell list (and
    return identical reports — tests/test_campaigns.py holds that
    property); per-cell work is sized so worker startup is amortised,
    and best-of-three rounds guard against scheduler noise on shared
    runners.
    """
    cells = fleet_cells(budget=192, n_fft=4096)
    run_campaign(cells)  # warm the kernel before timing anything

    def throughput(n_workers: int) -> float:
        start = time.perf_counter()
        result = run_campaign(cells, n_workers=n_workers)
        assert len(result.reports) == N_CHIPS
        return len(cells) / (time.perf_counter() - start)

    seq = max(throughput(1) for _ in range(3))
    par = max(throughput(4) for _ in range(3))
    speedup = par / seq
    benchmark.extra_info["sequential_cells_per_s"] = round(seq, 3)
    benchmark.extra_info["sharded_cells_per_s"] = round(par, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark(lambda: None)  # ratio computed above; keep the harness happy
    assert speedup >= 2.0, (
        f"4-worker campaign {par:.2f} cells/s vs sequential {seq:.2f} "
        f"cells/s ({speedup:.1f}x < 2x)"
    )


@pytest.mark.skipif(
    usable_cpus() < 4,
    reason="needs >= 4 usable CPUs to demonstrate the scheduling speedup",
)
def test_imbalanced_fleet_work_stealing_beats_static_sharding(benchmark):
    """The scheduler acceptance ratio: work-stealing >= 1.5x static
    sharding on an imbalanced fleet with one dominant cell.

    The cell list is 13 oracle cells: one dominant cell whose budget is
    several times everyone else's, then 12 small cells.  Static
    contiguous sharding over 4 workers pins 3 small cells behind the
    dominant one in its shard (T ~ dominant + 3 small) while the other
    shards go idle; the work-stealing queue gives the dominant cell a
    worker of its own and lets the rest drain the small cells
    (T ~ max(dominant, 4 small)).  Reports are asserted identical
    between the modes, so the ratio compares bit-equal work.
    """
    base = ThreatScenario(budget=24, n_fft=4096, seed=11)
    dominant = CampaignCell(
        "brute-force", base.with_(chip=ChipSpec(chip_id=0), budget=96)
    )
    small = [
        CampaignCell(
            "brute-force", base.with_(chip=ChipSpec(chip_id=1 + i % 3), seed=i)
        )
        for i in range(12)
    ]
    cells = [dominant] + small
    reference = run_campaign(cells).reports  # also warms the kernel

    def wall(run) -> float:
        start = time.perf_counter()
        reports = run()
        elapsed = time.perf_counter() - start
        assert reports == reference
        return elapsed

    static = min(
        wall(lambda: run_static_shards(cells, 4)) for _ in range(3)
    )
    stealing = min(
        wall(lambda: run_campaign(cells, n_workers=4).reports)
        for _ in range(3)
    )
    speedup = static / stealing
    benchmark.extra_info["static_seconds"] = round(static, 3)
    benchmark.extra_info["stealing_seconds"] = round(stealing, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark(lambda: None)  # ratio computed above; keep the harness happy
    assert speedup >= 1.5, (
        f"work-stealing {stealing:.2f} s vs static sharding {static:.2f} s "
        f"on the imbalanced fleet ({speedup:.2f}x < 1.5x)"
    )


@pytest.mark.skipif(
    usable_cpus() < 4,
    reason="needs >= 4 usable CPUs to demonstrate the sub-task speedup",
)
def test_dominant_cell_subtask_speedup(benchmark):
    """The sub-task acceptance ratio: shattering one dominant cell into
    key-range sub-tasks >= 1.8x over scalar scheduling, 4 workers.

    A single dominant brute-force cell is the worst case for cell-level
    scheduling — one worker owns it, the rest idle (the scalar run
    therefore executes in-process, which IS the honest baseline: without
    partitioning there is nothing to parallelise).  With
    ``subtask_keys`` the cell's key space fans out as speculative
    chunk-score sub-tasks across all four workers, and the sequential
    replay reassembles a byte-identical report — asserted against the
    scalar reports, so the ratio compares bit-equal work.
    """
    base = ThreatScenario(budget=256, n_fft=4096, seed=11)
    scalar = [CampaignCell("brute-force", base)]
    partitioned = [
        CampaignCell(
            "brute-force", base, attack_params=(("subtask_keys", 16),)
        )
    ]
    reference = run_campaign(scalar).reports  # also warms the kernel

    def wall(cells) -> float:
        start = time.perf_counter()
        result = run_campaign(cells, n_workers=4)
        elapsed = time.perf_counter() - start
        assert result.reports == reference
        return elapsed

    scalar_seconds = min(wall(scalar) for _ in range(3))
    subtask_seconds = min(wall(partitioned) for _ in range(3))
    speedup = scalar_seconds / subtask_seconds
    benchmark.extra_info["scalar_seconds"] = round(scalar_seconds, 3)
    benchmark.extra_info["subtask_seconds"] = round(subtask_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark(lambda: None)  # ratio computed above; keep the harness happy
    assert speedup >= 1.8, (
        f"partitioned dominant cell {subtask_seconds:.2f} s vs scalar "
        f"{scalar_seconds:.2f} s ({speedup:.2f}x < 1.8x)"
    )
