"""Which layers each workload loads and bypasses, and which
end-to-end metric each per-layer metric should move.

Why each workload exists is in ``BENCHMARK.json`` and in its module's
docstring; this is the record of layers later changes cite.  A change
that claims a gain names the per-layer metric it moves and, from
``MOVES``, the end-to-end metric and workload that must follow; on the
workloads that bypass its layer the prediction is no change.

Layers are the program's modules: ``engine`` (``SimulationEngine.run``
and ``run_multi``, the C kernel, ``CalibrationStore``), ``receiver``
(``measure_*_batch`` and the oracle's batch decodes), ``calibration``
(``Calibrator.calibrate``, ``FleetCalibrator.calibrate_fleet``),
``attacks`` (``MeasurementOracle``, ``SatAttack.run``), ``logic``
(``SatSolver.solve``), ``campaigns`` (``Attack.execute`` and partition
plans), ``service.scheduler`` (``run_stealing``), ``service.daemon``
(``WorkerFleet`` and admission), ``service.gateway``,
``service.http``, ``service.journal`` and ``service.tenants``.
"""

WORKLOADS = {
    "artefacts_quick": {
        "loads": ["logic", "attacks", "engine", "receiver", "calibration",
                  "campaigns"],
        "bypasses": ["service.scheduler", "service.daemon",
                     "service.gateway", "service.http", "service.journal",
                     "service.tenants", "engine.store"],
    },
    "http_jobs": {
        "loads": ["service.http", "service.gateway", "service.daemon",
                  "service.journal", "service.tenants", "campaigns",
                  "attacks", "engine", "receiver", "engine.store"],
        "bypasses": ["logic", "calibration"],
    },
    "lot_provisioning": {
        "loads": ["calibration", "engine", "receiver", "engine.store",
                  "service.scheduler"],
        "bypasses": ["logic", "attacks", "campaigns", "service.daemon",
                     "service.gateway", "service.http", "service.journal",
                     "service.tenants"],
    },
}

#: Per-layer metric -> [(end-to-end metric, workload)] it should move.
#: Counts and shares that explain a wall rather than move it map to the
#: wall they explain.
_ARTEFACTS = [("wall_s", "artefacts_quick")]
_LOT = [("wall_s", "lot_provisioning")]
_HTTP = [("job_p50_s", "http_jobs"), ("burst_jobs_per_s", "http_jobs")]
MOVES = {
    "engine.calls": _ARTEFACTS + _LOT,
    "engine.requests": _ARTEFACTS + _LOT,
    "engine.busy_s": _ARTEFACTS + _LOT,
    "engine.integrate_s": _ARTEFACTS + _LOT,
    "receiver.measure_s": _ARTEFACTS,
    "logic.sat_calls": _ARTEFACTS,
    "logic.sat_s": _ARTEFACTS,
    "logic.sat_decisions": _ARTEFACTS,
    "attacks.oracle_queries": _ARTEFACTS + _HTTP,
    "attacks.sat_attack_s": _ARTEFACTS,
    "campaigns.execute_s": _ARTEFACTS + _HTTP,
    "calibration.dies": _LOT,
    "calibration.busy_s": _LOT,
    "calibration.s_per_die": _LOT,
    "calibration.computes_per_triple": _LOT,
    "calibration.serial_wall_s": _LOT,
    "store.get_s": _LOT + [("job_p50_s", "http_jobs")],
    "store.put_s": _LOT + [("job_p50_s", "http_jobs")],
    "store.lock_wait_s": _LOT + [("job_p50_s", "http_jobs")],
    "scheduler.task_s": _LOT,
    "scheduler.worker_busy_share": _LOT,
    "daemon.busy_s": _HTTP,
    "journal.busy_s": _HTTP,
    "tenants.busy_s": _HTTP,
    "http.busy_s": _HTTP,
    "frames.pickle_s": _HTTP,
    "http.submit_p50_s": _HTTP,
    "http.result_p50_s": _HTTP,
    "hop.http_ping_p50_s": _HTTP,
    "hop.http_keepalive_ping_p50_s": _HTTP,
    "hop.gateway_ping_p50_s": _HTTP,
    "hop.daemon_ping_p50_s": _HTTP,
    "fleet.execute_p50_s": _HTTP,
    "service.overhead_p50_s": _HTTP,
    "steady.p50_s": _HTTP,
    "steady.p90_s": _HTTP,
    "attach_p50_s": _HTTP,
    "fresh_p50_s": _HTTP,
    "tenants.refusals": [("ok_ratio", "http_jobs")],
    "gen.late_max_s": [("job_p90_s", "http_jobs")],
    "gen.backlog_end": [("job_p90_s", "http_jobs")],
    "other_s": _ARTEFACTS + _LOT + _HTTP,
    "other_share": _ARTEFACTS + _LOT + _HTTP,
    "trace.overhead_ratio": [],
}
