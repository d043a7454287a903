"""Span recorder for the traced run, installed from outside the program.

:func:`install` wraps the public entry points of each layer (the
``TARGETS`` table) with a span that records its layer, name, start,
end, parent span and run id.  Spans nest per thread: a span's parent is
the innermost open span of the same thread, so a layer's *self* time
is its spans' durations minus their direct children.  Generator entry
points (``run_stealing``, ``run_on_fleet``) are not wrapped: their
resumptions block on workers, so a span would time waiting, not work;
the scheduler is measured by ``run_task`` in the workers and by the
jobs' ``TaskEvent.seconds``.

Processes forked through :mod:`multiprocessing` (the scheduler's and
the daemon fleet's workers) inherit the wrappers; each starts with an
empty buffer and writes ``spans-<pid>.jsonl`` into the trace directory
when it exits.  Service processes started through ``traced_main.py``
write theirs at interpreter exit.  :func:`collect` merges every file
with the calling process's own buffer.

Counters are taken at the same boundaries (engine requests, solver
decisions, charged oracle queries, calibrated dies), so their ratios
are measured where the work happens.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Environment variables a traced service process reads.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
RUN_ID_ENV = "PERFBENCH_RUN_ID"

#: (layer, module, attribute) of every wrapped entry point.  An
#: attribute ``Class.method`` wraps the method on the class (so
#: subclasses that do not override it are covered too).
TARGETS = [
    ("engine", "repro.engine.engine", "SimulationEngine.run"),
    ("engine", "repro.engine.engine", "SimulationEngine.run_multi"),
    ("receiver", "repro.receiver.performance", "measure_modulator_snr_batch"),
    ("receiver", "repro.receiver.performance", "measure_receiver_snr_batch"),
    ("receiver", "repro.receiver.performance", "measure_sfdr_batch"),
    ("receiver", "repro.attacks.oracle", "MeasurementOracle.snr_batch"),
    ("receiver", "repro.attacks.oracle", "MeasurementOracle.sfdr_batch"),
    ("receiver", "repro.attacks.oracle", "MeasurementOracle.receiver_snr_batch"),
    ("attacks", "repro.attacks.oracle", "MeasurementOracle.charge_batch"),
    ("attacks", "repro.attacks.sat_attack", "SatAttack.run"),
    ("logic", "repro.logic.sat", "SatSolver.solve"),
    ("campaigns", "repro.campaigns.attacks", "BruteForce.execute"),
    ("campaigns", "repro.campaigns.attacks", "BruteForce.execute_scripted"),
    ("campaigns", "repro.campaigns.attacks", "Annealing.execute"),
    ("campaigns", "repro.campaigns.attacks", "Genetic.execute"),
    ("campaigns", "repro.campaigns.attacks", "Genetic.execute_scripted"),
    ("campaigns", "repro.campaigns.attacks", "Transfer.execute"),
    ("campaigns", "repro.campaigns.attacks", "Removal.execute"),
    ("campaigns", "repro.campaigns.attacks", "Sat.execute"),
    ("campaigns", "repro.campaigns.attacks", "KeyRangeScore.run"),
    ("campaigns", "repro.campaigns.attacks", "PopulationScore.run"),
    ("calibration", "repro.calibration.procedure", "Calibrator.calibrate"),
    ("calibration", "repro.calibration.fleet", "FleetCalibrator.calibrate_fleet"),
    ("store", "repro.engine.store", "CalibrationStore.get"),
    ("store", "repro.engine.store", "CalibrationStore.get_many"),
    ("store", "repro.engine.store", "CalibrationStore.put"),
    ("store", "repro.engine.store", "CalibrationStore.put_many"),
    ("store", "repro.engine.store", "CalibrationStore.get_or_set"),
    ("scheduler", "repro.service.scheduler", "run_task"),
    ("daemon", "repro.service.daemon", "FoundryDaemon.submit_job"),
    ("daemon", "repro.service.daemon", "WorkerFleet.submit"),
    ("frames", "repro.service.protocol", "encode_payload"),
    ("frames", "repro.service.protocol", "decode_payload"),
    ("frames", "repro.service.protocol", "event_to_wire"),
    ("frames", "repro.service.protocol", "event_from_wire"),
    ("journal", "repro.service.journal", "JobJournal.bind"),
    ("journal", "repro.service.journal", "JobJournal.put_cell"),
    ("journal", "repro.service.journal", "JobJournal.get_cell"),
    ("journal", "repro.service.journal", "JobJournal.completed_cells"),
    ("tenants", "repro.service.tenants", "TokenBucket.take"),
    ("tenants", "repro.service.tenants", "TenantMeter.charge_batch"),
    ("tenants", "repro.service.tenants", "TenantMeter.begin_task"),
    ("tenants", "repro.service.tenants", "TenantMeter.commit_task"),
    ("tenants", "repro.service.tenants", "TenantMeter.rollback_task"),
    ("http", "repro.service.http", "job_from_json"),
    ("http", "repro.service.http", "event_to_json"),
    ("http", "repro.service.http", "result_to_json"),
]


def _count_engine(rec, args, kwargs, result, elapsed, before):
    engine = args[0]
    items = args[1] if len(args) > 1 else kwargs.get("items", ())
    rec.counters["engine.calls"] += 1
    rec.counters["engine.requests"] += len(items)
    rec.counters["engine.integrate_s"] += (
        engine.stats.integrate_seconds - before
    )


def _count_sat(rec, args, kwargs, result, elapsed, before):
    rec.counters["logic.sat_calls"] += 1
    rec.counters["logic.sat_decisions"] += result.decisions


def _count_queries(rec, args, kwargs, result, elapsed, before):
    n = args[1] if len(args) > 1 else kwargs["n"]
    rec.counters["attacks.oracle_queries"] += int(n)


def _count_die(rec, args, kwargs, result, elapsed, before):
    rec.counters["calibration.dies"] += 1
    rec.counters["calibration.inclusive_s"] += elapsed


def _count_fleet(rec, args, kwargs, result, elapsed, before):
    rec.counters["calibration.dies"] += len(result)
    rec.counters["calibration.inclusive_s"] += elapsed


#: Counter hooks, run after a wrapped call returns normally.  A hook's
#: ``before`` is what its ``_BEFORE`` reader returned at call entry.
_HOOKS = {
    "SimulationEngine.run_multi": _count_engine,
    "SatSolver.solve": _count_sat,
    "MeasurementOracle.charge_batch": _count_queries,
    "Calibrator.calibrate": _count_die,
    "FleetCalibrator.calibrate_fleet": _count_fleet,
}
_BEFORE = {
    "SimulationEngine.run_multi": lambda args: args[0].stats.integrate_seconds,
}


class Recorder:
    """Per-process span buffer and counters."""

    def __init__(self):
        self.trace_dir: Path | None = None
        self.run_id = ""
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far in this process."""
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.counters: defaultdict = defaultdict(float)
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._id_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self) -> tuple:
        with self._id_lock:
            span_id = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def exit(self, token: tuple, layer: str, name: str) -> float:
        end = time.perf_counter()
        span_id, parent, start = token
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        self.spans.append(
            (self.pid, span_id, parent, layer, name, start, end, self.run_id)
        )
        return end - start

    def flush(self) -> None:
        """Write this process's spans and counters to its span file."""
        if self.trace_dir is None or os.getpid() != self.pid:
            return
        if not self.spans and not self.counters:
            return
        path = self.trace_dir / f"spans-{self.pid}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def _after_fork(self) -> None:
        self.reset()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)


RECORDER = Recorder()
_originals: list = []


def _wrap(layer: str, name: str, fn):
    hook = _HOOKS.get(name)
    before_of = _BEFORE.get(name)
    rec = RECORDER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = before_of(args) if before_of else None
        token = rec.enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = rec.exit(token, layer, name)
        if hook is not None:
            hook(rec, args, kwargs, result, elapsed, before)
        return result

    return wrapper


def _rebind(old, new) -> None:
    """Point every loaded ``repro`` module's reference at ``new``
    (``from x import f`` copies the binding into the importer)."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "repro" and not mod_name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def install(trace_dir: str | os.PathLike, run_id: str) -> None:
    """Wrap every target and start recording into ``trace_dir``."""
    if _originals:
        return
    RECORDER.trace_dir = Path(trace_dir)
    RECORDER.trace_dir.mkdir(parents=True, exist_ok=True)
    for stale in RECORDER.trace_dir.glob("spans-*.jsonl"):
        stale.unlink()
    RECORDER.run_id = run_id
    RECORDER.reset()
    for layer, mod_name, attr in TARGETS:
        module = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            setattr(owner, meth, _wrap(layer, attr, original))
            _originals.append(("method", owner, meth, original))
        else:
            original = getattr(module, attr)
            wrapped = _wrap(layer, attr, original)
            _rebind(original, wrapped)
            _originals.append(("func", wrapped, attr, original))
    multiprocessing.util.register_after_fork(RECORDER, Recorder._after_fork)


def uninstall() -> None:
    """Restore every wrapped entry point."""
    while _originals:
        kind, owner, attr, original = _originals.pop()
        if kind == "method":
            setattr(owner, attr, original)
        else:
            _rebind(owner, original)


def install_from_env() -> None:
    """Install in a service process started by ``traced_main.py`` and
    write its spans when the interpreter exits."""
    install(os.environ[TRACE_DIR_ENV], os.environ.get(RUN_ID_ENV, ""))
    atexit.register(RECORDER.flush)


def collect(trace_dir: str | os.PathLike) -> tuple[list, dict]:
    """Merge this process's buffer with every span file in
    ``trace_dir``: returns ``(spans, counters)``."""
    spans = list(RECORDER.spans)
    counters: defaultdict = defaultdict(float, RECORDER.counters)
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            for name, value in header["counters"].items():
                counters[name] += value
            spans.extend(tuple(json.loads(line)) for line in fh)
    return spans, counters


def self_times(spans) -> dict:
    """Self seconds per ``(layer, name)``: each span's duration minus
    its direct children's durations (children are nested in the parent
    on the same thread, so they never overlap each other)."""
    child_total: defaultdict = defaultdict(float)
    for pid, span_id, parent, layer, name, start, end, _ in spans:
        if parent:
            child_total[(pid, parent)] += end - start
    totals: defaultdict = defaultdict(float)
    for pid, span_id, parent, layer, name, start, end, _ in spans:
        totals[(layer, name)] += (end - start) - child_total[(pid, span_id)]
    return totals


def layer_self(totals: dict, layer: str, names=None) -> float:
    return sum(
        seconds for (lay, name), seconds in totals.items()
        if lay == layer and (names is None or name in names)
    )


def uncovered(spans, pid: int, start: float, end: float) -> float:
    """Seconds of ``[start, end]`` that no span of process ``pid``
    covers — the part of the wall no traced layer accounts for."""
    intervals = sorted(
        (max(s, start), min(e, end))
        for p, _, _, _, _, s, e, _ in spans
        if p == pid and e > start and s < end
    )
    covered = 0.0
    cur_start = cur_end = None
    for s, e in intervals:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        covered += cur_end - cur_start
    return max(0.0, (end - start) - covered)


def layer_metrics(spans, counters, window: tuple) -> dict:
    """The per-layer metrics every workload shares, from merged spans
    and counters; ``window`` is the traced measurement's
    ``(start, end)`` on the host's monotonic clock.

    ``other`` is the part of the window that no span covers in the
    processes that execute the workload's tasks: the scheduler or fleet
    workers (the processes that ran ``run_task``) when there are any,
    else this process."""
    totals = self_times(spans)
    dies = counters.get("calibration.dies", 0.0)
    inclusive = counters.get("calibration.inclusive_s", 0.0)
    pids = {span[0] for span in spans if span[4] == "run_task"} or {os.getpid()}
    other = sum(uncovered(spans, pid, *window) for pid in pids)
    wall = (window[1] - window[0]) * len(pids)
    return {
        "engine.calls": counters.get("engine.calls", 0.0),
        "engine.requests": counters.get("engine.requests", 0.0),
        "engine.busy_s": layer_self(totals, "engine"),
        "engine.integrate_s": counters.get("engine.integrate_s", 0.0),
        "receiver.measure_s": layer_self(totals, "receiver"),
        "logic.sat_calls": counters.get("logic.sat_calls", 0.0),
        "logic.sat_s": layer_self(totals, "logic"),
        "logic.sat_decisions": counters.get("logic.sat_decisions", 0.0),
        "attacks.oracle_queries": counters.get("attacks.oracle_queries", 0.0),
        "attacks.sat_attack_s": layer_self(totals, "attacks", {"SatAttack.run"}),
        "campaigns.execute_s": layer_self(totals, "campaigns"),
        "calibration.dies": dies,
        "calibration.busy_s": inclusive,
        "calibration.s_per_die": inclusive / dies if dies else 0.0,
        "store.get_s": layer_self(
            totals, "store",
            {"CalibrationStore.get", "CalibrationStore.get_many"},
        ),
        "store.put_s": layer_self(
            totals, "store",
            {"CalibrationStore.put", "CalibrationStore.put_many"},
        ),
        "store.lock_wait_s": layer_self(
            totals, "store", {"CalibrationStore.get_or_set"}
        ),
        "daemon.busy_s": layer_self(totals, "daemon"),
        "frames.pickle_s": layer_self(totals, "frames"),
        "journal.busy_s": layer_self(totals, "journal"),
        "tenants.busy_s": layer_self(totals, "tenants"),
        "http.busy_s": layer_self(totals, "http"),
        "other_s": other,
        "other_share": other / wall if wall > 0 else 0.0,
    }
