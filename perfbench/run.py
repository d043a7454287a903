"""The repository benchmark: one command for every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` makes the separate
traced run that splits the work into the program's layers.  Every
metric is printed by name with its unit, after the host fingerprint
and the correctness checks; the last line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.

Workloads (why each exists, which layers it loads and which it
bypasses, is recorded in ``layers.py`` and ``BENCHMARK.json``):

* ``artefacts_quick`` — the 12 quick-mode paper artefacts in-process;
* ``http_jobs`` — small campaign jobs through HTTP -> gateway ->
  daemon -> fleet, as separate processes;
* ``lot_provisioning`` — a lot of dies calibrated into a cold store
  on the 2-worker work-stealing scheduler.
"""

from __future__ import annotations

import argparse
import sys

import common
import layers

WORKLOADS = ("artefacts_quick", "http_jobs", "lot_provisioning")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if set(layers.MOVES) != set(common.PER_LAYER):
        raise RuntimeError("layers.MOVES and common.PER_LAYER disagree")
    try:
        common.check_checkout()
    except common.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    common.enter_checkout_env()
    common.build()

    if args.workload == "artefacts_quick":
        import artefacts as workload
    elif args.workload == "http_jobs":
        import http_jobs as workload
    else:
        import provisioning as workload
    traced = bool(args.trace)
    metrics, correct, attempted, failed, notes = workload.run(
        args.seed, args.seconds, traced
    )
    units = common.PER_LAYER if traced else common.END_TO_END
    if traced:
        metrics = {name: metrics.get(name, 0.0) for name in units}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    common.emit(
        metrics, units, correct, attempted, failed,
        common.host_fingerprint(), notes,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
