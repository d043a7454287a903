"""Set-up probe for the in-process workloads.

``python perfbench/probe.py WORKLOAD`` does what a fresh process must
do before the workload's first timed operation can be issued — import
the modules that operation needs and load the engine kernel — then
prints ``ready`` and exits.  The caller times it from launch to that
line.
"""

from __future__ import annotations

import sys

from common import enter_checkout_env


def main(workload: str) -> None:
    enter_checkout_env()
    from repro.engine import get_default_engine, kernel_available
    from repro.service import FoundryService  # noqa: F401 - set-up cost

    if workload == "artefacts_quick":
        from repro.experiments.runner import REGISTRY  # noqa: F401
    elif workload == "lot_provisioning":
        from repro.calibration.fleet import FleetCalibrator  # noqa: F401
        from repro.campaigns.campaign import provision_fleet  # noqa: F401
    else:
        raise SystemExit(f"no set-up probe for workload {workload!r}")
    get_default_engine()
    kernel_available()
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
