"""Time one fresh interpreter's set-up for a workload, then exit.

Set-up is ``import repro.api`` plus the workload's context build (the part
of a run that ``RunResult.ctx_seconds`` times: building the runner and its
cell grid), which every ``repro run-scenario`` invocation pays before its
first cell.  The probe stops the run from the harness's ``runner_setup``
hook, after the context is built and before any cell runs, and prints
``{"setup_s": ...}``.  Interpreter start-up before this file runs is not
counted.

Usage: ``python3 perfbench/setup_probe.py <src dir> <workload> <seed> <scale>``
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


class _ContextReady(Exception):
    """Raised from the runner-setup hook once the context is built."""


def _stop(runner) -> None:
    runner.cells()
    raise _ContextReady


def main() -> None:
    src, name, seed, scale = sys.argv[1:5]
    sys.path.insert(0, src)
    import repro.api as api

    from workloads import WORKLOADS

    try:
        WORKLOADS[name].run(api, scale, int(seed), runner_setup=_stop)
    except _ContextReady:
        pass
    else:
        raise SystemExit("the run finished without building a context first")
    print(json.dumps({"setup_s": time.perf_counter() - STARTED}))


if __name__ == "__main__":
    main()
