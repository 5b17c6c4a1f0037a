"""The repository benchmark: serial workload runs, fingerprint-checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload storm --seed 3 --seconds 40 --trace 1

One operation is one complete serial run of a workload through ``repro.api``
(see ``workloads.py``) for one input seed.  ``--seed S`` fixes the inputs:
run ``i`` of an invocation simulates input seed ``S + 1000 * i``, so the
first run is seed ``S`` itself and the same ``--seed`` and ``--seconds``
always run the same inputs.  The run count is the workload's ``runs``
scaled by ``--seconds`` over ``BENCHMARK.json``'s ``run_seconds`` (at least
two), fixed before any timing, so a faster program runs the same inputs as a
slower one.  Taking the median over several input seeds keeps one seed's
unusually large or small fleet from setting an invocation's figure.

Every run's ``RunResult.fingerprint()`` and headline numbers are checked
against the reference stored for that workload, scale and input seed in
``references.json``; a run fails if it raises or its result differs.  An
input seed with no reference is record-only (an exception still fails).

``--trace 0`` reports the end-to-end metrics, all host time:

* ``run_s`` -- median wall-clock of one run in a warm process (after a
  TINY warm-up run of the same workload);
* ``setup_s`` -- median, over fresh interpreters, of ``import repro.api``
  plus the workload's context build (``setup_probe.py``);
* ``max_cell_s`` -- median of each run's slowest cell, the floor of any
  parallel run's time;
* ``peak_rss_mb`` -- peak resident memory of this process, which ran only
  this workload.

``--trace 1`` runs input seed ``S`` once untraced and once under
``tracer.LayerTracer``, requires the two fingerprints to match, and reports
per-layer call counts, self times and work counts of the traced run plus
``trace_overhead`` (traced over untraced run time).  The spans are written
as Chrome trace-event JSON to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Runs are serial on
purpose: on a 2-CPU host two concurrent cells each ran about twice as slowly,
so ``--workers 2`` measured slower than serial.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from hostinfo import close_record, host_record
from tracer import LayerTracer, chrome_trace, layer_metrics
from workloads import WORKLOADS, Workload, headline_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
TRACE_DIR = HERE / "out"
PROBE = HERE / "setup_probe.py"

#: Fresh interpreters timed per invocation for ``setup_s``.
SETUP_PROBES = 5
#: Untraced runs per invocation, at least.
MIN_RUNS = 2
#: Distance between the input seeds of one invocation.
SEED_STRIDE = 1000
#: Longest a set-up probe may take before it counts as failed.
PROBE_TIMEOUT_S = 120


class BenchmarkError(Exception):
    """The benchmark cannot run here: no ``src/repro`` beside ``perfbench/``."""


def load_api() -> Any:
    """``repro.api`` imported from this checkout's ``src/``, nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro.api as api

    if SRC.resolve() not in Path(api.__file__).resolve().parents:
        raise BenchmarkError(f"repro.api was imported from {api.__file__}, not {SRC}")
    return api


def load_references(path: Path) -> Dict[str, Any]:
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def input_seeds(seed: int, count: int) -> List[int]:
    return [seed + SEED_STRIDE * i for i in range(count)]


def run_count(workload: Workload, seconds: float, run_seconds: float) -> int:
    """``workload.runs`` scaled by ``seconds`` over the declared run length."""
    return max(MIN_RUNS, round(workload.runs * seconds / run_seconds))


class Checker:
    """Counts runs and fails those that raise or change the result.

    ``references`` maps input seeds (as strings) to the stored
    ``{"fingerprint", "headline"}`` of this workload at this scale.
    """

    def __init__(self, name: str, references: Dict[str, Any]) -> None:
        self.name = name
        self.references = references
        self.attempted = 0
        self.failed = 0

    def run(
        self, seed: int, operation: Callable[[], Any], expected: Optional[str] = None
    ) -> Tuple[Optional[Any], float]:
        """One run: ``(result, seconds)``, with ``None`` for a failed run.

        ``expected`` is a fingerprint the run must reproduce besides the
        stored reference (the untraced run's, for a traced run).
        """
        self.attempted += 1
        gc.collect()  # no earlier run's garbage is collected inside this one
        started = time.perf_counter()
        try:
            result = operation()
        except Exception as exc:  # a crashed run is a failed operation
            seconds = time.perf_counter() - started
            self.failed += 1
            print(
                f"seed {seed}: run failed: {type(exc).__name__}: {exc}", file=sys.stderr
            )
            return None, seconds
        seconds = time.perf_counter() - started
        problems = self.problems(seed, result, expected)
        for problem in problems:
            print(f"seed {seed}: wrong result: {problem}", file=sys.stderr)
        if problems:
            self.failed += 1
            return None, seconds
        return result, seconds

    def problems(self, seed: int, result: Any, expected: Optional[str]) -> List[str]:
        fingerprint = result.fingerprint()
        problems = []
        if expected is not None and fingerprint != expected:
            problems.append(
                f"fingerprint {fingerprint} differs from the untraced run's {expected}"
            )
        reference = self.references.get(str(seed))
        if reference is None:
            print(f"seed {seed}: no reference, record-only ({fingerprint})")
            return problems
        if fingerprint != reference["fingerprint"]:
            problems.append(
                f"fingerprint {fingerprint} differs from reference "
                f"{reference['fingerprint']}"
            )
        headline = headline_summary(self.name, result.headline())
        if headline != reference["headline"]:
            problems.append(
                f"headline {headline} differs from reference {reference['headline']}"
            )
        return problems


def probe_setup(workload: Workload, seed: int, scale: str) -> Optional[float]:
    """``setup_s`` of one fresh interpreter, or None if the probe failed."""
    try:
        done = subprocess.run(
            [sys.executable, str(PROBE), str(SRC), workload.name, str(seed), scale],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=PROBE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("set-up probe timed out", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"set-up probe failed:\n{done.stderr}", file=sys.stderr)
        return None
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def warm_up(api: Any, workload: Workload, seed: int) -> None:
    """One TINY run: imports, lazy module state and allocator pools settle."""
    workload.run(api, "tiny", seed)


def end_to_end(
    api: Any,
    workload: Workload,
    seed: int,
    scale: str,
    runs: int,
    checker: Checker,
) -> Dict[str, float]:
    setups = []
    for _ in range(SETUP_PROBES):
        value = probe_setup(workload, seed, scale)
        if value is None:  # a workload that cannot set up is a failed run
            checker.attempted += 1
            checker.failed += 1
        else:
            setups.append(value)
    warm_up(api, workload, seed)
    run_s: List[float] = []
    max_cell_s: List[float] = []
    seeds = input_seeds(seed, runs)
    for run_seed in seeds:
        result, elapsed = checker.run(
            run_seed, lambda: workload.run(api, scale, run_seed)
        )
        if result is not None:
            run_s.append(elapsed)
            max_cell_s.append(max(result.cell_seconds().values()))
    print(f"input seeds {seeds}: run_s {[round(s, 3) for s in run_s]}")
    print(f"set-up probes: setup_s {[round(s, 3) for s in setups]}")
    return {
        "run_s": _median(run_s),
        "setup_s": _median(setups),
        "max_cell_s": _median(max_cell_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(
    api: Any,
    workload: Workload,
    seed: int,
    scale: str,
    checker: Checker,
    host: Dict[str, Any],
    trace_out: Path,
) -> Dict[str, float]:
    warm_up(api, workload, seed)
    plain, plain_s = checker.run(seed, lambda: workload.run(api, scale, seed))
    if plain is None:
        return {}
    layers = LayerTracer()

    def run_traced() -> Any:
        with layers:
            return workload.run(api, scale, seed)

    result, traced_s = checker.run(seed, run_traced, expected=plain.fingerprint())
    if result is None:
        return {}
    metrics = layer_metrics(layers.spans)
    placed, requests = metrics["cluster.containers_placed"], metrics["cluster.requests"]
    metrics["cluster.place_ratio"] = placed / requests if requests else 0.0
    metrics["harness.ctx_s"] = result.ctx_seconds
    metrics["harness.cells_s"] = sum(result.cell_seconds().values())
    metrics["traced_run_s"] = traced_s
    metrics["trace_overhead"] = traced_s / plain_s
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_out, "w", encoding="utf-8") as handle:
        other = {"workload": workload.name, "seed": seed, "host": host}
        json.dump(chrome_trace(layers.spans, other), handle, separators=(",", ":"))
    print(f"chrome trace: {trace_out} ({len(layers.spans)} spans)")
    return metrics


def _median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def load_declared() -> Dict[str, Any]:
    """``BENCHMARK.json``: the run length and every metric's name and unit."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "tiny"), default="bench")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        api = load_api()
        declared = load_declared()
        section = declared["per_layer" if args.trace else "end_to_end"]
        units = {metric["name"]: metric["unit"] for metric in section}
        run_seconds = float(declared["run_seconds"])
    except (BenchmarkError, ImportError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    references = load_references(REFERENCES).get(args.scale, {}).get(workload.name, {})
    checker = Checker(workload.name, references)
    host = host_record(ROOT)
    if args.trace:
        trace_out = TRACE_DIR / (
            f"trace-{workload.name}-{args.scale}-seed{args.seed}.json"
        )
        values = traced(api, workload, args.seed, args.scale, checker, host, trace_out)
    else:
        runs = run_count(workload, args.seconds, run_seconds)
        values = end_to_end(api, workload, args.seed, args.scale, runs, checker)
    close_record(host)
    print("host: " + json.dumps(host, sort_keys=True))
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:36s} {value if value is not None else 'missing':>24} {unit}")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0
                and all(m["value"] is not None for m in metrics.values()),
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
