"""The host record printed with every benchmark result.

It is for diagnosis only: no metric is normalised by it.  A fixed
pure-Python calibration loop drifts on a shared host as much as the
workloads it brackets, so its seconds say how fast the host was around a
run, not how to correct the run.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict

#: Iterations of the calibration loop (about 0.1 s of pure Python).
CALIBRATION_ITERATIONS = 1_000_000


def calibration_seconds() -> float:
    """Seconds for a fixed integer loop; a rough host-speed reading."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - started


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _load_average() -> list:
    try:
        return [round(value, 2) for value in os.getloadavg()]
    except OSError:
        return []


def _commit(root: Path) -> str:
    """``<sha>`` or ``<sha>-dirty`` when ``root`` is a git checkout's top."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != root.resolve():
            return "unknown"
        sha = git("rev-parse", "--short=12", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return f"{sha}-dirty" if dirty else sha


def host_record(root: Path) -> Dict[str, Any]:
    """Static facts about the host plus a load-average and calibration probe."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(root),
        "load_before": _load_average(),
        "calibration_before_s": calibration_seconds(),
    }


def close_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Add the after-run load average and calibration reading."""
    record["load_after"] = _load_average()
    record["calibration_after_s"] = calibration_seconds()
    return record
