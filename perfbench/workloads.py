"""The benchmark's workloads: which scenario each runs, at which size.

Importing this module does not import ``repro``: the set-up probe times
``import repro.api`` itself, so the workload table must be readable first.
Each workload is one call into :mod:`repro.api` and one operation of the
benchmark is one complete serial run of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass(frozen=True)
class Workload:
    """One registered scenario plus the overrides that size it.

    ``overrides`` apply at BENCH scale, ``tiny_overrides`` at TINY scale
    (the warm-up run and the benchmark's own tests).  Continuous workloads
    go through :func:`repro.api.run_continuous`, the rest through
    :func:`repro.api.run`.

    ``runs`` is how many input seeds one invocation runs when ``--seconds``
    is the declared ``run_seconds``.  A workload's run time varies by up to
    about 20% from one input seed to the next (each seed draws its own fleet
    and jobs), so the median over several seeds is what keeps an
    invocation's figure steady; the counts give each workload a share of the
    benchmark's time budget in proportion to that variation.
    """

    name: str
    scenario: str
    runs: int
    overrides: Dict[str, Any] = field(default_factory=dict)
    tiny_overrides: Dict[str, Any] = field(default_factory=dict)
    continuous: bool = False

    def run(self, api: Any, scale: str, seed: int, **kwargs: Any) -> Any:
        """One serial run through ``repro.api``; returns its ``RunResult``."""
        sized = self.tiny_overrides if scale == "tiny" else self.overrides
        call = api.run_continuous if self.continuous else api.run
        return call(
            self.scenario, overrides={"scale": scale, **sized}, seed=seed, **kwargs
        )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "sweep",
            "fig13-dc9-sweep",
            3,
            overrides={"utilization_levels": (0.25, 0.45)},
            tiny_overrides={"utilization_levels": (0.25,)},
        ),
        Workload(
            "live",
            "continuous-open",
            7,
            overrides={"epochs": 64, "epoch_seconds": 900.0},
            tiny_overrides={"epochs": 4, "epoch_seconds": 900.0},
            continuous=True,
        ),
        Workload("storm", "failure-storm", 3),
        Workload("place", "fig16-availability", 5),
    )
}


def headline_summary(name: str, headline: Any) -> Dict[str, Any]:
    """The few headline numbers stored beside each reference fingerprint.

    The fingerprint already covers the whole result; these make a mismatch
    readable (which number moved) without rerunning the parent commit.
    """
    if name == "sweep":
        return {
            key: headline[key]
            for key in sorted(headline)
            if key.startswith("average_improvement")
        }
    if name == "live":
        return {
            variant: {
                "jobs_completed": sum(e["jobs_completed"] for e in data["epochs"]),
                "tasks_killed": sum(e["tasks_killed"] for e in data["epochs"]),
            }
            for variant, data in sorted(headline["variants"].items())
        }
    if name == "storm":
        return {key: value["blocks_lost"] for key, value in sorted(headline.items())}
    if name == "place":
        return {
            key: value["failed_accesses"] for key, value in sorted(headline.items())
        }
    raise ValueError(f"unknown workload {name!r}")
