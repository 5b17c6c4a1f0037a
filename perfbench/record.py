"""Record reference fingerprints and headlines into ``references.json``.

Usage (from the repository root)::

    python3 perfbench/record.py --scale bench --seeds 1-10,1001-1010
    python3 perfbench/record.py --scale tiny --seeds 1-3 --workloads sweep live

Each (workload, seed) runs once through the same ``Workload.run`` call the
benchmark times; entries for other scales, workloads and seeds are kept.
Re-record only when a change alters simulation results on purpose, and say
so in CHANGES.md: the references are the benchmark's correctness gate.
"""

from __future__ import annotations

import argparse
import json
import time

from run import REFERENCES, load_api, load_references
from workloads import WORKLOADS, headline_summary


def parse_seeds(text: str) -> list:
    """``"1-10,1001-1010"`` -> the listed seeds, ranges inclusive."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", choices=("bench", "tiny"), default="bench")
    parser.add_argument("--seeds", type=parse_seeds, default=[1])
    parser.add_argument(
        "--workloads", nargs="+", default=sorted(WORKLOADS), choices=sorted(WORKLOADS)
    )
    args = parser.parse_args()
    api = load_api()
    references = load_references(REFERENCES)
    for name in args.workloads:
        for seed in args.seeds:
            started = time.perf_counter()
            result = WORKLOADS[name].run(api, args.scale, seed)
            entry = {
                "fingerprint": result.fingerprint(),
                "headline": headline_summary(name, result.headline()),
            }
            scale = references.setdefault(args.scale, {})
            scale.setdefault(name, {})[str(seed)] = entry
            seconds = time.perf_counter() - started
            print(
                f"{args.scale} {name} seed {seed}: {entry['fingerprint'][:16]} "
                f"({seconds:.2f} s)",
                flush=True,
            )
            with open(REFERENCES, "w", encoding="utf-8") as handle:
                json.dump(references, handle, indent=1, sort_keys=True)
                handle.write("\n")


if __name__ == "__main__":
    main()
