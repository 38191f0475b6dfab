"""Rebuild the frozen oracle fronts in references.json by brute force.

Usage, from the repository root (slow: ~150 s per knapsack-24 instance)::

    python3 perfbench/freeze_references.py [KEY ...]

With no keys it rebuilds every instance the workloads use.  Entries for
other keys already in the file are kept.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from biopt import EnumerationBudget, brute_force_pareto  # noqa: E402

from workloads import REFERENCES, WORKLOADS, base_instance, instance_key  # noqa: E402


def freeze(keys, path: Path = REFERENCES) -> None:
    """Brute-force the front of each instance key into ``path``."""
    frozen = json.loads(path.read_text()) if path.exists() else {}
    for key in keys:
        family, size, seed = key.rsplit("-", 2)
        problem, digest = base_instance(family, int(size), int(seed))
        start = time.perf_counter()
        front = brute_force_pareto(problem, EnumerationBudget(2 * problem.box_size()))
        frozen[key] = {
            "sha256": digest,
            "front": [list(o.as_tuple()) for o in front.outcomes()],
        }
        print(f"{key}: {len(front)} points in {time.perf_counter() - start:.1f} s", flush=True)
        entries = [f" {json.dumps(k)}: {json.dumps(frozen[k], sort_keys=True)}" for k in sorted(frozen)]
        path.write_text("{\n" + ",\n".join(entries) + "\n}\n")


def main(argv: list[str]) -> int:
    freeze(argv or sorted({
        instance_key(family, size, seed)
        for w in WORKLOADS.values()
        for family, size, seeds in [w.instance_set]
        for seed in seeds
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
