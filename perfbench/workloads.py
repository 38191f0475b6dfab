"""Workload definitions, seeded instance sets and the frozen oracle fronts.

Every workload solves a fixed set of generated instances.  The generator
seeds of that set are fixed, for two reasons: a knapsack-24 oracle front
costs about 110 s of exhaustive enumeration, far more than one benchmark
run may take, and solve time varies about sixfold between generator seeds,
which would swamp any regression bound.  The workload seed instead orders
the set and permutes the rows of each instance, which moves no outcome
vector, so the fronts stay known exactly.  On the workloads' own instances
the permutation also leaves the sequential branch-and-bound node count of
every instance unchanged (the tests check seeds 1-3 of assignment-seq), so
every seed asks for the same work.  Knapsack instances have a single row,
so there the seed sets the order only.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from biopt import (
    GeneratorSpec,
    ParetoSet,
    Problem,
    RunStats,
    format_instance,
    generate,
    meeting_boip,
    parse_instance,
    sequential_boip,
    splitting_boip,
)

REFERENCES = Path(__file__).resolve().parent / "references.json"

# (family, size, generator seeds).  The knapsack seeds are the two cheapest
# of the ten instances that release gates 3 and 4 time (873 and 1,277
# sequential B&B nodes against a mean of ~3,000), so that a run holds
# several solves of each instance and its medians hold steady on a noisy
# 2-core host; vs_seq is the gates' ratio on these two.
KNAPSACK_SET = ("knapsack", 24, (5, 6))
ASSIGNMENT_SET = ("assignment", 6, (1, 2, 3))

Algorithm = Callable[[Problem], tuple[ParetoSet, RunStats]]


@dataclass(frozen=True)
class Workload:
    name: str
    instance_set: tuple[str, int, tuple[int, ...]]
    algorithm: Algorithm


def _meet(problem: Problem):
    return meeting_boip(problem, executor="process")


def _split(problem: Problem):
    return splitting_boip(problem, t=2, executor="process")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("knapsack-seq", KNAPSACK_SET, sequential_boip),
        Workload("assignment-seq", ASSIGNMENT_SET, sequential_boip),
        Workload("knapsack-meet", KNAPSACK_SET, _meet),
        Workload("knapsack-split", KNAPSACK_SET, _split),
    )
}


def instance_key(family: str, size: int, seed: int) -> str:
    return f"{family}-{size}-{seed}"


def base_instance(family: str, size: int, seed: int) -> tuple[Problem, str]:
    """The generated instance and the digest of its canonical .boip text."""
    problem = generate(GeneratorSpec(family, size, seed))
    digest = hashlib.sha256(format_instance(problem).encode()).hexdigest()
    return problem, digest


def relabel(problem: Problem, rng: random.Random) -> Problem:
    """Permute the rows, which moves no outcome vector.

    Variables are left in place: branching breaks ties by the lowest
    variable index and the simplex by the lowest column, so a variable
    permutation changes the node count of the capped and fenced knapsack
    solves by up to 20% and of assignment solves up to twofold.
    """
    rows = list(problem.constraints)
    rng.shuffle(rows)
    return replace(problem, constraints=tuple(rows))


@dataclass(frozen=True)
class Instance:
    key: str
    digest: str  # of the generated instance, before relabeling
    boip: str  # the relabeled instance as a .boip file
    problem: Problem  # parsed back from ``boip``, what the solver receives


def make_instances(workload: Workload, seed: int) -> list[Instance]:
    """The workload's instance set, relabeled and ordered by ``seed``.

    Each instance goes through the .boip text format and back, the path
    that command-line users take.
    """
    family, size, seeds = workload.instance_set
    rng = random.Random(f"perfbench/{seed}")
    order = list(seeds)
    rng.shuffle(order)
    out = []
    for gen_seed in order:
        base, digest = base_instance(family, size, gen_seed)
        text = format_instance(relabel(base, rng))
        key = instance_key(family, size, gen_seed)
        out.append(Instance(key, digest, text, parse_instance(text)))
    return out


def load_references(instances) -> dict[str, tuple[tuple[int, int], ...]]:
    """Frozen oracle fronts (internal-sense outcomes, f1 ascending) by key.

    Each entry carries the digest of the generated instance it was built
    from, so a changed generator is reported instead of mis-compared.
    """
    frozen = json.loads(REFERENCES.read_text())
    refs = {}
    for inst in instances:
        entry = frozen.get(inst.key)
        if entry is None:
            raise SystemExit(f"no frozen reference for {inst.key}; run freeze_references.py")
        if inst.digest != entry["sha256"]:
            raise SystemExit(f"instance {inst.key} no longer matches its frozen reference")
        refs[inst.key] = tuple(tuple(p) for p in entry["front"])
    return refs
