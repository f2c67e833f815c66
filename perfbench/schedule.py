"""Request schedules, generated from the seed and the pool manifest only.

Every workload in ``manifest.json`` names a mix, which gives pool methods
a weight: the number of times each is requested per round.  A schedule
is a list of rounds, each one copy of that multiset in its own order
drawn from the seed.  Only the order depends on the seed, so every round
of every run does the same work.  Workloads sharing a mix get the same
orders for the same seed.
"""

from __future__ import annotations

import json
import random
from typing import List

VERDICTS = ("verified", "refuted")


def load_manifest(path: str) -> dict:
    """Read and check the manifest; ValueError names the first problem."""
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    pool = manifest["pool"]
    for method, entry in pool.items():
        if entry.get("expect") not in VERDICTS:
            raise ValueError(f"{method}: expect must be one of {VERDICTS}")
    overlap = sorted(set(pool) & set(manifest["excluded"]))
    if overlap:
        raise ValueError(f"both pooled and excluded: {', '.join(overlap)}")
    for name, mix in manifest["mixes"].items():
        unknown = sorted(set(mix) - set(pool))
        if unknown:
            raise ValueError(f"mix {name} weights methods outside the pool: {unknown}")
        if any(not isinstance(w, int) or w < 1 for w in mix.values()):
            raise ValueError(f"mix {name}: weights must be positive integers")
    unscheduled = sorted(set(pool) - {m for mix in manifest["mixes"].values() for m in mix})
    if unscheduled:
        raise ValueError(f"pooled but in no mix: {unscheduled}")
    for name, workload in manifest["workloads"].items():
        if workload["mix"] not in manifest["mixes"]:
            raise ValueError(f"{name} names an unknown mix {workload['mix']!r}")
    return manifest


def build_schedule(manifest: dict, workload: str, seed: int, rounds: int) -> List[List[str]]:
    """The seeded rounds of ``workload``, each a list of pool names."""
    mix = manifest["workloads"][workload]["mix"]
    weights = manifest["mixes"][mix]
    rng = random.Random(f"{mix}/{seed}")
    schedule = []
    for _ in range(rounds):
        bag = [m for m in sorted(weights) for _ in range(weights[m])]
        rng.shuffle(bag)
        schedule.append(bag)
    return schedule
