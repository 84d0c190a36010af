"""Workload inputs generated from the benchmark seed.

The program under test only ever sees the operations listed here.

Seed-to-seed steadiness: a paper cell's instances vary a lot in size
(tree cells span 61 to 4995 tasks, bimodally), so a round of a few
instances drawn freely would cost up to twice as much on one seed as
on another, and ``sims_per_s`` would measure the seed instead of the
code.  Each round therefore holds instances of fixed *sizes*: per
operation the benchmark names a target task count (quantiles of the
cell's size distribution, measured once over 300 instances and written
into :data:`SIZE_TARGETS`), and the seed chooses *which* of the
generator's instances near that size is run.  Every chosen instance is
a genuine draw of the cell; only the mix of sizes is fixed.
"""

from __future__ import annotations

import hashlib
import random

#: Quantiles 1/8, 3/8, 5/8, 7/8 of n_tasks per cell family (random and
#: layered structures share the size parameters).
SIZE_TARGETS = {
    "ep": (930, 1245, 1567, 1876),
    "tree": (113, 452, 4991, 4995),
    "ir": (2287, 2599, 2914, 3224),
}
#: Median n_tasks per family, for single-instance operations.
MEDIAN_TASKS = {"ep": 1400, "ir": 2750}
#: Preemptive runs take the tree cell's small mode: a 5000-task tree
#: under the quantum engine alone would outweigh the rest of the round.
PREEMPTIVE_TASKS = {"ep": 1400, "tree": 452, "ir": 2750}

FIG4_CELLS = (
    "small-random-ep",
    "medium-random-tree",
    "medium-random-ir",
    "small-layered-ep",
    "medium-layered-tree",
    "medium-layered-ir",
)
LAYERED_CELLS = ("small-layered-ep", "medium-layered-tree", "medium-layered-ir")

#: Candidates drawn per cell to find instances near the size targets.
POOL = 16

#: engine_variants: processors per type of the work-stealing instances
#: (256 tasks-per-type chains keep one run near 20 ms).
DECENTRAL_P = 64

#: route_mix request shapes.
HOT_CELL = "small-layered-ep"
FRESH_CELL = "medium-layered-ir"
SWEEP_CELL = "small-layered-ep"
SWEEP_ALGORITHMS = ("kgreedy", "mqb")
SWEEP_INSTANCES = 4
HOT_SEEDS = 16


def seed_base(tag: str, seed: int) -> int:
    """A process-independent integer in ``[1, 2**30)`` for (tag, seed)."""
    raw = hashlib.sha256(f"{tag}:{seed}".encode("utf-8")).digest()
    return 1 + int.from_bytes(raw[:4], "big") % (2**30 - 1)


def instance_tasks(spec, run_seed: int) -> int:
    """n_tasks of instance 0 of a sweep seeded with ``run_seed``.

    The experiment runners draw instance ``i`` from the first child of
    ``SeedSequence([seed, i])`` and sample the job first, so this is
    the job they will simulate.
    """
    import numpy as np

    from repro.workloads.generator import sample_job

    child = np.random.SeedSequence([run_seed, 0]).spawn(1)[0]
    return int(sample_job(spec, np.random.default_rng(child)).n_tasks)


def sized_seeds(spec, targets, tag: str, seed: int, pool: int = POOL) -> list[int]:
    """Run seeds whose instance 0 is nearest each target size, distinct."""
    base = seed_base(tag, seed)
    sizes = {s: instance_tasks(spec, s) for s in range(base, base + pool)}
    chosen: list[int] = []
    for target in targets:
        best = min(
            (s for s in sizes if s not in chosen),
            key=lambda s: (abs(sizes[s] - target), s),
        )
        chosen.append(best)
    return chosen


def _family(cell: str) -> str:
    return cell.rsplit("-", 1)[1]


def fig4_ops(seed: int) -> list[dict]:
    """Six Fig-4 cells x four sized instances, one comparison each."""
    from repro.workloads.generator import WORKLOAD_CELLS

    ops = []
    for cell in FIG4_CELLS:
        targets = SIZE_TARGETS[_family(cell)]
        for s in sized_seeds(WORKLOAD_CELLS[cell], targets, f"fig4/{cell}", seed):
            ops.append({"kind": "comparison", "cell": cell, "seed": s})
    return ops


def variant_ops(seed: int) -> list[dict]:
    """One round of the non-default engines, each at most ~1/3 of it."""
    from repro.experiments.energy import ENERGY_CELL
    from repro.workloads.generator import WORKLOAD_CELLS

    ops: list[dict] = []
    # Work-stealing instances are 2P chains of 4-8 tasks: their size
    # barely varies, so plain seeds suffice.
    for policy in ("steal", "global"):
        base = seed_base(f"decentral/{policy}", seed)
        ops += [
            {"kind": "decentral", "policy": policy, "seed": base + j}
            for j in range(8)
        ]
    ir = WORKLOAD_CELLS["medium-layered-ir"]
    median_ir = (MEDIAN_TASKS["ir"],) * 4
    robust = sized_seeds(ir, median_ir, "robustness", seed, pool=12)
    for rate, s in zip((0.0, 0.0, 0.5, 0.5), robust):
        ops.append(
            {"kind": "robustness", "cell": "medium-layered-ir", "rate": rate, "seed": s}
        )
    for cell in LAYERED_CELLS:
        target = (PREEMPTIVE_TASKS[_family(cell)],)
        (s,) = sized_seeds(WORKLOAD_CELLS[cell], target, f"preemptive/{cell}", seed, pool=8)
        ops.append({"kind": "preemptive", "cell": cell, "seed": s})
    ops.append({"kind": "stream", "seed": seed_base("stream", seed)})
    (s,) = sized_seeds(
        WORKLOAD_CELLS[ENERGY_CELL], (MEDIAN_TASKS["ir"],), "energy", seed, pool=8
    )
    ops.append({"kind": "energy", "power": "hetero", "seed": s})
    return ops


def route_plan(seed: int) -> dict:
    """Seeds of the three request classes; fresh and sweep never repeat."""
    rng = random.Random(seed_base("route", seed))
    hot = rng.sample(range(1, 2**20), HOT_SEEDS)
    return {
        "hot_seeds": hot,
        # Disjoint from the hot range and from each other.
        "fresh_base": 2**21 + rng.randrange(2**24),
        "sweep_base": 2**26 + rng.randrange(2**24),
    }
