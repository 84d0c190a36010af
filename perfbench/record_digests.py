"""Rewrite ``digests.json``: the default seed's outputs, computed in-process.

    python3 perfbench/record_digests.py

The benchmark compares every output on the default seed against these
digests, so a change in what the program computes shows as failed
operations.  Re-record only when a change of results is intended.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    os.environ["REPRO_CACHE"] = "0"
    os.environ["XDG_CACHE_HOME"] = str(ROOT / ".perfbench" / "cache")
    os.environ["REPRO_NATIVE_DIR"] = str(ROOT / ".perfbench" / "native")
    sys.path.insert(0, str(ROOT / "src"))

    import serving
    import stats
    from compute import build_operation
    from inputs import fig4_ops, route_plan, variant_ops
    from run import DEFAULT_SEED

    out = {"seed": DEFAULT_SEED}
    for workload, ops in (("fig4_sweep", fig4_ops), ("engine_variants", variant_ops)):
        out[workload] = [stats.digest(build_operation(op)[0]()) for op in ops(DEFAULT_SEED)]
    plan = route_plan(DEFAULT_SEED)
    route = {"hot": {}, "fresh": {}, "sweep": {}}
    for seed in plan["hot_seeds"]:
        route["hot"][str(seed)] = stats.digest(serving.recompute("hot", seed))
    for cls, n in serving.DIGESTED.items():
        for client in range(serving.CLIENTS):
            for j in range(n):
                seed = serving.request_seed(plan, cls, client, j)
                route[cls][str(seed)] = stats.digest(serving.recompute(cls, seed))
    out["route_mix"] = route
    (HERE / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
