"""Record bench/reference.json: every cell of both presets and of the cold
points of the given seeds, at full precision.

    python3 bench/record_reference.py [SEED ...]     (default: seeds 0 to 10)

Run it only on a commit whose outputs are trusted; check.py compares every
later run against what it writes.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run  # sets the thread variables and the import path
import check
import tracer as tracing
import workloads


def main(argv: list[str]) -> int:
    seeds = [int(a) for a in argv] or list(range(11))
    sys.path.insert(0, str(run.SRC))
    points: dict[str, dict] = {}
    jobs = [("fig2", 0), ("fig3", 0)] + [("cold_points", seed) for seed in seeds]
    with tempfile.TemporaryDirectory(dir=run.ROOT) as out_dir:
        for name, seed in jobs:
            workload = workloads.build(name, seed, out_dir)
            timer = tracing.PointTimer()
            with tracing.installed(timer, None):
                workload.run_pass()
            for config, results, _ in timer.points:
                points[check.point_key(config)] = check.reference_values(results)
            print(f"recorded {name} seed {seed}: {len(timer.points)} points", flush=True)
    reference = {"cold_point_seeds": seeds, "source": run.source_digest(), "points": points}
    with open(check.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
