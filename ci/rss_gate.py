#!/usr/bin/env python3
"""Gate perfbench's untraced answers and peak memory.

    python3 ci/rss_gate.py ci/perfbench_rss.json \\
        perfbench-estimate.json perfbench-audit-cold.json

Each result file holds the last line that
`perfbench/run.py --workload W --trace 0` prints, and its name ends in W.
The ceilings file maps each workload to the most `peak_rss_mb` it may
report. Exits 1 when a result is not correct, has a failed operation or
is missing, or when its peak RSS is above the workload's ceiling.
"""

import json
import sys
from pathlib import Path


def main(ceilings_path, *result_paths):
    ceilings = json.loads(Path(ceilings_path).read_text())
    failures, seen = [], set()
    for path in result_paths:
        workload = next(
            (w for w in ceilings if Path(path).stem.endswith(w)), None)
        if workload is None:
            failures.append(f"{path}: its name ends in none of "
                            f"{sorted(ceilings)}")
            continue
        seen.add(workload)
        result = json.loads(Path(path).read_text().strip().splitlines()[-1])
        if result["correct"] is not True or result["failed"] != 0:
            failures.append(f"{path}: not correct (correct: "
                            f"{json.dumps(result['correct'])}, "
                            f"{result['failed']} of {result['attempted']} "
                            f"operations failed)")
        rss = result["metrics"]["peak_rss_mb"]["value"]
        ceiling = ceilings[workload]
        print(f"{workload} peak_rss_mb: {rss:.1f} MB, ceiling {ceiling} MB")
        if rss > ceiling:
            failures.append(f"{workload} peak_rss_mb {rss:.1f} MB is above "
                            f"its ceiling of {ceiling} MB")
    failures += [f"no result for {w}" for w in sorted(set(ceilings) - seen)]
    for failure in failures:
        print(f"rss gate FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
