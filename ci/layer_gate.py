#!/usr/bin/env python3
"""Gate perfbench's traced per-layer costs against a committed baseline.

    python3 ci/layer_gate.py ci/perfbench_layers.json \\
        perfbench-layers-estimate.json perfbench-layers-audit-cold.json

Each result file holds the last line that
`perfbench/run.py --workload W --trace 1` prints, and its name ends in W.
The baseline maps each workload to the costs gated on it. Exits 1 when a
result is not correct, has a failed operation or is missing, or when a
gated cost is worse than its baseline by more than BAND; which way is
better comes from BENCHMARK.json. A cost that is better by more than BAND
passes and prints how to refresh the baseline.
"""

import json
import sys
from pathlib import Path

BAND = 0.40
ROOT = Path(__file__).resolve().parent.parent


def main(baseline_path, *result_paths):
    baseline = json.loads(Path(baseline_path).read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    failures, seen = [], set()
    for path in result_paths:
        workload = next(
            (w for w in baseline if Path(path).stem.endswith(w)), None)
        if workload is None:
            failures.append(f"{path}: its name ends in none of "
                            f"{sorted(baseline)}")
            continue
        seen.add(workload)
        result = json.loads(Path(path).read_text().strip().splitlines()[-1])
        if result["correct"] is not True or result["failed"] != 0:
            failures.append(f"{path}: not correct (correct: "
                            f"{json.dumps(result['correct'])}, "
                            f"{result['failed']} of {result['attempted']} "
                            f"operations failed)")
        for name, base in baseline[workload].items():
            value = result["metrics"][name]["value"]
            worse = (value - base) / base
            if better[name] == "higher":
                worse = -worse
            print(f"{workload} {name}: {value:.4g} against {base:.4g}, "
                  f"{worse:+.1%} worse")
            if worse > BAND:
                failures.append(f"{workload} {name} is {worse:.1%} worse "
                                f"than the baseline (band {BAND:.0%})")
            elif worse < -BAND:
                print(f"  better beyond the {BAND:.0%} band: refresh "
                      f"{baseline_path} with the median of five "
                      f"`perfbench/run.py --workload {workload} "
                      f"--seconds 1 --trace 1` runs")
    failures += [f"no result for {w}" for w in sorted(set(baseline) - seen)]
    for failure in failures:
        print(f"layer gate FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
