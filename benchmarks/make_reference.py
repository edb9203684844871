"""Write the reference outputs the benchmark compares against at the default seed.

    python3 benchmarks/make_reference.py

Run it from the root of a checkout, and only when a change to drmel is
meant to change its outputs. Each output must pass the invariant checks
first. For estimate-cli it also prints how far each estimated quantile is
from its neighbours in the pooled sample, relative to its value: the
reference tolerance must stay well below the smallest of these gaps, so that
a different quantile pick cannot pass.
"""

from __future__ import annotations

import bisect
import json
import math
import sys

from common import DEFAULT_SEED, REFERENCE_DIR, SCALES, SRC, csv_groups, write_csv


def main() -> int:
    sys.path.insert(0, str(SRC))
    from workloads import REFERENCE_RTOL, WORKLOAD_CLASSES, EstimateCli

    write_csv(DEFAULT_SEED, "full")
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, cls in WORKLOAD_CLASSES.items():
        workload = cls(DEFAULT_SEED, "full", with_reference=False)
        outputs = []
        for v in range(workload.variants):
            out = workload.run(v, workload.workers)
            problems = workload.invariant_problems(out)
            if problems:
                print(f"{name} variant {v}: {problems}", file=sys.stderr)
                return 1
            outputs.append(out)
        if cls is EstimateCli:
            groups = csv_groups(DEFAULT_SEED, "full")
            pooled = sorted(math.log(x) for g in ("base", "t1") for x in groups[g].tolist())
            rows = [line.split(",") for line in outputs[0].splitlines()[1:]]
            gaps = []
            for row in rows:
                point = float(row[2])
                i = bisect.bisect_left(pooled, point - 1e-9 * abs(point))
                near = pooled[max(i - 1, 0): i + 3]
                gaps.append(min(abs(a - b) for a, b in zip(near, near[1:]) if a != b) / abs(point))
            print(f"{name}: smallest relative gap at a quantile pick {min(gaps):.3g} "
                  f"(tolerance {REFERENCE_RTOL:g})")
        with open(REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump({"seed": DEFAULT_SEED, "params": SCALES["full"][name], "outputs": outputs},
                      fh, indent=1)
            fh.write("\n")
        print(f"wrote reference for {name}: {len(outputs)} output(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
