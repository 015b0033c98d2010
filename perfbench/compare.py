"""Compare two saved benchmark results, metric by metric.

    python3 perfbench/compare.py .bench_results/A.json .bench_results/B.json

Refuses (exit 2) when the results come from different kernel backends or
workloads: the compiled backend moves per-kernel times by 0.97-2.0x, so
such a comparison says nothing about the code. For the same workload, seed
and mode, the two runs must also have printed the same operation outputs;
a mismatch exits 1.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    base, new = (json.loads(open(path).read()) for path in argv)
    for key in ("backend", "workload"):
        if base["meta"][key] != new["meta"][key]:
            sys.stderr.write(
                f"refusing to compare: {key} {base['meta'][key]!r} vs {new['meta'][key]!r}\n"
            )
            return 2
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            print(f"{name:34s} {b['value']:>14.6g} {'(missing)':>14s}")
            continue
        ratio = n["value"] / b["value"] if b["value"] else float("nan")
        print(f"{name:34s} {b['value']:>14.6g} {n['value']:>14.6g} {ratio:>8.3f}x {b['unit']}")
    same_input = all(base["meta"][k] == new["meta"][k] for k in ("seed", "trace"))
    if same_input and base["meta"]["output_digest"] != new["meta"]["output_digest"]:
        print("operation outputs differ for the same seed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
