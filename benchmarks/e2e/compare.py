"""Compare benchmark results metric by metric against BENCHMARK.json's bounds.

    python3 benchmarks/e2e/compare.py BASE NEW

BASE and NEW are result files written by ``run.py --out``, or directories
of them (several runs of one side).  For every workload and every
end-to-end metric this prints both medians, the bound, and a verdict:

* ``ok`` -- NEW is not worse than BASE by more than the bound;
* ``worse`` -- it is;
* ``unresolved`` -- BASE's own spread (distance between its quartiles as
  a share of its median, needing two or more runs) is wider than the bound,
  so the comparison cannot tell.

Per-layer metrics, which have no bound, and the ungated ``capacity_dps``
and ``failed_frac`` print with the verdict ``-``.  Exits 1 when any
verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, over every result file under ``path``."""
    root = Path(path)
    files = sorted(root.glob("*.json")) if root.is_dir() else [root]
    values: Dict[str, Dict[str, List[float]]] = {}
    for file in files:
        for result in json.loads(file.read_text())["workloads"]:
            metrics = values.setdefault(result["workload"], {})
            for name, value in {**result["metrics"], **result.get("info", {})}.items():
                metrics.setdefault(name, []).append(float(value))
    return values


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    if spread(base) > bound:
        return "unresolved"
    b, n = statistics.median(base), statistics.median(new)
    if b == 0:
        return "ok" if (n <= 0 if better == "lower" else n >= 0) else "worse"
    change = (n - b) / abs(b)
    worse_by = change if better == "lower" else -change
    return "worse" if worse_by > bound else "ok"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    base, new = load(args[0]), load(args[1])
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    listed = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    worse = False
    print(f"{'workload':12s} {'metric':32s} {'base':>12s} {'new':>12s} {'bound':>6s}  verdict")
    for workload in sorted(set(base) & set(new)):
        for name in listed + sorted(set(base[workload]) - set(listed)):
            if name not in base[workload] or name not in new[workload]:
                continue
            b, n = base[workload][name], new[workload][name]
            metric = bounded.get(name)
            result = "-" if metric is None else verdict(b, n, metric["better"], metric["bound"])
            worse |= result == "worse"
            bound = "" if metric is None else metric["bound"]
            print(
                f"{workload:12s} {name:32s} {statistics.median(b):12.6g} "
                f"{statistics.median(n):12.6g} {bound:>6}  {result}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
