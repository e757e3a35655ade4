"""Summarize benchmark result records into one point of the bench trajectory.

    python3 perfbench/summarize.py [perfbench/out/results] > point.json

Groups the records that run.py wrote by workload. For the untraced runs it
gives each end-to-end metric's median and quartiles over the runs, plus the
printed-only figures (pass_s_p90, failed_frac), the unscaled wall-time
medians and the speed scale; for the traced runs, the median of each
per-layer metric.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def spread(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, iqr_share=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def summarize(records: list[dict]) -> dict:
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for record in records:
        groups[(record["workload"], record["trace"])].append(record)
    summary: dict = {}
    for (workload, trace), runs in sorted(groups.items()):
        entry = summary.setdefault(workload, {})
        first = runs[0]
        entry["provenance"] = {k: first[k] for k in ("commit", "python", "numpy", "nproc")}
        metrics = defaultdict(list)
        for run in runs:
            for name, metric in run["metrics"].items():
                metrics[name].append(metric["value"])
        block = {
            "seeds": sorted(run["seed"] for run in runs),
            "seconds": first["seconds"],
            "correct": all(run["correct"] for run in runs),
            "metrics": {name: spread(values) for name, values in metrics.items()},
        }
        if trace == 0:
            p90s = [run["pass_s_p90"] for run in runs if run["pass_s_p90"] is not None]
            block["pass_s_p90"] = spread(p90s) if p90s else None
            block["failed_frac"] = spread([run["failed_frac"] for run in runs])
            block["passes_per_run"] = spread([len(run["pass_wall_s"]) for run in runs])
            block["pass_wall_s_p50"] = spread([statistics.median(run["pass_wall_s"]) for run in runs])
            block["scale"] = spread([run["scale"] for run in runs])
        entry["traced" if trace else "untraced"] = block
    return summary


def main(argv: list[str]) -> int:
    results = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent / "out" / "results"
    records = [json.loads(path.read_text()) for path in sorted(results.glob("*.json"))]
    if not records:
        print(f"no result records under {results}", file=sys.stderr)
        return 1
    print(json.dumps(summarize(records), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
