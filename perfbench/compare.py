"""Per-metric deltas between two sets of result files written by ``run.py``.

Each side is one result file, a directory of them, or a bundle made by
``collect``; runs of the same workload and trace mode are combined by
their median. For every metric
the report gives both medians, the change, each side's spread (the
distance between the first and third quartile over the median, when the
side has at least two runs) and whether the change is better or worse by
the direction ``BENCHMARK.json`` gives the metric. It is a report, not a
gate: judging the change is left to the reader.
"""

import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _directions() -> dict:
    try:
        doc = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["better"] for m in doc.get("end_to_end", []) + doc.get("per_layer", [])}


def _results(path) -> list:
    """The result documents in a result file, a bundle, or a directory of either."""
    path = Path(path)
    docs = []
    for file in sorted(path.glob("*.json")) if path.is_dir() else [path]:
        doc = json.loads(file.read_text(encoding="utf-8"))
        docs += doc["runs"] if "runs" in doc else [doc] if "metrics" in doc else []
    return docs


def _load(path) -> dict:
    """(workload, trace) -> list of {metric: {value, unit}}, one per run."""
    runs = {}
    for doc in _results(path):
        key = (doc.get("workload", "?"), doc.get("trace", "?"))
        runs.setdefault(key, []).append({**doc["metrics"], **doc.get("extra", {})})
    return runs


def collect(source, dest) -> int:
    """Bundle the result documents under ``source`` into one file, without their raw samples."""
    dropped = ("samples_s", "scaled_samples_s", "self_ms_by_span")
    runs = [{k: v for k, v in doc.items() if k not in dropped} for doc in _results(source)]
    bundle = {
        "made_by": "python3 perfbench/run.py --workload W --seed S --seconds T --trace X"
                   " for each run below, bundled with --collect",
        "runs": runs,
    }
    Path(dest).write_text(json.dumps(bundle, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} runs to {dest}")
    return 0


def _spread(values) -> str:
    if len(values) < 2:
        return "-"
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return f"{(q3 - q1) / abs(median):.1%}" if median else "-"


def main(old_path, new_path) -> int:
    old, new = _load(old_path), _load(new_path)
    better = _directions()
    for key in sorted(old.keys() | new.keys(), key=str):
        if key not in old or key not in new:
            print(f"# {key[0]} trace {key[1]}: only in {'new' if key in new else 'old'}")
            continue
        a_runs, b_runs = old[key], new[key]
        print(f"# {key[0]} trace {key[1]}: {len(a_runs)} old run(s), {len(b_runs)} new run(s)")
        print(f"{'metric':34s} {'old':>13s} {'new':>13s} {'delta':>8s} {'old IQR':>7s} {'new IQR':>7s}  unit")
        names = list(dict.fromkeys(name for run in a_runs + b_runs for name in run))
        for name in names:
            a = [run[name]["value"] for run in a_runs if name in run]
            b = [run[name]["value"] for run in b_runs if name in run]
            if not a or not b:
                print(f"{name:34s} only in {'new' if b else 'old'}")
                continue
            unit = (b_runs[0].get(name) or a_runs[0][name])["unit"]
            ma, mb = statistics.median(a), statistics.median(b)
            delta = f"{(mb - ma) / abs(ma):+8.1%}" if ma else f"{'-':>8s}"
            verdict = ""
            if name in better and ma != mb:
                verdict = "  better" if (mb < ma) == (better[name] == "lower") else "  worse"
            print(f"{name:34s} {ma:13.6g} {mb:13.6g} {delta} {_spread(a):>7s} {_spread(b):>7s}  {unit}{verdict}")
    return 0
