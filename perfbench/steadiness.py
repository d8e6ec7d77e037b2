"""Steadiness record: independent sets of seeded runs, and their spreads.

    python3 perfbench/steadiness.py

Run from the root of a checkout; it writes ``perfbench/steadiness.json``.
Each of two sets runs every workload once per seed for ten seeds, seeds
interleaved across workloads, with the ``run_seconds`` of
BENCHMARK.json and tracing off.  Sets use disjoint seeds.  For every
end-to-end metric the record keeps the values, the median and the
quartile spread (Q3 - Q1 over the median, as ``statistics.quantiles``
gives the quartiles), and, from the second set on, how much worse its
median is than the first set's, as a share of the first.
"""

import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETS = 2
SEEDS = 10


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median,
            "spread": (q3 - q1) / median if median else 0.0}


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    record = {"date": datetime.date.today().isoformat(),
              "run_seconds": spec["run_seconds"], "sets": []}
    for k in range(SETS):
        runs = {w: [] for w in names}
        for seed in range(1000 * (k + 1), 1000 * (k + 1) + SEEDS):
            for w in names:
                res = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", w,
                     "--seed", str(seed), "--seconds",
                     str(spec["run_seconds"]), "--trace", "0"],
                    capture_output=True, text=True, timeout=200, check=True)
                lines = res.stdout.splitlines()
                env = next(json.loads(line[4:]) for line in lines
                           if line.startswith("env "))
                doc = json.loads(lines[-1])
                runs[w].append({"env": env, "result": doc})
                print("set %d seed %d %-12s %s" % (
                    k + 1, seed, w, " ".join(
                        "%s=%.4g" % (n, m["value"])
                        for n, m in doc["metrics"].items())), flush=True)
        summary = {}
        for w in names:
            summary[w] = {}
            for n in metrics:
                summary[w][n] = summarize(
                    [r["result"]["metrics"][n]["value"] for r in runs[w]])
                summary[w][n]["correct"] = all(
                    r["result"]["correct"] for r in runs[w])
        record["sets"].append({"runs": runs, "summary": summary})
    first = record["sets"][0]["summary"]
    for later in record["sets"][1:]:
        for w, per_metric in later["summary"].items():
            for n, s in per_metric.items():
                base = first[w][n]["median"]
                sign = 1 if metrics[n]["better"] == "lower" else -1
                s["worse_than_first"] = (
                    sign * (s["median"] - base) / base if base else 0.0)
    (HERE / "steadiness.json").write_text(json.dumps(record, indent=1) + "\n")
    for k, st in enumerate(record["sets"]):
        for w, per_metric in st["summary"].items():
            print("set %d %-12s " % (k + 1, w) + "  ".join(
                "%s spread %.3f%s" % (
                    n, s["spread"],
                    " drift %+.3f" % s["worse_than_first"]
                    if "worse_than_first" in s else "")
                for n, s in per_metric.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
