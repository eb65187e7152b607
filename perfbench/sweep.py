#!/usr/bin/env python3
"""Runs the benchmark over several seeds and records every result.

    python3 perfbench/sweep.py --out runs.jsonl [--workloads a,b] \
        [--seeds 1-10] [--seconds S] [--trace 0|1]

Each run is one `perfbench/run.py` invocation; its JSON result line, host
line and exit code are appended to --out as one JSON object per line. The
summary printed at the end gives, per (workload, metric), the median, the
quartiles (statistics.quantiles, n=4) and the spread: the distance between
the quartiles as a share of the median. Compare two such files with
perfbench/compare.py.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def spread_rows(records):
    """(workload, metric, unit, values) per metric, in first-seen order."""
    rows = {}
    for rec in records:
        res = rec.get("result")
        if not res:
            continue
        for name, m in res["metrics"].items():
            key = (rec["workload"], name)
            rows.setdefault(key, (m["unit"], []))[1].append(m["value"])
    return [(w, n, u, v) for (w, n), (u, v) in rows.items()]


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def print_summary(records, bounds):
    print(f"{'workload':14} {'metric':30} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for w, n, u, v in spread_rows(records):
        med, q1, q3, spread = summarize(v)
        b = bounds.get(n)
        flag = "" if b is None or spread <= b / 3 else "  <-- above bound/3"
        print(f"{w:14} {n:30} {len(v):3d} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:8.4f} {b if b is not None else '':>6}{flag}")


def bounds_of():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in doc["end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in doc["workloads"]])
    seconds = args.seconds or doc["run_seconds"]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for w in workloads:
                cmd = [sys.executable, str(BENCH_DIR / "run.py"),
                       "--workload", w, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", args.trace]
                p = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                   text=True)
                lines = p.stdout.strip().splitlines()
                rec = {"workload": w, "seed": seed, "trace": args.trace,
                       "rc": p.returncode, "result": None, "host": None}
                for line in lines:
                    if line.startswith("host "):
                        rec["host"] = json.loads(line[5:])
                if p.returncode == 0 and lines:
                    rec["result"] = json.loads(lines[-1])
                else:
                    rec["stderr"] = p.stderr[-2000:]
                out.write(json.dumps(rec) + "\n")
                out.flush()
                res = rec["result"] or {}
                print(f"seed {seed} {w}: rc {p.returncode} correct "
                      f"{res.get('correct')} failed {res.get('failed')}",
                      file=sys.stderr)
    print_summary(load(args.out), bounds_of())


if __name__ == "__main__":
    main()
