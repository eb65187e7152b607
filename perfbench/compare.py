#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Both files come from perfbench/sweep.py (one JSON record per run). For each
(workload, metric) present in both, prints each side's median and quartiles
and a verdict, using the bound BENCHMARK.json fixes for the metric:

  worse       the change's median is worse than the base's by more than the
              bound;
  unresolved  not worse by more than the bound, but either side's spread
              (quartile distance over median) exceeds the bound, and not
              every change run beats every base run;
  better      the change wins at least 9 in 10 of the runs paired by seed
              and its median beats the base's by more than the base's own
              quartile distance;
  within      none of the above: no change beyond the bound;
  failed      a run of that workload, on either side, ended without a
              result, with a non-zero exit code, or with correct=false or
              failed > 0. Such runs are not averaged in or skipped: the
              workload's every metric reads `failed`.

Per-layer metrics (traced runs) have no bound; they are listed with their
relative change and, from perfbench/layers.json, the end-to-end metric each
is expected to move. Before the table, each side's runs, failed runs,
attempted and failed operations are printed per workload. Exits 1 when any
metric reads `worse` or `failed`.
"""
import json
import sys
from pathlib import Path

from sweep import load, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def series(records):
    """{(workload, metric): {seed: value}} over runs that produced a result."""
    out = {}
    for rec in records:
        res = rec.get("result")
        if not res:
            continue
        for name, m in res["metrics"].items():
            out.setdefault((rec["workload"], name), {})[rec["seed"]] = m["value"]
    return out


def health(records):
    """{workload: (runs, bad seeds, attempted, failed)}; a run is bad when it
    has no result, a non-zero exit code, correct=false or failed > 0."""
    out = {}
    for rec in records:
        runs, bad, attempted, failed = out.get(rec["workload"], (0, [], 0, 0))
        res = rec.get("result")
        if res:
            attempted += res["attempted"]
            failed += res["failed"]
        if (rec.get("rc") != 0 or not res or not res["correct"] or
                res["failed"]):
            bad = bad + [rec["seed"]]
        out[rec["workload"]] = (runs + 1, bad, attempted, failed)
    return out


def verdict(base, change, bound, higher_better):
    b_med, b_q1, b_q3, _ = summarize(list(base.values()))
    c_med, c_q1, c_q3, _ = summarize(list(change.values()))
    sign = -1.0 if higher_better else 1.0
    # Positive = the change is worse, as a share of the base median.
    worse_by = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    spread = max((b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)

    def beats(c, b):
        return sign * (c - b) < 0

    all_better = all(beats(c, b) for c in change.values()
                     for b in base.values())
    seeds = sorted(set(base) & set(change))
    wins = sum(beats(change[s], base[s]) for s in seeds)
    if worse_by > bound:
        v = "worse"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif (seeds and wins >= 0.9 * len(seeds) and
          sign * (b_med - c_med) > (b_q3 - b_q1)):
        v = "better"
    else:
        v = "within"
    return v, (b_med, b_q1, b_q3), (c_med, c_q1, c_q3), worse_by


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    layers = {m["name"]: m for m in doc["per_layer"]}
    moves = json.loads((BENCH_DIR / "layers.json").read_text())["per_layer"]
    base_recs, change_recs = load(sys.argv[1]), load(sys.argv[2])
    base, change = series(base_recs), series(change_recs)
    health_of = {"base": health(base_recs), "change": health(change_recs)}
    failed_workloads = set()
    for side, hs in health_of.items():
        for w, (runs, bad, attempted, failed) in sorted(hs.items()):
            print(f"{side:6} {w:14} runs {runs:3d}  failed runs {len(bad):3d}"
                  f"{' (seeds ' + ','.join(map(str, bad)) + ')' if bad else ''}"
                  f"  attempted {attempted}  failed {failed}")
            if bad:
                failed_workloads.add(w)
    print()

    any_bad = False
    print(f"{'workload':14} {'metric':30} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'worse by':>9}  verdict")
    for key in sorted(set(base) & set(change)):
        w, name = key
        decl = e2e.get(name) or layers.get(name)
        if decl is None:
            continue
        hb = decl["better"] == "higher"
        bound = decl.get("bound")
        v, b, c, worse_by = verdict(base[key], change[key],
                                    bound if bound is not None else 0.0, hb)
        if bound is None:
            targets = ", ".join(f"{m} on {wl}" for m, wl in
                                moves.get(name, {}).get("moves", []))
            v = f"(layer; moves {targets})" if targets else "(layer)"
        if w in failed_workloads:
            v = "failed"
        any_bad |= v in ("worse", "failed")
        print(f"{w:14} {name:30} {b[0]:12.6g} [{b[1]:9.4g}, {b[2]:9.4g}] "
              f"{c[0]:12.6g} [{c[1]:9.4g}, {c[2]:9.4g}] {worse_by:+9.2%}  {v}")
    sys.exit(1 if any_bad or failed_workloads or not base or not change
             else 0)


if __name__ == "__main__":
    main()
