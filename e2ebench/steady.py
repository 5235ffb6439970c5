#!/usr/bin/env python3
"""Steadiness mode: two interleaved sets of runs of one commit.

    python3 e2ebench/steady.py [--runs 10] [--seconds 20] [--workloads a,b] [--seed0 1000]

Round i runs every workload once for set A and once for set B (which set
goes first alternates), each run with a seed of its own.  For every
workload and end-to-end metric it then prints each set's median and
quartiles (Python's statistics.quantiles(n=4)), the spread (Q3 - Q1) /
median, and whether set B's median is within the metric's bound of set
A's in the metric's bad direction, with the bounds read from
BENCHMARK.json.  It also compares the share of failed operations.  The
table and the raw results go to e2ebench/out/steady-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(here, workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(here, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with exit code {out.returncode}")
    return json.loads(lines[-1])


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed0", type=int, default=1000)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    results = {w: {"A": [], "B": []} for w in workloads}
    seed = args.seed0
    for i in range(args.runs):
        for s in (("A", "B") if i % 2 == 0 else ("B", "A")):
            for w in workloads:
                r = run_once(here, w, seed, args.seconds)
                r["seed"] = seed
                seed += 1
                results[w][s].append(r)
                print(f"round {i + 1}/{args.runs} set {s} {w} seed {r['seed']}: "
                      f"attempted {r['attempted']} failed {r['failed']} correct {r['correct']}",
                      file=sys.stderr, flush=True)
    table = []
    ok = True
    for w in workloads:
        sets = results[w]
        shares = {s: [r["failed"] / r["attempted"] for r in sets[s]] for s in "AB"}
        same_share = len(set(shares["A"] + shares["B"])) == 1
        correct = all(r["correct"] for s in "AB" for r in sets[s])
        ok &= same_share and correct
        print(f"\n{w}: failed share {sorted(set(shares['A'] + shares['B']))} "
              f"({'same in every run' if same_share else 'DIFFERS'}), "
              f"all correct: {correct}")
        print(f"  {'metric':<18} {'bound':>5}  {'A median [Q1, Q3]':>34} {'spread':>6}  "
              f"{'B median [Q1, Q3]':>34} {'spread':>6}  {'B vs A':>7}")
        for m in bench["end_to_end"]:
            name = m["name"]
            a = summary([r["metrics"][name]["value"] for r in sets["A"]])
            b = summary([r["metrics"][name]["value"] for r in sets["B"]])
            worse = (b["median"] - a["median"]) / a["median"]
            if m["better"] == "higher":
                worse = -worse
            agree = worse <= m["bound"]
            steady = name == "setup_s" or (a["spread"] <= m["bound"] and b["spread"] <= m["bound"])
            ok &= agree and steady
            table.append({"workload": w, "metric": name, "unit": m["unit"], "bound": m["bound"],
                          "A": a, "B": b, "b_worse_by": worse, "agree": agree, "steady": steady})
            fmt = lambda x: f"{x['median']:.4g} [{x['q1']:.4g}, {x['q3']:.4g}]"
            print(f"  {name:<18} {m['bound']:>5}  {fmt(a):>34} {a['spread']:>6.3f}  "
                  f"{fmt(b):>34} {b['spread']:>6.3f}  {worse:>+7.3f}"
                  f"{'' if agree and steady else '  <-- outside bound'}")
    os.makedirs(os.path.join(here, "out"), exist_ok=True)
    path = os.path.join(here, "out", time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as f:
        json.dump({"runs": args.runs, "seconds": args.seconds, "table": table,
                   "results": results}, f, indent=1)
    print(f"\nwritten {path}; {'all within bounds' if ok else 'SOME OUTSIDE BOUNDS'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
