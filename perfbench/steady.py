#!/usr/bin/env python3
"""Steadiness report: run workloads over several seeds and show how far each
end-to-end metric spreads.

    python3 perfbench/steady.py --seeds 1-10 [--workloads cold-snapshot,...] [--seconds 10]

For each workload it runs perfbench/run.py once per seed (untraced), prints
every run's end-to-end metrics beside its host probes (host.spin_ms, a
fixed integer loop, and host.mem_ms, a pointer chase, each the mean of a
reading before and after the run) and its wall time, and then, per metric,
the median and the spread: the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, checked
against a third of the metric's bound in BENCHMARK.json. Exits 1 if a run
fails or is incorrect, or if a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for wl in args.workloads.split(","):
        rows = []
        for seed in seeds_of(args.seeds):
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT)
            elapsed = time.time() - t0
            lines = proc.stdout.decode().strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: run failed (exit %d)" % (wl, seed, proc.returncode))
                ok = False
                continue
            res = json.loads(lines[-1])
            rec_path = os.path.join(ROOT, ".perfbench", "%s-seed%d-trace0.json" % (wl, seed))
            with open(rec_path) as f:
                rec = json.load(f)
            spin = statistics.mean(rec["host_spin_ms"])
            mem = statistics.mean(rec["host_mem_ms"])
            vals = {k: v["value"] for k, v in res["metrics"].items()}
            rows.append(vals)
            if not res["correct"] or res["failed"]:
                ok = False
            print("%-15s seed %3d  spin %5.1f ms  mem %5.1f ms  %s  correct=%s failed=%d/%d  %.0f s" % (
                wl, seed, spin, mem,
                "  ".join("%s=%.4g" % (k, v) for k, v in vals.items()),
                res["correct"], res["failed"], res["attempted"], elapsed), flush=True)
        if len(rows) < 2:
            continue
        for name, bound in bounds.items():
            xs = [r[name] for r in rows]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO NOISY")
            if spread > bound:
                ok = False
            print("  %-12s median %-10.4g spread %.3f (bound %.2f) %s" % (name, med, spread, bound, verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
