#!/usr/bin/env python3
"""The benchmark's own test: determinism and zero failures.

    python3 perfbench/selftest.py [--seconds 3] [--other-seed 2]

For every workload it runs perfbench/run.py twice at the default seed (1)
and once at another seed, all untraced, and fails (exit 1) when
- a run fails, reports an incorrect result or a failed op (at seed 1 this
  includes the per-op answer digests and counts committed under
  perfbench/digests), or
- a count that must repeat exactly across runs of one seed differs between
  the two seed-1 runs: dataplane.routes, dataplane.simulated_nodes,
  forwarding.edges, bdd.nodes (serial workloads), failures.simulated and
  service.computed.
The planner-decision counts (planner.parallel / planner.serial) are printed
per run, so a flip shows.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-snapshot", "edit-stream", "daemon-queries", "failure-sweep")


def run(wl, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, None
    with open(os.path.join(ROOT, ".perfbench", "%s-seed%d-trace0.json" % (wl, seed))) as f:
        return json.loads(lines[-1]), json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=3)
    ap.add_argument("--other-seed", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    ok = True
    for wl in args.workloads.split(","):
        runs = [run(wl, 1, args.seconds), run(wl, 1, args.seconds),
                run(wl, args.other_seed, args.seconds)]
        for (res, rec), seed in zip(runs, (1, 1, args.other_seed)):
            if res is None:
                print("FAIL %s seed %d: run failed" % (wl, seed))
                ok = False
                continue
            good = res["correct"] and res["failed"] == 0
            ok &= good
            planner = {k: rec["counts"].get(k) for k in ("planner.parallel", "planner.serial")
                       if k in rec["counts"]}
            print("%s %s seed %d: %d ops, %d failed, correct=%s %s" % (
                "ok  " if good else "FAIL", wl, seed, res["attempted"], res["failed"],
                res["correct"], planner or ""))
        (_, a), (_, b) = runs[0], runs[1]
        if a is not None and b is not None:
            if a["determinism"] != b["determinism"]:
                ok = False
                for k in sorted(set(a["determinism"]) | set(b["determinism"])):
                    if a["determinism"].get(k) != b["determinism"].get(k):
                        print("FAIL %s: %s differs between two seed-1 runs" % (wl, k))
            else:
                print("ok   %s: determinism counts repeat (%s)" % (
                    wl, ", ".join(sorted(a["determinism"]))))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
