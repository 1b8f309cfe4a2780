#!/usr/bin/env python3
"""Entry point of the layer-attributed pipeline benchmark.

    python3 perfbench/run.py --workload edit-stream --seed 1 --seconds 10 --trace 0

Builds the benchmark program (perfbench/pb.ml) and the CLI from source with
dune, runs one workload in a child process and relays its one-line JSON
result as the last line of standard output. Build output and progress go to
standard error. Run records and trace files land in .perfbench/ at the root
of the checkout. Exits non-zero, without a result line, when the checkout
cannot be built or the run fails. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("cold-snapshot", "edit-stream", "daemon-queries", "failure-sweep")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
OUT_DIR = ".perfbench"


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (the daemon-queries workload starts a daemon of its own) and wait."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite perfbench/digests/<workload>.txt (seed 1 only)")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: %s holds no dune project to build" % root, file=sys.stderr)
        return 2
    if args.record_digests and args.seed != 1:
        print("perfbench: digests are committed for seed 1 only", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    # The dune cache would write outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_group(
        ["dune", "build", "--root", ".", "-j", "2",
         "perfbench/pb.exe", "bin/batfish_cli.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [os.path.join("_build", "default", "perfbench", "pb.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join("_build", "default", "bin", "batfish_cli.exe"),
           "--out", OUT_DIR, "--digests", os.path.join("perfbench", "digests")]
    if args.record_digests:
        cmd.append("--record-digests")
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, env=env)
    lines = out.decode().strip().splitlines()
    if code != 0 or not lines:
        print("perfbench: workload run failed (exit %d)" % code, file=sys.stderr)
        return 4
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: malformed result line", file=sys.stderr)
        return 5
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
