#!/usr/bin/env python3
"""Build and run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune, runs it, and passes its output
through: the last line of a workload's output is the result object
{"correct", "attempted", "failed", "metrics"}.  A run that completed and
passed every output check appends one row to perfbench/trajectory.jsonl,
keyed by commit and machine fingerprint.  Exits non-zero, without a
result line, when the sources are missing or the build fails.
--workload all runs every workload in turn and exits non-zero if any
output check failed.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["sweep-trees", "sweep-store", "dynamics", "serve-mixed"]
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
TRAJECTORY = os.path.join("perfbench", "trajectory.jsonl")
# A workload run ends well inside the 180 s a run may take; the first
# run in a fresh checkout also builds, which may take up to 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
SOURCE_DIRS = ["lib", "bin", "perfbench"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        fail("no dune-project and lib/ here: run from the root of a source checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail("build failed (dune exit %d)" % p.returncode)


def run_bench(workload, args):
    cmd = [BENCH, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    pin = None
    if workload == "serve-mixed":
        # The client and its daemon ping-pong one request at a time.  Left
        # to migrate between the host's two vCPUs, each hop pays a
        # cross-vCPU wakeup whose cost swings with other tenants' load
        # (unpinned passes: 3.96-6.83 s; pinned: 5.10-5.61 s), so the
        # whole process tree shares one vCPU.
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})
    # Own process group, so a timeout also stops a daemon the run started.
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True,
                         preexec_fn=pin)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    return p.returncode, out


def source_key():
    """The commit, or a digest of the sources where there is no git."""
    if os.path.isdir(".git"):
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                  text=True, check=True).stdout.strip()
            dirty = subprocess.run(["git", "status", "--porcelain", "--"] + SOURCE_DIRS,
                                   capture_output=True, text=True, check=True).stdout
            return head + ("-dirty" if dirty.strip() else "")
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha1()
    for top in SOURCE_DIRS + ["dune-project"]:
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d not in ("_build", "out"))
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f in ("dune", "dune-project"):
                    path = os.path.join(root, f)
                    h.update(path.encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
        if os.path.isfile(top):
            with open(top, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def machine(ocaml):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "ocaml": ocaml}


def run_one(workload, args):
    code, out = run_bench(workload, args)
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the workload printed no result (exit %d)" % code)
    if code == 0 and result.get("correct"):
        ocaml = "unknown"
        for tok in lines[0].split():
            if tok.startswith("ocaml="):
                ocaml = tok[len("ocaml="):]
        row = {
            "commit": source_key(),
            "machine": machine(ocaml),
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "workload": workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
        with open(TRAJECTORY, "a") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    sys.exit(max(run_one(w, args) for w in workloads))


if __name__ == "__main__":
    main()
