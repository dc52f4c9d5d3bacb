#!/usr/bin/env python3
"""Run one benchmark workload against the taqp checkout in the current
directory.

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 25 --trace 0

Builds the program and the harness from source with dune, then runs the
harness (perfbench/harness.ml), relaying its log. The last line of
standard output is the result object. Exits nonzero without a result when
the checkout cannot be built, an output check fails, or the run overruns
its time limit; every process the run started is killed and reaped first.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("paper_mix", "deep_join")
HARNESS = "_build/default/perfbench/harness.exe"
CLI = "_build/default/bin/taqp_cli.exe"
WORK_ROOT = ".perfbench_work"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
BUILD_LIMIT_S = 850.0  # the first run in a checkout, which builds, within 900 s


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def stop_group(proc):
    """Kill the harness's whole process group (it holds the server) and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1", 2)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        return fail("run from the root of a taqp checkout (dune-project, lib/, bin/ not found)", 2)

    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"  # keep every build write inside the checkout
    env.pop("TAQP_DOMAINS", None)  # the harness sets each workload's domains itself
    t0 = time.monotonic()
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/harness.exe", "./bin/taqp_cli.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_LIMIT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail("build did not complete: %s" % e)
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        return fail("build failed")
    build_s = time.monotonic() - t0

    work = os.path.join(WORK_ROOT, str(os.getpid()))
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", CLI, "--work", work]
    print("perfbench: built in %.1f s; host nproc %d" % (build_s, os.cpu_count() or 0), flush=True)
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=min(RUN_LIMIT_S, 890.0 - (time.monotonic() - t0)))
    except subprocess.TimeoutExpired:
        stop_group(proc)
        return fail("run exceeded %.0f s" % RUN_LIMIT_S)
    finally:
        if proc.poll() is None:
            stop_group(proc)
        else:
            # the harness reaps its server; this catches a harness that died first
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    lines = out.decode(errors="replace").rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        return fail("harness exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write("\n".join(lines) + "\n")
        return fail("harness printed no result")
    result_line = json.dumps(result, separators=(",", ":"))
    for line in lines[:-1]:
        print(line)
    print("perfbench: workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    print(result_line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
