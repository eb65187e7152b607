#!/usr/bin/env python3
"""Entry point of the repo benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload explore_cold|regress_sweep|serve_mix \
        --seed N --seconds S --trace 0|1

Builds the hlsw libraries and the benchmark driver from the source tree of
this checkout (CMake, Release, under $CARGO_TARGET_DIR or .bench_build), then
runs one workload in one process. The driver's last stdout line is the JSON
result; everything the build prints goes to stderr. Exits non-zero, without
a result, when the source tree or a toolchain is missing or the run fails.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("explore_cold", "regress_sweep", "serve_mix")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / base).resolve() / "perfbench"


def source_id():
    """Git commit when the checkout is a repository, plus a digest of src/."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    ident = f"src-sha256:{h.hexdigest()[:16]}"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
            if commit:
                ident = f"git:{commit} {ident}"
        except (OSError, subprocess.SubprocessError):
            pass
    return ident


def build(out, env):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "hlsw_perfbench"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                env=env, cwd=ROOT).returncode
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if rc != 0:
            fail(f"build step failed ({rc}): {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no hlsw source tree at {ROOT / 'src'}")

    out = build_root()
    tmp = out / "tmp"
    work = out / "work"
    tmp.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    build(out, env)

    cmd = [str(out / "hlsw_perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", args.trace,
           # Relative to the checkout: the daemon's unix socket lives here
           # and socket paths are length-limited.
           "--work-dir", os.path.relpath(work, ROOT),
           "--source-id", source_id()]
    # Own process group: a timeout also stops any host compiler the run
    # started, and we wait for all of it to end.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
