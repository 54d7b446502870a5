#!/usr/bin/env python3
"""Build and run the lcsf end-to-end benchmark (see README.md here).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload path_mc --seed 1 --seconds 28 --trace 0

The first call configures and builds the library and the benchmark
executable from source (pinned build type: Release) under
$CARGO_TARGET_DIR, default .bench_build, inside the checkout; later calls
only rebuild what changed. The executable's output is passed through:
a fingerprint, a table of metrics, and as the last line one JSON object.

--held-out also runs the held-out seed derived from --seed (seed +
1000003), so a claim tuned on some seeds can be checked on inputs that
were never used while tuning; the last line is then the held-out run's.

Exit codes: 0 when every output check passed; 1 when a call or a check
failed; 2 when the build failed or the arguments are bad; 3 when the run
timed out.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("path_mc", "graph_mc", "serve_mix", "deck_transient")
BUILD_TYPE = "Release"
HELD_OUT_OFFSET = 1000003
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build() -> Path:
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(out), "--target", "lcsf_perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.close()
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("perfbench: build failed:\n" +
                                 "\n".join(tail) + "\n")
                sys.exit(2)
    return out / "lcsf_perfbench"


def run_once(exe: Path, args, seed: int) -> int:
    cmd = [str(exe), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        sys.exit(3)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true",
                    help="also run the held-out seed (seed + %d)" %
                    HELD_OUT_OFFSET)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be in [1, 60]")

    exe = build()
    seeds = [args.seed]
    if args.held_out:
        seeds.append(args.seed + HELD_OUT_OFFSET)
    worst = 0
    for seed in seeds:
        worst = max(worst, run_once(exe, args, seed))
    sys.exit(worst)


if __name__ == "__main__":
    main()
