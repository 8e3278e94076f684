#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fsjoin_wiki_large --seed 1 \
        --seconds 20 --trace 0

Builds the `perfbench` package (release profile) into `$CARGO_TARGET_DIR`,
or `.bench_build` when that is unset, then runs one workload. The last
line of standard output is the result: one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A traced run (`--trace 1`)
also writes its trace, metrics dump, stage profile and the seed's exact
counters under `perfbench/out/<workload>-seed<seed>/`.

Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("fsjoin_wiki_large", "rsjoin_wiki_large", "serve_wiki_mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in 1..60")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(HERE.parent / ".bench_build"))
    env["CARGO_NET_OFFLINE"] = "true"
    try:
        build = subprocess.run(
            [
                "cargo", "build", "--release", "--offline", "--quiet",
                "--manifest-path", str(HERE / "Cargo.toml"),
            ],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = pathlib.Path(env["CARGO_TARGET_DIR"]).resolve() / "release" / "perfbench"
    cmd = [
        str(exe),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--out", str(HERE / "out" / f"{args.workload}-seed{args.seed}")]
    try:
        run = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: run exited with {run.returncode}", file=sys.stderr)
        return 1
    try:
        json.loads(lines[-1])
    except ValueError as e:
        print(f"perfbench: no result line: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
