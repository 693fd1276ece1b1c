#!/usr/bin/env python3
"""Builds the layered benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds `perfbench/` (a Cargo
package of its own) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), stamps the source revision into the
environment, and runs the benchmark binary, whose last line of standard
output is the JSON result. The exit code is the binary's: 0 when every
correctness check passed. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("share_pooled", "keyed_contract", "paper_fig7", "sweep_schemes")


def source_revision():
    """The git commit when there is one, plus a digest of the sources."""
    commit = "no-git"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", ".cargo", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for name in files:
            rel = os.path.relpath(name, ROOT)
            if rel.endswith("Cargo.lock") or "/target/" in rel:
                continue
            digest.update(rel.encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return f"{commit} src-{digest.hexdigest()[:12]}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print(f"run.py: no crates/ under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    env["PERFBENCH_COMMIT"] = source_revision()
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--scratch", os.path.join(target, "perfbench-run")],
        cwd=ROOT, env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
