#!/usr/bin/env python3
"""Build and run the mpvar benchmark.

    python3 perfbench/run.py --workload <study_fast|spice_rw|serve_mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark package (release,
offline) into $CARGO_TARGET_DIR (default: .bench_build), then runs it.
Build output goes to standard error; the last line of standard output is
the result object. Result files and traces land in perfbench/out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_commit():
    """The checked-out commit, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: no crates/ beside perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(ROOT, env["CARGO_TARGET_DIR"], "release", "mpvar-perfbench")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    env["PERFBENCH_GIT_COMMIT"] = git_commit()
    run = subprocess.run(
        [exe, *sys.argv[1:], "--out-dir", out_dir, "--repo-root", ROOT],
        cwd=ROOT,
        env=env,
        check=False,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
