#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload storm --seed 1 --seconds 20 --trace 0

The Go build cache, temporary files and the binary all live under
.bench_build/ in the checkout. The benchmark's output and exit code are
passed through; a checkout that cannot build it exits non-zero without
printing a result.
"""

import os
import subprocess
import sys

# Every run must end within this many seconds; a hung run is killed.
RUN_TIMEOUT = 170


def main():
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isfile(os.path.join(root, "perfbench", "main.go"))):
        print("run.py: run from the repository root; go.mod and perfbench/ are needed",
              file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("HOME", "home"),
                     ("XDG_CACHE_HOME", "home/.cache"), ("XDG_CONFIG_HOME", "home/.config")):
        path = os.path.join(build, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    # The module has no dependencies outside the standard library: never
    # fetch a module or a toolchain.
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "./perfbench"],
                           cwd=root, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark did not finish within {RUN_TIMEOUT}s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
