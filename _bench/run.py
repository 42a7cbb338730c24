#!/usr/bin/env python3
"""Build and run the end-to-end placement benchmark.

Run from the repository root:

    python3 _bench/run.py --workload dt-suite --seed 1 --seconds 30 --trace 0

The benchmark is its own Go module (_bench/go.mod) that imports the
repository's packages through a `replace dtgp => ../` directive, so it
builds from the source tree it sits in. Everything the build and the runs
write (Go build cache, binary, generated inputs, checkpoints, determinism
records, trace files) stays under .bench_build/ in the repository root.

All arguments are passed to the benchmark binary; see _bench/main.go. The
binary's exit code is returned unchanged, and its standard output ends with
the one-line JSON result.
"""

import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def source_digest():
    """Digest of the Go sources the benchmark builds, for the result record."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "inputs.json"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        print("bench: no go.mod next to _bench; run from a full source checkout",
              file=sys.stderr)
        return 2
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "BENCH_COMMIT": git_commit(),
        "BENCH_SOURCE": source_digest(),
    })
    binary = os.path.join(BUILD, "bench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("bench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    child = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)

    def stop(signum, frame):
        child.terminate()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
