#!/usr/bin/env python3
"""End-to-end benchmark of the three user-visible interactions.

Run one workload (builds the benchmark binary from ../src on first use):

    python3 e2ebench/run.py --workload analysis --seed 1 --seconds 30 --trace 0

The last line of stdout is the JSON result; the line starting with
"env " before it records build type, cores, commit, shards, scheduler
workers and seed. Save several runs' stdout to a file (one file per
commit) and compare two such files against the bounds in
BENCHMARK.json:

    python3 e2ebench/run.py compare e2ebench/results/old.txt e2ebench/results/new.txt
"""

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "agis_e2ebench")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns the build type."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("e2ebench: library sources (src/) not found next to", HERE)
        sys.exit(1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                   stdout=sys.stderr)
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip() or "unknown"
    return "unknown"


def commit_id():
    """The git commit, or a digest of src/ when not in a git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        digest = hashlib.sha1()
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
        return "src-" + digest.hexdigest()[:12]


def run(argv):
    build_type = build()
    scratch = os.path.join(BUILD, "tmp")
    os.makedirs(scratch, exist_ok=True)
    cmd = [BINARY] + argv + ["--commit", commit_id(), "--build-type", build_type,
                             "--scratch", scratch]
    return subprocess.run(cmd).returncode


def load_results(path):
    """{workload: [result, ...]} of the untraced runs in a saved stdout file."""
    runs = {}
    env = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("env "):
                env = dict(kv.split("=", 1) for kv in line[4:].split() if "=" in kv)
            elif line.startswith("{") and env.get("trace") == "0":
                runs.setdefault(env.get("workload", "?"), []).append(json.loads(line))
    return runs


def compare(old_path, new_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    old, new = load_results(old_path), load_results(new_path)
    worse = False
    # One row per workload: each metric's median change, its bound, and
    # WORSE when the change loses more than the bound allows.
    print("workload    " + "  ".join("%-24s" % m["name"] for m in spec["end_to_end"]))
    for workload in sorted(set(old) | set(new)):
        if workload not in old or workload not in new:
            print("%-10s  missing from one file" % workload)
            continue
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = statistics.median(r["metrics"][name]["value"] for r in old[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in new[workload])
            change = (b - a) / a if a else 0.0
            loss = change if metric["better"] == "lower" else -change
            verdict = "WORSE" if loss > metric["bound"] else "ok"
            worse |= verdict == "WORSE"
            cells.append("%-24s" % ("%+.1f%% (<=%.0f%%) %s" %
                                    (100 * change, 100 * metric["bound"], verdict)))
        print("%-10s  %s" % (workload, "  ".join(cells)))
    return 1 if worse else 0


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
