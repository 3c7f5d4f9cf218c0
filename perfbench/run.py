#!/usr/bin/env python3
"""End-to-end benchmark of the collect -> learn -> tune -> serve loop.

Builds the library and the benchmark program from source (CMake, Release)
into the build directory, runs one workload, checks the result digests
recorded for the seed, and prints the result as the last line of standard
output:

    python3 perfbench/run.py --workload collect_train --seed 1 \
        --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics (observability off); --trace 1 the
per-layer metrics of a traced pass. --quick runs toy sizes (self-test).
--record-digests stores this run's digests as the expected ones for the
seed. The build directory is $CARGO_TARGET_DIR if set, else .bench_build,
relative to the repository root.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("collect_train", "tune_model", "serve_open_loop")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures (once) and builds the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs,
                    "--target", "aimai_perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "aimai_perfbench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_digest():
    """sha256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                if name == "digests.json" or "__pycache__" in path:
                    continue
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def digest_key(workload, quick):
    return workload + (".quick" if quick else "")


def load_digests():
    if not os.path.isfile(DIGESTS):
        return {}
    with open(DIGESTS) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--src-digest", source_digest()]
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S}s")
        return 3
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"benchmark printed nothing (exit {proc.returncode})")
        return proc.returncode or 4
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"benchmark's last line is not a result (exit {proc.returncode})")
        return proc.returncode or 4
    env, digests = {}, {}
    for line in lines[:-1]:
        print(line)
        if line.startswith("env "):
            env = json.loads(line[4:])
        elif line.startswith("digests "):
            digests = json.loads(line[8:])

    # Outputs must match the digests recorded for this seed, when recorded.
    key, seed = digest_key(args.workload, args.quick), str(args.seed)
    recorded = load_digests()
    if args.record_digests:
        recorded.setdefault(key, {})[seed] = digests
        with open(DIGESTS, "w") as f:
            json.dump(recorded, f, indent=1, sort_keys=True)
            f.write("\n")
    expected = recorded.get(key, {}).get(seed)
    if expected is not None and expected != digests:
        log(f"CHECK FAILED: digests {digests} != recorded {expected}")
        result["correct"] = False

    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    record = os.path.join(bdir, "results",
                          f"{key}-seed{seed}-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump({"env": env, "digests": digests, "result": result}, f,
                  indent=1)
    print(json.dumps(result))
    if not result["correct"]:
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
