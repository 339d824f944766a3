#!/usr/bin/env python3
"""End-to-end USEP benchmark: builds usep_perfbench from this checkout and
runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
correct/attempted/failed/metrics.  With --trace 0 the metrics are the
end_to_end list of BENCHMARK.json, with --trace 1 the per_layer list (layers
a workload does not exercise read 0).  See perfbench/README.md.

Two checks that are not part of a scored run:

    python3 perfbench/run.py --check repeat --seed N [--seconds S]
        every workload traced twice on one seed; every work counter must
        match bit for bit.
    python3 perfbench/run.py --check attribution --seed N [--seconds S]
        plan-mix traced; every traced RatioGreedy op also runs a twin with
        a busy-wait injected into the benchmark's own wrapper around the
        CandidateIndex constructor.  index.build_ms and the op time must
        rise by about the injection and rg.augment_ms must not move.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("plan-mix", "serve-open")
RUN_TIMEOUT_S = 170
# Units of the deterministic work counters the repeat check compares.
EXACT_UNITS = ("count", "KiB", "bytes")
INJECT_US = 5000


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    """One build directory per source tree, so checkouts that share a target
    directory never build, or run, each other's sources."""
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    key = hashlib.sha256(str(ROOT).encode()).hexdigest()[:12]
    return base / f"perfbench-{key}"


def configured_source(bdir):
    """The source directory the CMake cache in `bdir` was configured for."""
    cache = bdir / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text(errors="replace").splitlines():
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return Path(line.split("=", 1)[1]).resolve()
    return None


def build():
    """Configures and builds the benchmark binary; None on failure."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if configured_source(bdir) != HERE:
            # Missing or foreign cache: configure from scratch.
            for entry in bdir.iterdir():
                if entry.name != ".lock":
                    if entry.is_dir() and not entry.is_symlink():
                        shutil.rmtree(entry)
                    else:
                        entry.unlink()
            cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(bdir / "CMakeFiles", ignore_errors=True)
                (bdir / "CMakeCache.txt").unlink(missing_ok=True)
                return None
        jobs = str(min(os.cpu_count() or 1, 4))
        cmd = ["cmake", "--build", str(bdir), "--target", "usep_perfbench",
               "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return bdir / "usep_perfbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_once(binary, workload, seed, seconds, trace, inject_us=0):
    """Runs the binary; returns (stdout lines before the result, result)."""
    scratch = build_dir() / "runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scratch", str(scratch)]
    if inject_us:
        cmd += ["--inject_us", str(inject_us)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} timed out after {RUN_TIMEOUT_S}s")
        return None, None
    finally:
        spans = scratch / "spans.json"
        if spans.exists():
            keep = build_dir() / "spans"
            keep.mkdir(exist_ok=True)
            shutil.copyfile(spans, keep / f"{workload}.seed{seed}.json")
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        log(f"{workload} exited with code {proc.returncode}")
        return None, None
    # The binary's first line names the source tree it was compiled from.
    if lines[0] != f"usep_perfbench: source {ROOT}":
        log(f"binary was not built from this checkout: {lines[0]}")
        return None, None
    return lines[:-1], json.loads(lines[-1])


def complete(result, trace):
    """Restricts the result to the declared metric list, in its order."""
    metrics = result["metrics"]
    if trace:
        metrics["fail_frac"] = {"value": result["failed"] / result["attempted"],
                                "unit": "frac"}
    out = {}
    for spec in declared_metrics(trace):
        name, unit = spec["name"], spec["unit"]
        if name in metrics:
            got = metrics.pop(name)
            if got["unit"] != unit:
                raise ValueError(f"{name}: unit {got['unit']} != {unit}")
            out[name] = got
        elif trace:
            out[name] = {"value": 0, "unit": unit}  # layer not exercised
        else:
            raise ValueError(f"end-to-end metric {name} missing")
    if metrics:
        raise ValueError(f"undeclared metrics: {sorted(metrics)}")
    result["metrics"] = out
    return result


def check_repeat(binary, seed, seconds):
    ok = True
    for workload in WORKLOADS:
        runs = [run_once(binary, workload, seed, seconds, True)[1]
                for _ in range(2)]
        if None in runs:
            return False
        a, b = (r["metrics"] for r in runs)
        exact = [n for n, m in a.items() if m["unit"] in EXACT_UNITS]
        diff = [n for n in exact if a[n]["value"] != b[n]["value"]]
        print(f"{workload}: {len(exact)} work counters, "
              f"{len(exact) - len(diff)} identical"
              + (f"; DIFFER: {diff}" if diff else ""))
        ok = ok and not diff and all(r["failed"] == 0 for r in runs)
    return ok


def check_attribution(binary, seed, seconds):
    result = run_once(binary, "plan-mix", seed, seconds, True, INJECT_US)[1]
    if result is None:
        return False
    inject_ms = INJECT_US / 1000.0
    ok = result["failed"] == 0
    print(f"{inject_ms} ms busy-wait in the index.build wrapper; median over"
          " ops of the paired (injected twin - plain) span times:")
    for name, expected in (("index.build_ms", inject_ms),
                           ("op_ms", inject_ms), ("rg.augment_ms", 0.0)):
        metrics = result["metrics"]
        delta = metrics[f"selfcheck.{name}.delta"]["value"]
        plain = metrics[f"selfcheck.{name}.plain"]["value"]
        # The wrapped layer and the op must rise by the injection, the other
        # layer must not move.  Allowed error: 20% (movers) or 10% (the
        # unwrapped layer) of the injection, plus 5% of the span's own plain
        # time for host drift between the two runs of a pair.
        tolerance = (0.2 if expected else 0.1) * inject_ms + 0.05 * plain
        good = abs(delta - expected) <= tolerance
        ok = ok and good
        print(f"  {name:15s} plain {plain:8.3f} ms, delta {delta:+.3f} ms "
              f"(expected {expected:+.1f} +- {tolerance:.2f})"
              f"  {'ok' if good else 'FAIL'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", choices=("repeat", "attribution"))
    args = parser.parse_args()
    if args.check is None and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        log("build failed")
        return 2
    if args.check == "repeat":
        return 0 if check_repeat(binary, args.seed, args.seconds) else 1
    if args.check == "attribution":
        return 0 if check_attribution(binary, args.seed, args.seconds) else 1

    lines, result = run_once(binary, args.workload, args.seed, args.seconds,
                             bool(args.trace))
    if result is None:
        return 1
    try:
        result = complete(result, bool(args.trace))
    except ValueError as err:
        log(str(err))
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
