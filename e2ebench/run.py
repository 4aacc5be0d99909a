#!/usr/bin/env python3
"""End-to-end benchmark of the climate workflow.

    python3 e2ebench/run.py --workload staged|streaming|archive \
        --seed N --seconds S --trace 0|1

Builds the `e2ebench` worker (a package of its own, see Cargo.toml) from
the checkout, then for one workload and seed:

1. runs the set-up SETUPS times, each in a fresh process and directory and
   each for its own input seed derived from `--seed`, and reports the
   median as `setup_s`;
2. repeats measured runs, each in a fresh process, cycling over the
   set-ups and their input seeds, until `--seconds` have passed (at least
   MIN_REPS), and reports the median of each end-to-end metric;
3. with `--trace 1`, makes one more run with the obs bus subscribed and
   reports its per-layer numbers and ledger instead.

Spreading one run over several input seeds averages out how much work a
single seed happens to make. Every set-up and run checks its outputs, and
all runs of one input seed must produce the same science digest. The last
line on stdout is the result object; the line before it is the full record
(host, per-run values).
Work files go to `.bench_work/` in the checkout and are removed at exit.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUPS = 3
MIN_REPS = 2 * SETUPS
WARMUP_S = 2.0
CHILD_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850
WORKLOADS = ("staged", "streaming", "archive")

ROOT = Path(__file__).resolve().parent.parent
PKG = Path(__file__).resolve().parent


def log(msg):
    print(f"[e2ebench] {msg}", file=sys.stderr, flush=True)


def build():
    """Builds the worker; returns its path (None when the build fails)."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(PKG / "Cargo.toml")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    binary = target / "release" / "e2ebench"
    if proc.returncode != 0 or not binary.is_file():
        log(f"build failed with exit code {proc.returncode}")
        return None
    return binary


def host_record():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "par_threads": os.environ.get("PAR_THREADS"),
        "git_rev": rev,
        "source_sha256": source_digest(),
    }


def source_digest():
    """Digest of the sources the worker is built from: identifies the code
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "shims", "e2ebench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "target" not in p.parts)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def child(binary, args, work):
    """Runs one worker process; returns its JSON record or None."""
    env = dict(os.environ, TMPDIR=str(work))
    try:
        proc = subprocess.run([str(binary)] + args, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(args)}")
        return None
    if proc.returncode != 0:
        log(f"failed ({proc.returncode}): {' '.join(args)}: {proc.stderr.strip()[-400:]}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log(f"no result from: {' '.join(args)}")
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    if binary is None:
        return 1

    work = ROOT / ".bench_work" / f"{a.workload}-{a.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(a, spec, binary, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def flush(directory):
    """fsyncs every file under `directory`."""
    for p in directory.rglob("*"):
        if p.is_file():
            fd = os.open(p, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def input_seed(seed, i):
    """Input seed of set-up `i` for benchmark seed `seed`."""
    return (seed * SETUPS + i) % 2**63


def measure(a, spec, binary, work):
    attempted = failed = 0
    problems = []

    def record(rec, what):
        nonlocal attempted, failed
        if rec is None:
            attempted += 1
            failed += 1
            problems.append(f"{what}: no result")
            return
        bad = [c for c in rec.get("checks", []) if not c["ok"]]
        attempted += int(rec.get("attempted", 1)) + len(rec.get("checks", []))
        failed += int(rec.get("failed", 0)) + len(bad)
        problems.extend(f"{what}: {c['name']}: {c['detail']}" for c in bad)

    def args(cmd, i, *extra):
        return [cmd, "--workload", a.workload, "--seed", str(input_seed(a.seed, i)),
                "--dir", str(work / (f"setup-{i}" if cmd == "setup" else "run")),
                *extra]

    setups = []
    for i in range(SETUPS):
        rec = child(binary, args("setup", i), work)
        record(rec, f"setup {i}")
        if rec is None:
            log("set-up failed")
            return 1
        setups.append(rec)
        # Flush its files now, so that their write-back does not run during
        # the next set-up or the measured runs.
        flush(work / f"setup-{i}")

    runs = {i: [] for i in range(SETUPS)}

    def one_run(n):
        i = n % SETUPS
        rec = child(binary, args("run", i, "--setup", str(work / f"setup-{i}")), work)
        record(rec, f"run {n} (input seed {input_seed(a.seed, i)})")
        # Deleting a run's files drops their dirty pages before the next run.
        shutil.rmtree(work / "run", ignore_errors=True)
        if rec is not None:
            runs[i].append(rec)
        return rec

    # Warm-up runs are checked like the others but not measured.
    n = 0
    t0 = time.monotonic()
    while n == 0 or time.monotonic() - t0 < WARMUP_S:
        if one_run(n) is None:
            log("warm-up run failed")
            return 1
        n += 1
    reps = []
    t0 = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - t0 < a.seconds:
        rec = one_run(n)
        n += 1
        if rec is None:
            break
        reps.append(rec)
    if not reps:
        log("no measured run succeeded")
        return 1
    traced = None
    if a.trace:
        traced = child(binary, args("run", 0, "--setup", str(work / "setup-0"), "--traced"),
                       work)
        record(traced, "traced run")
        if traced is not None:
            runs[0].append(traced)

    # Every run of one input seed must give the same outputs.
    for i, recs in runs.items():
        attempted += 1
        digests = {r["digest"] for r in recs}
        if len(digests) > 1:
            failed += 1
            problems.append(f"input seed {input_seed(a.seed, i)}: digests differ across "
                            f"repetitions: {sorted(digests)}")
    correct = failed == 0 and len(reps) >= MIN_REPS and (traced is not None or not a.trace)
    for p in problems:
        log(f"check failed: {p}")

    med = lambda key, recs: statistics.median(r[key] for r in recs) if recs else float("nan")
    values = {
        "setup_s": med("setup_s", setups),
        "wall_s": med("wall_s", reps),
        "year_lag_s": med("year_lag_s", reps),
        "peak_rss_mb": med("peak_rss_mb", reps),
        # Deterministic per input seed: the mean over the input seeds.
        "pod": statistics.mean(med("pod", runs[i]) for i in runs if runs[i]),
    }
    if traced is not None:
        values.update(traced["layers"])
        for key in setups[0]["layers"]:
            values[key] = statistics.median(s["layers"][key] for s in setups)
        values["obs.trace_overhead_pct"] = 100.0 * (traced["wall_s"] / values["wall_s"] - 1.0)
    values["error_rate"] = failed / max(attempted, 1)

    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        log(f"metrics not measured: {missing}")
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(json.dumps({
        "record": "e2ebench",
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "host": host_record(),
        "setups": setups,
        "runs": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
        "problems": problems,
    }))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
