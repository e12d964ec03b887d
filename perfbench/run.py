"""delaycontrol benchmark: back-to-back CLI runs of one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload mp_lsmc --seed 1 --seconds 30 --trace 0

Each call runs in a fresh process (perfbench/worker.py) on the INI config the
workload generates from --seed.  Calls follow each other in a closed loop,
one client, until --seconds have passed (at least MIN_CALLS calls).  Every
call must exit 0, pass the workload's gates and write an output directory
byte-identical to the first passing call of this run (all calls of a run
share the seed); a call that does not counts as failed.

--trace 0 reports the end-to-end metrics (medians over the calls).  The
speed a shared host gives a process drifts by 20-40 % over minutes and moves
set-up and call times together: in two ten-seed sets of the same code the raw
medians differed by up to 39 %, more than any bound allows.  So this process
times a fixed reference kernel right before each call, and wall_s and setup_s
are the raw medians scaled by REFERENCE_PROBE_S / (median probe_s of the run):
seconds at a fixed host speed.  The raw medians stay in the record
and on the line before the result.
--trace 1 alternates untraced and traced calls and reports the per-layer
metrics (medians over the traced calls) plus the tracing overhead; the run
is not correct if a metric the workload predicts absent is not 0.

The last stdout line is the result JSON; the line before it records the
machine (nproc, CPU model and last-level cache size, read from /proc and
/sys, and the numpy and Python versions).  Timing data, spans and per-run
records go under .perfbench_work/, never into the CLI's --out directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_CALLS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
RAW = ("wall_s", "setup_s", "peak_rss_mb", "probe_s")
# a typical probe_s on the host recorded in trajectory.json; it only sets the
# unit of the host-corrected times
REFERENCE_PROBE_S = 0.040


def machine(worker_result: dict) -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": "unknown", "llc_bytes": 0,
            "numpy": worker_result.get("numpy"), "python": worker_result.get("python")}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    cache = "/sys/devices/system/cpu/cpu0/cache"
    try:
        sizes = []
        for index in (d for d in os.listdir(cache) if d.startswith("index")):
            with open(os.path.join(cache, index, "size")) as fh:
                raw = fh.read().strip()
            scale = {"K": 1024, "M": 1024 ** 2}.get(raw[-1], 1)
            sizes.append(int(raw.rstrip("KM")) * scale)
        info["llc_bytes"] = max(sizes)
    except (OSError, ValueError):
        pass
    return info


def digest_dir(path: str) -> dict:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def call_worker(job: dict, job_path: str, timeout: float):
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    if os.path.exists(job["result"]):
        os.remove(job["result"])
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not os.path.exists(job["result"]):
        tail = (proc.stderr or "").strip().splitlines()[-5:]
        return None, f"worker exit {proc.returncode}: " + " | ".join(tail)
    with open(job["result"]) as fh:
        return json.load(fh), None


def reference_kernel_s(reps: int = 6) -> float:
    """Median time of a fixed numpy kernel shaped like the package's per-step
    sweeps (column gathers, small products, a Cholesky factor).  It runs in
    this process, which loads no delaycontrol code, right before each call,
    so it neither sees nor changes the state of the call's process."""
    import numpy as np

    a = np.random.default_rng(0).random((8000, 111))
    w = np.linspace(0.0, 1.0, 11)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = np.zeros(a.shape[0])
        for i in range(200):
            x = a[:, i % 100:i % 100 + 11] @ w
            acc += np.where(x > 2.5, x, -x) * 0.5 + a[:, i % 100]
        np.linalg.cholesky(a.T @ a + np.eye(a.shape[1]))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Run:
    def __init__(self, root: str, name: str, seed: int, trace: bool):
        self.wl = WORKLOADS[name]
        self.work = os.path.join(root, ".perfbench_work", f"{name}-seed{seed}-trace{int(trace)}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.config = os.path.join(self.work, "config.ini")
        with open(self.config, "w") as fh:
            fh.write(self.wl.ini_text(seed))
        self.ref = None  # digest of the first passing call's --out directory
        self.src = os.path.join(root, "src")

    def job(self, index: int, trace: bool, argv=True) -> dict:
        out = os.path.join(self.work, f"out-{index}")
        return {"src": self.src, "config": self.config, "threads": self.wl.threads,
                "out": out, "trace": trace,
                "argv": self.wl.argv(self.config, out) if argv else None,
                "result": os.path.join(self.work, "result.json"),
                "spans": os.path.join(self.work, "spans.json")}

    def check(self, res, out: str) -> list:
        """Problems with one call: exit code, gates, determinism."""
        if res["rc"] != 0:
            return [f"exit code {res['rc']}"]
        try:
            problems = self.wl.gate(out)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]
        digest = digest_dir(out)
        if self.ref is not None and digest != self.ref:
            problems.append("output differs from the first call of this seed")
        elif self.ref is None and not problems:
            self.ref = digest
        return problems


def median_quartiles(values):
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "delaycontrol", "cli.py")):
        print("perfbench: run from the repository root (src/delaycontrol not found)",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print("perfbench: --seed must fit in 64 unsigned bits", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expectations.json")) as fh:
        expect = json.load(fh)["workloads"][args.workload]

    t_start = time.perf_counter()
    run = Run(root, args.workload, args.seed, bool(args.trace))
    # warm-up: byte-compile the package so no timed call pays for it
    warm, err = call_worker(run.job(0, False, argv=False), os.path.join(run.work, "job.json"),
                            timeout=RUN_LIMIT_S)
    if warm is None:
        print(f"perfbench: warm-up failed: {err}", file=sys.stderr)
        return 2

    min_calls = 2 * MIN_CALLS if args.trace else MIN_CALLS
    deadline = time.perf_counter() + args.seconds
    plain, traced, failures = [], [], []
    index = 0
    while index < min_calls or time.perf_counter() < deadline:
        remaining = RUN_LIMIT_S - (time.perf_counter() - t_start)
        if remaining < 10.0:
            break
        trace = bool(args.trace) and index % 2 == 1
        job = run.job(index, trace)
        probe_s = reference_kernel_s()
        try:
            res, err = call_worker(job, os.path.join(run.work, "job.json"), remaining)
        except subprocess.TimeoutExpired:
            res, err = None, "worker timed out"
        if res is not None:
            res["probe_s"] = probe_s
        problems = [err] if res is None else run.check(res, job["out"])
        if trace and not problems:
            res["layers"]["cli.out_bytes"] = sum(
                os.path.getsize(os.path.join(job["out"], f)) for f in os.listdir(job["out"]))
        shutil.rmtree(job["out"], ignore_errors=True)
        if problems:
            failures.append({"call": index, "traced": trace, "problems": problems})
            print(f"perfbench: call {index} failed: {'; '.join(problems)}", file=sys.stderr)
        else:
            (traced if trace else plain).append(res)
        index += 1

    attempted = index
    if args.trace:
        keys = traced[0]["layers"] if traced else {}
        metrics = {k: statistics.median(r["layers"][k] for r in traced) for k in keys}
        if traced and plain:
            base = statistics.median(r["wall_s"] for r in plain)
            metrics["trace.overhead_frac"] = (
                statistics.median(r["wall_s"] for r in traced) - base) / base
        state = {"smdde.state_bytes (computed)": metrics.get("smdde.state_bytes")}
        absent = [k for k in expect["absent"] if metrics.get(k, 0.0) != 0.0]
        if absent:
            print(f"perfbench: predicted absences do not hold: {absent}", file=sys.stderr)
    else:
        metrics = {}
        if plain:
            raw = {k: statistics.median(r[k] for r in plain) for k in RAW}
            scale = REFERENCE_PROBE_S / raw["probe_s"]  # host speed correction
            metrics = {"wall_s": raw["wall_s"] * scale, "setup_s": raw["setup_s"] * scale,
                       "peak_rss_mb": raw["peak_rss_mb"]}
        absent, state = [], {}

    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    failed = len(failures)
    host = machine(warm)
    state["llc_bytes"] = host["llc_bytes"]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "why": expect["why"], "machine": host,
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "failures": failures, "absences_violated": absent, "state_vs_llc": state,
        "samples": {k: median_quartiles([r[k] for r in plain])
                    for k in RAW},
        "by_call": {k: [r[k] for r in plain] for k in RAW},
        "metrics": metrics,
    }
    results = os.path.join(root, ".perfbench_work", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, os.path.basename(run.work) + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"machine": host, "calls": attempted,
                      "samples": record["samples"]}))
    print(json.dumps({
        "correct": failed == 0 and not absent and all(k in metrics for k in wanted),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": units[k]} for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
