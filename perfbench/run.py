#!/usr/bin/env python3
"""The hypiso benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; hypiso is imported from its src/.  One
process works through a fixed list of jobs made from --seed, one after
another (a closed loop with one client), and checks every output with the
oracles in oracles.py.  The run is never cut off by the clock: --seconds
sets how many rounds of the job list it works (one round per 10 s, at
least one), and every timing is calibrated against a reference kernel
(see calib.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs the jobs once
untraced and once traced and prints the per-layer metrics.  The last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import resource
import shutil
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3  # at least; more while they take under SETUP_BUDGET_S in all
SETUP_BUDGET_S = 1.0
HASH_SEED = "0"
ROUND_SECONDS = 10
MODULES = ("actions", "cli", "combiner", "config", "dynamics", "geometry", "halfplane",
           "quadratic", "records", "sampling", "trees", "words")


class BenchError(RuntimeError):
    """The benchmark cannot run here; nothing is printed as a result."""


@dataclass
class Paths:
    configs: Path
    work: Path


def import_hypiso() -> SimpleNamespace:
    """A fresh import of hypiso from the checkout's src/, every module of it."""
    src = ROOT / "src"
    if not (src / "hypiso" / "__init__.py").is_file():
        raise BenchError(f"no hypiso package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "hypiso" or m.startswith("hypiso.")]:
        del sys.modules[name]
    hp = SimpleNamespace(hypiso=importlib.import_module("hypiso"))
    for name in MODULES:
        setattr(hp, name, importlib.import_module(f"hypiso.{name}"))
    if Path(hp.hypiso.__file__).resolve().parent != (src / "hypiso").resolve():
        raise BenchError(f"imported hypiso from {hp.hypiso.__file__}, not from {src}")
    return hp


def run_pass(clock: calib.Calibrated, jobs: list, tracer=None, busy=None) -> dict:
    """Time every job and its verification; check every output."""
    res = {"job": [], "job_raw": [], "verify": [], "verify_raw": [],
           "attempted": 0, "failed": 0, "errors": [], "problems": [], "cli": defaultdict(float)}

    def untraced():
        return tracer.paused() if tracer else contextlib.nullcontext()

    def timed(fn, *args):
        before = tracer.snapshot() if tracer else None
        out, cal, raw = clock.time(fn, *args)
        if tracer:
            tracer.scale_since(before, cal / raw, busy)
        return out, cal, raw

    for job in jobs:
        res["attempted"] += 1
        try:
            if hasattr(job, "sample"):  # sampling is timed, adopting its output is not
                sampled, cal, raw = timed(job.sample)
                with untraced():
                    job.adopt(sampled)
            else:
                cal = raw = 0.0
            out, run_cal, run_raw = timed(job.run)
            cal, raw = cal + run_cal, raw + run_raw
        except Exception:
            res["failed"] += 1
            res["errors"].append(f"{job.label}: raised\n{traceback.format_exc()}")
            continue
        res["job"].append(cal)
        res["job_raw"].append(raw)
        verified = None
        for _ in range(job.verify_times):
            res["attempted"] += 1
            try:
                verified, vcal, vraw = timed(job.verify, out)
            except Exception:
                res["failed"] += 1
                res["errors"].append(f"{job.label}: verify raised\n{traceback.format_exc()}")
                break
            res["verify"].append(vcal)
            res["verify_raw"].append(vraw)
            if hasattr(job, "argv"):
                res["cli"]["cli.verify"] += vcal
        else:
            if hasattr(job, "argv"):
                res["cli"][layers.cli_key(job.argv)] += cal
            with untraced():
                res["problems"] += job.check(out, verified)
    return res


def end_to_end(res: dict, setup_s: list[float]) -> dict:
    tail_ms, _ = calib.tail(res["job"])
    return {
        "setup_s": (calib.p50(setup_s), "s"),
        "jobs_per_s": (len(res["job"]) / sum(res["job"]), "1/s"),
        "job_ms.p50": (calib.p50(res["job"]) * 1000, "ms"),
        "job_ms.tail": (tail_ms * 1000, "ms"),
        "verify_ms.p50": (calib.p50(res["verify"]) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def describe(workload: str, res: dict, metrics: dict, setup_raw: list[float]) -> list[str]:
    _, pct = calib.tail(res["job"])
    raw_tail, _ = calib.tail(res["job_raw"])
    lines = [
        f"workload {workload}: {len(res['job'])} jobs, {len(res['verify'])} verifications, "
        f"{res['failed']} of {res['attempted']} operations failed",
        f"job_ms.tail is p{pct:.1f} of {len(res['job'])} jobs; verify_ms.p50 is over "
        f"{len(res['verify'])} verifications",
    ]
    lines += [f"  {name:<16} {value:12.4f} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(
        f"  raw: setup_s {calib.p50(setup_raw):.4f}, jobs_per_s "
        f"{len(res['job_raw']) / sum(res['job_raw']):.4f}, job_ms.p50 "
        f"{calib.p50(res['job_raw']) * 1000:.4f}, job_ms.tail {raw_tail * 1000:.4f}, "
        f"verify_ms.p50 {calib.p50(res['verify_raw']) * 1000:.4f}"
    )
    return lines


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # dict and set layouts follow the hash seed; a fixed one makes them
        # repeat between runs (a random one moved job_ms.p50 by ~5%)
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    ap = argparse.ArgumentParser(description="hypiso benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=ROUND_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    paths = Paths(ROOT / "configs", HERE / "out" / f"work-{os.getpid()}")
    if not paths.configs.is_dir():
        raise BenchError(f"no configs directory at {paths.configs}")
    setup = workloads.SETUPS[args.workload]
    rounds = max(1, round(args.seconds / ROUND_SECONDS))
    clock = calib.Calibrated()
    paths.work.mkdir(parents=True, exist_ok=True)
    try:
        # warm-up: first import (numpy, bytecode), one set-up, one job
        for _ in range(2000):
            calib.ref_kernel()
        setup(import_hypiso(), args.seed, paths)

        def set_up():
            hp = import_hypiso()
            return hp, setup(hp, args.seed, paths)

        setup_cal, setup_raw = [], []
        while len(setup_raw) < SETUP_REPS or sum(setup_raw) < SETUP_BUDGET_S and len(setup_raw) < 25:
            (hp, jobs), cal, raw = clock.time(set_up)
            setup_cal.append(cal)
            setup_raw.append(raw)
        # the harness keeps every input alive; keep the collector off them
        gc.collect()
        gc.freeze()
        run_pass(calib.Calibrated(), jobs[:1])

        res = run_pass(clock, jobs * rounds)
        metrics = end_to_end(res, setup_cal)
        report = describe(args.workload, res, metrics, setup_raw)

        if args.trace:
            tracer = layers.Tracer(hp, clock.probe_time)
            busy = defaultdict(float)
            tracer.install()
            try:
                before = tracer.snapshot()
                traced_jobs, cal, raw = clock.time(setup, hp, args.seed, paths)
                tracer.scale_since(before, cal / raw, busy)
                traced = run_pass(clock, traced_jobs * rounds, tracer, busy)
            finally:
                tracer.uninstall()
            if traced["failed"] != res["failed"]:
                res["problems"].append(f"{traced['failed']} operations failed traced, {res['failed']} untraced")
            res["problems"] += ["traced pass: " + p for p in traced["problems"]]
            values = layers.layer_metrics(tracer, busy, traced["cli"])
            values["host.ref_ms"] = calib.p50(clock.kernel_samples) * 1000
            values["trace.overhead_ratio"] = (
                (sum(traced["job"]) + sum(traced["verify"])) / (sum(res["job"]) + sum(res["verify"]))
            )
            metrics = {name: (value, layers.unit_of(name)) for name, value in values.items()}
            spans = {key: {"calls": tracer.calls[key], "busy_ms": busy.get(key, 0.0) * 1000.0}
                     for key in sorted(tracer.calls)}
            report.append(f"traced pass: overhead ratio {values['trace.overhead_ratio']:.3f}")
            report += [f"  {name:<32} {value:14.4f} {unit}" for name, (value, unit) in metrics.items()]
    finally:
        shutil.rmtree(paths.work, ignore_errors=True)

    for line in res["errors"][:10]:
        print("FAILED " + line, file=sys.stderr)
    for line in res["problems"][:20]:
        print("PROBLEM " + line, file=sys.stderr)
    result = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out_file = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({
        **result, "job_s": res["job"], "job_raw_s": res["job_raw"], "verify_s": res["verify"],
        "verify_raw_s": res["verify_raw"], "setup_s": setup_cal, "setup_raw_s": setup_raw,
        "kernel_s": clock.kernel_samples, "spans": spans if args.trace else None,
    }) + "\n")
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, calib.TooFewSamples) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
