"""Benchmark entry point for metrika's command line.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both modes
    python3 perfbench/run.py --smoke             # all workloads at tiny sizes

Run from the repository root.  Each workload runs in its own worker
process (``worker.py``), which calls ``metrika.cli.main`` in-process on
generated files.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics: ``setup_s`` and ``pass_s`` (the median set-up time
and the mean pass time, each rescaled by a reference loop timed while it
ran, so that the host's speed drift cancels; see ``refclock.py``) and
``peak_rss_mib``.  With ``--trace 1`` it holds the per-layer metrics of
a traced run, among them the raw ``wall_s`` and ``setup_raw_s`` and the
reference sample time ``host.ref_us``.  ``BENCHMARK.json`` lists both
sets; ``layers.json`` maps each layer metric to the end-to-end number it
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("urysohn-pipeline", "graph-pipeline", "random-campaign")
SETUP_PROBES = 8
TIMEOUT_SLACK = 120.0

sys.path.insert(0, str(HERE))
from refclock import scale  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import TIMED_VERBS  # noqa: E402

# Functions whose traced calls and self time are reported, by layer.
TRACED = (
    "cli.main",
    "logic.parse_formula",
    "logic.parse_condition",
    "structures.load",
    "structures.save",
    "structures.extend_point",
    "structures.validate",
    "evaluation.evaluate",
    "evaluation.check_condition",
    "evaluation.evaluate_prefix_bounds",
    "urysohn.config_error",
    "urysohn.katetov_witness",
    "urysohn.all_configurations",
    "urysohn.extension_property_report",
    "urysohn.DistanceConfiguration",
    "synth.ec_close",
    "sampling.sample_space",
    "sampling.sample_one_point",
    "sampling.genericity_frequency",
    "sampling.invariance_audit",
    "compare.back_and_forth",
    "compare.distortion",
    "polish.encode",
)

# Exact counts of the first traced pass (base seed = workload seed).
COUNTERS = (
    "structures.io_bytes",
    "structures.validate.triangle_checks",
    "structures.validate.lipschitz_pairs",
    "synth.points_added",
    "urysohn.report.instances.size2",
    "urysohn.report.instances.size3",
    "urysohn.report.satisfied.size2",
    "compare.nodes",
)


def per_pass(values):
    """Mean over a run's passes.  Each pass has its own seeds, so the mean
    spreads the inputs' cost over every pass of the run."""
    return statistics.fmean(values) if values else 0.0


def end_to_end(raw: dict) -> dict:
    return {
        "setup_s": (statistics.median(raw["setup"]), "s"),
        "pass_s": (per_pass([p["scaled"] for p in raw["untraced"]]), "s"),
        "peak_rss_mib": (raw["peak_rss_mib"], "MiB"),
    }


def per_layer(raw: dict) -> dict:
    traced = raw["traced"]
    first = traced[0]
    out = {}
    for fn in TRACED:
        out[f"{fn}.calls"] = (first["calls"].get(fn, 0), "count")
        out[f"{fn}.self_s"] = (per_pass([t["self_s"].get(fn, 0.0) for t in traced]), "s")
    for layer in LAYERS:
        totals = [
            sum(v for k, v in t["self_s"].items() if k.startswith(layer + "."))
            for t in traced
        ]
        out[f"{layer}.self_s"] = (per_pass(totals), "s")
    counters = first["counters"]
    for name in COUNTERS:
        out[name] = (counters.get(name, 0), "count")
    points = counters.get("synth.points_added", 0)
    in_ec = counters.get("synth.config_error_in_ec_close", 0)
    out["synth.config_error_per_point"] = (in_ec / points if points else 0.0, "ratio")
    per_node = [
        t["compare_incl_s"] / t["counters"]["compare.nodes"] * 1e6
        for t in traced
        if t["counters"].get("compare.nodes")
    ]
    out["compare.us_per_node"] = (per_pass(per_node), "us")
    traced_wall = sum(t["wall"] for t in traced)
    untraced_wall = sum(t["untraced_wall"] for t in traced)
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "ratio")
    untraced = raw["untraced"]
    out["wall_s"] = (per_pass([p["wall"] for p in untraced]), "s")
    out["setup_raw_s"] = (statistics.median(raw["setup_raw"]), "s")
    out["host.ref_us"] = (per_pass([p["ref_s"] * 1e6 for p in untraced]), "us")
    for verb in TIMED_VERBS:
        totals = [
            sum(sec for _, v, sec in p["steps"] if v == verb) for p in raw["untraced"]
        ]
        out[f"{verb}_s"] = (per_pass(totals), "s")
    out["failed_frac"] = (raw["failed"] / raw["attempted"], "ratio")
    for layer in LAYERS:
        out[f"{layer}.src_lines"] = (raw["src_lines"][layer], "lines")
    return out


# ------------------------------------------------------------ processes


def spawn(args: list, label: str):
    """Start a worker; returns (process, seconds until it printed `ready`,
    those seconds at the reference host speed).  Both leave out the time
    the worker's reference clock spent sampling."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--work-dir", str(WORK / f"{os.getpid()}-{label}")]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    word, *clock = line.split() or [""]
    if word != "ready" or len(clock) != 2:
        finish(proc, 10.0)
        raise RuntimeError(f"worker {label} did not start (exit {proc.returncode})")
    spent, unit = map(float, clock)
    return proc, ready - spent, scale(ready - spent, unit)


def finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def measure(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """Run one workload; returns the worker's raw result plus set-up times."""
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    setup, setup_raw = [], []
    for i in range(SETUP_PROBES):
        proc, raw_s, scaled_s = spawn([*common, "--setup-only"], f"setup-{i}")
        finish(proc, TIMEOUT_SLACK)
        setup_raw.append(raw_s)
        setup.append(scaled_s)
    args = [*common, "--seconds", str(seconds), "--trace", str(trace)]
    proc, raw_s, scaled_s = spawn(args, workload)
    setup_raw.append(raw_s)
    setup.append(scaled_s)
    out = finish(proc, seconds + TIMEOUT_SLACK)
    lines = out.splitlines()
    raw = json.loads(lines[-1])
    raw["setup"] = setup
    raw["setup_raw"] = setup_raw
    return raw


def metrics_of(raw: dict, trace: int) -> dict:
    return per_layer(raw) if trace else end_to_end(raw)


def describe(raw: dict, metrics: dict) -> None:
    """Human-readable lines: digests, errors and every metric."""
    w = raw["workload"]
    print(f"{w}: seed {raw['seed']}, {raw['passes']} passes, "
          f"{raw['failed']}/{raw['attempted']} steps failed")
    walls = " ".join(f"{p['wall']:.3f}" for p in raw["untraced"])
    scaled = " ".join(f"{p['scaled']:.3f}" for p in raw["untraced"])
    print(f"{w}: untraced pass walls {walls}")
    print(f"{w}: untraced pass times at reference speed {scaled}")
    for err in raw["errors"]:
        print(f"{w}: FAILED {err}")
    for step, d in raw["digests"].items():
        print(f"{w}: digest {step} exit={d['exit']} sha256={d['sha256']}")
    for name, (value, unit) in metrics.items():
        print(f"{w}: {name} = {value:.6g} {unit}")


def result_line(raws: list, metrics: dict) -> str:
    attempted = sum(r["attempted"] for r in raws)
    failed = sum(r["failed"] for r in raws)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def smoke() -> int:
    """Every workload once at tiny sizes, in both modes; every named
    metric must be present with its unit and no step may fail."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for w in WORKLOADS:
            raw = measure(w, 0, 0, trace, "smoke")
            metrics = metrics_of(raw, trace)
            describe(raw, metrics)
            got = {k: u for k, (_, u) in metrics.items()}
            if got != expected:
                problems.append(f"{w} trace {trace}: metrics differ from BENCHMARK.json")
            if raw["failed"]:
                problems.append(f"{w} trace {trace}: failed_frac = {raw['failed'] / raw['attempted']}")
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="metrika CLI benchmark")
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "metrika" / "cli.py").is_file():
        print(f"no metrika sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    try:
        if args.smoke:
            return smoke()
        if args.workload == "all":
            raws, table = [], {}
            for w in WORKLOADS:
                for trace in (0, 1):
                    raw = measure(w, args.seed, args.seconds, trace, "full")
                    metrics = metrics_of(raw, trace)
                    describe(raw, metrics)
                    raws.append(raw)
                    table.update({f"{w}/{k}": v for k, v in metrics.items()})
            print(result_line(raws, table))
            return 0
        raw = measure(args.workload, args.seed, args.seconds, args.trace, "full")
        metrics = metrics_of(raw, args.trace)
        describe(raw, metrics)
        print(result_line([raw], metrics))
        return 0
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
