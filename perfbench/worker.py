"""One workload in one single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed S --seconds T --trace 0|1

Imports metrika from the checkout's ``src``, writes the workload's input
files in a scratch directory, prints ``ready`` (set-up ends there, and
the line carries the set-up's reference clock readings), runs
one untimed smoke-size warm-up pass, then runs passes of the workload
until `--seconds` are used up.  Untraced passes run under a reference
clock (``refclock.py``) and give the end-to-end numbers.  With
``--trace 1`` every pass is run twice with the same seeds, untraced and
traced in alternating order, and the two must produce identical
digests.  The last line of stdout is a JSON object with the raw
results; ``run.py`` turns it into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from refclock import RefClock  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

# Set-up lasts about 0.2 s; a shorter period than a pass's gives it
# enough reference samples.
SETUP_PERIOD_S = 0.003


def run_step(name, argv, out_files, cli) -> workloads.StepResult:
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a raised exception is a failed step, not a crash
        code = -1
        stderr.write(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    step = workloads.StepResult(name, argv[0], code, seconds, stdout.getvalue(), tuple(out_files))
    if code == -1:
        step.error = stderr.getvalue().strip()
    return step


def digest(step: workloads.StepResult, pass_dir: Path) -> str:
    """SHA-256 of the normalised stdout and every output file of a step."""
    h = hashlib.sha256()
    h.update(step.stdout.replace(str(pass_dir), "<pass>").replace("\r\n", "\n").encode())
    for name in step.out_files:
        h.update(b"\0" + name.encode() + b"\0")
        path = pass_dir / name
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def run_pass(workload, base, params, pass_dir: Path, tracer=None):
    """Run the steps of one pass in `pass_dir`; returns (wall seconds,
    steps, reference clock).  An untraced pass runs under a RefClock and
    its wall and step times leave out the clock's own samples; a traced
    pass has no clock (None)."""
    from metrika import cli

    pass_dir.mkdir()
    os.chdir(pass_dir)
    done: dict = {}
    clock = RefClock() if tracer is None else None
    with clock or contextlib.nullcontext():
        start = time.perf_counter()
        for request, (name, argv, outs) in enumerate(workloads.steps(workload, base, params, done)):
            if tracer is not None:
                tracer.request = request
            spent = clock.spent if clock else 0.0
            step = done[name] = run_step(name, argv, outs, cli)
            if clock:
                step.seconds -= clock.spent - spent
            if step.exit not in (0, 1):  # later steps read this step's output
                break
        wall = time.perf_counter() - start
    if clock:
        wall -= clock.spent
    os.chdir(ROOT)
    return wall, list(done.values()), clock


def check_pass(workload, params, pass_dir: Path, steps) -> None:
    """Digest and check every step's output, then delete the pass directory."""
    os.chdir(pass_dir)
    for step in steps:
        step.digest = digest(step, pass_dir)
        if step.error is None:
            try:
                step.error = workloads.check_step(workload, step, params)
            except Exception as exc:  # a malformed output fails its check
                step.error = f"check raised {type(exc).__name__}: {exc}"
    os.chdir(ROOT)
    shutil.rmtree(pass_dir)


# ------------------------------------------------------------ trace hooks


def file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def trace_hooks(tracer: Tracer):
    c = tracer.counters

    def validate(args, kwargs, result, stack):
        m = args[0]
        c["structures.validate.triangle_checks"] += m.n**3
        for rel in m.sig.relations[1:]:
            k = m.n**rel.arity
            c["structures.validate.lipschitz_pairs"] += k * (k - 1) // 2

    def load(args, kwargs, result, stack):
        c["structures.io_bytes"] += file_size(args[0])

    def save(args, kwargs, result, stack):
        c["structures.io_bytes"] += file_size(args[1])

    def ec_close(args, kwargs, result, stack):
        c["synth.points_added"] += result.n - args[0].n

    def report(args, kwargs, result, stack):
        # only the report verb's calls, not genericity's inner reports
        if tracer.parent_is(stack, "cli.main") and args[2]:
            size = args[2][0].n
            c[f"urysohn.report.instances.size{size}"] += result.total
            c[f"urysohn.report.satisfied.size{size}"] += result.satisfied

    def back_and_forth(args, kwargs, result, stack):
        c["compare.nodes"] += result.nodes_explored

    return {
        "structures.validate": validate,
        "structures.load": load,
        "structures.save": save,
        "synth.ec_close": ec_close,
        "urysohn.extension_property_report": report,
        "compare.back_and_forth": back_and_forth,
    }


def fold_trace(tracer: Tracer) -> dict:
    """Per-pass layer numbers from one traced pass."""
    calls, self_s, incl_s = tracer.fold()
    out = {"calls": dict(calls), "self_s": self_s, "counters": dict(tracer.counters)}
    out["counters"]["synth.config_error_in_ec_close"] = tracer.count_under(
        "urysohn.config_error", "synth.ec_close"
    )
    out["compare_incl_s"] = incl_s.get("compare.back_and_forth", 0.0)
    return out


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PARAMS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--setup-only", action="store_true", help="exit after set-up")
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "metrika" / "cli.py").is_file():
        print(f"metrika sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = Path(args.work_dir).resolve()
    try:
        with RefClock(SETUP_PERIOD_S) as clock:
            sys.path.insert(0, str(ROOT / "src"))
            import metrika.cli  # noqa: F401

            work.mkdir(parents=True)
            workloads.write_inputs(args.workload, work)
        # Set-up ends here; run.py takes the clock's own time out of it.
        print(f"ready {clock.spent!r} {clock.unit()!r}", flush=True)
        if args.setup_only:
            return 0
        result = run_passes(args, work)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def traced_pass(workload, base, params, pass_dir: Path):
    """One pass with every layer wrapped; returns (wall, steps, layer numbers)."""
    tracer = Tracer()
    tracer.install(trace_hooks(tracer))
    try:
        wall, steps, _ = run_pass(workload, base, params, pass_dir, tracer)
    finally:
        tracer.uninstall()
    return wall, steps, fold_trace(tracer)


def run_passes(args, work: Path) -> dict:
    params = workloads.PARAMS[args.workload][args.size]
    pins = {}
    if args.size == "full":
        pins = json.loads((HERE / "pins.json").read_text())[args.workload]
    untraced, traced = [], []
    attempted = failed = 0
    errors: list[str] = []
    digests0: dict = {}
    # Warm-up: one smoke-size pass fills lazy imports and caches before
    # anything is timed; its outputs are checked like any other pass's.
    smoke = workloads.PARAMS[args.workload]["smoke"]
    _, steps, _ = run_pass(args.workload, args.seed, smoke, work / "warm-up")
    check_pass(args.workload, smoke, work / "warm-up", steps)
    for s in steps:
        attempted += 1
        if s.error is not None:
            failed += 1
            errors.append(f"warm-up {s.name}: {s.error}")
    start = time.perf_counter()
    p = 0
    while True:
        begin = time.perf_counter()
        base = args.seed + workloads.SEED_STRIDE * p
        # With tracing, the traced twin of the pass goes first on odd passes,
        # so a drift in machine speed does not bias the overhead.
        if args.trace and p % 2:
            twall, tsteps, layers = traced_pass(args.workload, base, params, work / f"p{p}t")
        wall, steps, clock = run_pass(args.workload, base, params, work / f"p{p}")
        if args.trace and not p % 2:
            twall, tsteps, layers = traced_pass(args.workload, base, params, work / f"p{p}t")
        check_pass(args.workload, params, work / f"p{p}", steps)
        untraced.append(
            {
                "wall": wall,
                "scaled": clock.scaled(wall),
                "ref_s": clock.unit(),
                "steps": [(s.name, s.verb, s.seconds) for s in steps],
            }
        )
        if base == 0 and pins:
            for s in steps:
                pin = pins.get(s.name)
                if s.error is None and pin != {"exit": s.exit, "sha256": s.digest}:
                    s.error = f"digest or exit code differs from pin {pin}"
        if p == 0:
            digests0 = {s.name: {"exit": s.exit, "sha256": s.digest} for s in steps}
        if args.trace:
            check_pass(args.workload, params, work / f"p{p}t", tsteps)
            for s, t in zip(steps, tsteps):
                if t.error is None and (s.exit, s.digest) != (t.exit, t.digest):
                    t.error = "traced output differs from untraced output"
            if len(tsteps) != len(steps):
                tsteps[-1].error = tsteps[-1].error or "traced pass stopped early"
            steps = steps + tsteps
            traced.append({"wall": twall, "untraced_wall": wall, **layers})
        for s in steps:
            attempted += 1
            if s.error is not None:
                failed += 1
                errors.append(f"pass {p} {s.name}: {s.error}")
        p += 1
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - begin) > args.seconds:
            break
    return {
        "workload": args.workload,
        "seed": args.seed,
        "passes": p,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "digests": digests0,
        "untraced": untraced,
        "traced": traced,
        "src_lines": src_lines(),
    }


def src_lines() -> dict:
    src = ROOT / "src" / "metrika"
    return {
        layer: len((src / f"{layer}.py").read_text(encoding="utf-8").splitlines())
        for layer in LAYERS
    }


if __name__ == "__main__":
    sys.exit(main())
