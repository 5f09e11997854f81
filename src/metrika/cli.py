"""Batch front door.  Every verb is a thin adapter over one module
operation family; randomized verbs require a seed and are bit-reproducible
given it.  Reports are JSON (exact rationals as strings) with input file
hashes; exit codes: 0 ok, 2 usage, 3 file/format, 4 domain error."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from contextlib import contextmanager

from . import compare as compare_mod
from . import polish, sampling, structures, synth, urysohn
from .errors import MetrikaError, SchemaMismatchError
from .evaluation import check_condition, evaluate
from .logic import parse_condition, parse_formula
from .rationals import format_rational, parse_rational

REPORT_VERSION = "metrika-report-1"


def _hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _input_hashes(*paths) -> dict:
    return {str(p): _hash_file(p) for p in paths if p}


def _emit(obj, out_path=None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("METRIKA_SEED")
    if env is not None:
        return int(env)
    raise SystemExit2("a seed is required: pass --seed or set METRIKA_SEED")


class SystemExit2(Exception):
    """Usage error surfaced with exit code 2."""


class FileFormatError(Exception):
    """Malformed input file, surfaced with exit code 3."""


@contextmanager
def _file_format(path):
    """Report a ValueError or TypeError raised while reading `path` as a
    format error."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def _load(path):
    with _file_format(path):
        return structures.load(path)


def _rational(text, option):
    """The value of an option that takes a rational literal."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise SystemExit2(f"{option}: {exc}") from None


def _unit_fraction(text, option):
    """A grid of configuration entries: 1/q for an integer q >= 1."""
    grid = _rational(text, option)
    if grid.numerator != 1:
        raise SystemExit2(f"{option} must be 1/q for an integer q >= 1, got {text}")
    return grid


def _step(text, option):
    """A grid step for new distances: a rational in (0, 1]."""
    grid = _rational(text, option)
    if not 0 < grid <= 1:
        raise SystemExit2(f"{option} must be in (0,1], got {text}")
    return grid


def _tolerance(text):
    """An eps for the extension obligations: a rational in (0, 1]."""
    if text is None:
        raise SystemExit2("--eps is required")
    eps = _rational(text, "--eps")
    if not 0 < eps <= 1:
        raise SystemExit2(f"--eps must be in (0,1], got {text}")
    return eps


def _int_list(text, option, least) -> list[int]:
    """A comma list of integers, each at least `least`."""
    try:
        values = [int(s) for s in text.split(",")]
    except ValueError:
        msg = f"{option} must be a comma list of integers, got {text!r}"
        raise SystemExit2(msg) from None
    if min(values) < least:
        raise SystemExit2(f"{option} values must be at least {least}, got {text}")
    return values


def _parse_assignment(text) -> dict:
    asg = {}
    if not text:
        return asg
    for part in text.split(","):
        name, _, idx = part.partition("=")
        try:
            asg[name.strip()] = int(idx)
        except ValueError:
            raise SystemExit2(f"bad assignment {part!r}, expected var=point") from None
    return asg


def _add_max_tries(q) -> None:
    q.add_argument(
        "--max-tries",
        type=int,
        default=sampling.MeasureSpec.max_tries,
        help="rejection-sampler proposals per sampled space before exit 4",
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="metrika")
    sub = p.add_subparsers(dest="verb", required=True)

    q = sub.add_parser("eval", help="evaluate a formula on a structure")
    q.add_argument("--structure", required=True)
    q.add_argument("--formula", required=True)
    q.add_argument("--assign", default="", help="free-variable map, e.g. x=0,y=1")

    q = sub.add_parser("check", help="check a condition (exit 0 iff it holds)")
    q.add_argument("--structure", required=True)
    q.add_argument("--condition", required=True)
    q.add_argument("--mode", choices=("finite", "prefix"), default="finite")

    q = sub.add_parser("validate", help="validate structure axioms")
    q.add_argument("--structure", required=True)

    q = sub.add_parser("synth", help="existentially-closed synthesis")
    q.add_argument("--theory", choices=("empty-metric", "graph"), required=True)
    q.add_argument("--budget", type=int, required=True)
    q.add_argument("--grid", default="1/8")
    q.add_argument("--eps", default="1/8")
    q.add_argument("--config-grid", default="1/4")
    q.add_argument("--config-sizes", default="2,3")
    q.add_argument("--max-size", type=int, default=3)
    q.add_argument("--seed", type=int)
    q.add_argument("--out", required=True)

    q = sub.add_parser("sample", help="sample a random metric space")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--kind", choices=("sequential", "rejection"), default="sequential")
    q.add_argument("--grid", default=None)
    _add_max_tries(q)
    q.add_argument("--seed", type=int)
    q.add_argument("--out", required=True)

    q = sub.add_parser("audit", help="S_infinity invariance audit")
    q.add_argument("--kind", choices=("sequential", "rejection"), required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--trials", type=int, required=True)
    q.add_argument("--formula", required=True)
    q.add_argument("--eps", required=True)
    q.add_argument("--sigma", type=float, default=3.0)
    q.add_argument("--grid", default=None)
    _add_max_tries(q)
    q.add_argument("--seed", type=int)
    q.add_argument("--out")

    q = sub.add_parser("genericity", help="genericity frequency curve")
    q.add_argument("--kind", choices=("sequential", "rejection"), default="sequential")
    q.add_argument("--theta", required=True, help="configuration JSON file")
    q.add_argument("--eps", required=True)
    q.add_argument("--n-values", required=True, help="comma list, e.g. 3,5,8,12")
    q.add_argument("--trials", type=int, required=True)
    q.add_argument("--grid", default=None)
    _add_max_tries(q)
    q.add_argument("--seed", type=int)
    q.add_argument("--out")
    q.add_argument("--csv")

    q = sub.add_parser("compare", help="approximate back-and-forth")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--eps", required=True)
    q.add_argument("--depth", type=int, required=True)
    q.add_argument("--node-budget", type=int, default=100_000)
    q.add_argument("--out")

    q = sub.add_parser("encode", help="encode a structure prefix")
    q.add_argument("--structure", required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--out")

    q = sub.add_parser("configs", help="enumerate grid distance configurations")
    q.add_argument("--size", type=int, required=True)
    q.add_argument("--grid", default="1/4")
    q.add_argument("--out", required=True)

    q = sub.add_parser("report", help="extension-property report / merge artifacts")
    q.add_argument("--structure")
    q.add_argument("--configs")
    q.add_argument("--eps")
    q.add_argument("--artifacts", nargs="*", default=[])
    q.add_argument("--out")
    q.add_argument("--csv")

    return p


def _run(args) -> int:
    if args.verb in ("audit", "genericity") and args.trials < 1:
        raise SystemExit2(f"--trials must be at least 1, got {args.trials}")
    if args.verb in ("sample", "audit", "genericity") and args.max_tries < 1:
        raise SystemExit2(f"--max-tries must be at least 1, got {args.max_tries}")
    if args.verb == "sample" and args.n < 1:
        raise SystemExit2(f"--n must be at least 1, got {args.n}")
    if args.verb == "encode" and args.k < 0:
        raise SystemExit2(f"--k must be at least 0, got {args.k}")
    if args.verb == "configs" and args.size < 1:
        raise SystemExit2(f"--size must be at least 1, got {args.size}")
    if args.verb == "synth" and args.budget < 0:
        raise SystemExit2(f"--budget must be at least 0, got {args.budget}")
    if args.verb == "synth" and args.max_size < 1:
        raise SystemExit2(f"--max-size must be at least 1, got {args.max_size}")
    if args.verb == "compare" and args.depth < 1:
        raise SystemExit2(f"--depth must be at least 1, got {args.depth}")
    if args.verb == "compare" and args.node_budget < 1:
        raise SystemExit2(f"--node-budget must be at least 1, got {args.node_budget}")
    if args.verb == "report" and bool(args.structure) != bool(args.configs):
        raise SystemExit2("report needs both --structure and --configs, or neither")
    if args.verb == "report" and not (args.structure or args.artifacts):
        raise SystemExit2("report needs --structure and --configs, or --artifacts")
    if args.verb == "eval":
        m = _load(args.structure)
        f = parse_formula(args.formula, m.sig)
        asg = _parse_assignment(args.assign)
        for name, point in asg.items():
            if not 0 <= point < m.n:
                raise SystemExit2(f"{name}={point} is not a point of 0..{m.n - 1}")
        value = evaluate(f, m, asg)
        print(format_rational(value))
        return 0

    if args.verb == "check":
        m = _load(args.structure)
        c = parse_condition(args.condition, m.sig)
        result = check_condition(c, m, mode=args.mode)
        obj = {
            "verb": "check",
            "version": REPORT_VERSION,
            "inputs": _input_hashes(args.structure),
            "status": result.status,
        }
        if result.interval is not None:
            obj["interval"] = [str(result.interval.lo), str(result.interval.hi)]
        _emit(obj)
        return 0 if result.status == "holds" else 1

    if args.verb == "validate":
        m = _load(args.structure)
        report = structures.validate(m)
        obj = {
            "verb": "validate",
            "version": REPORT_VERSION,
            "inputs": _input_hashes(args.structure),
            "ok": report.ok,
            "is_metric": report.is_metric,
            "violations": [
                {
                    "axiom": v.axiom,
                    "witness": [str(x) for x in v.witness],
                    "lhs": str(v.lhs),
                    "rhs": str(v.rhs),
                }
                for v in report.violations
            ],
        }
        _emit(obj)
        return 0 if report.ok else 1

    if args.verb == "synth":
        seed = _seed(args)
        grid = _step(args.grid, "--grid")
        if args.theory == "empty-metric":
            spec = synth.empty_metric_spec(
                config_sizes=tuple(_int_list(args.config_sizes, "--config-sizes", 1)),
                config_grid=_unit_fraction(args.config_grid, "--config-grid"),
                eps=_tolerance(args.eps),
            )
            start = synth.metric_seed(1)
        else:
            spec = synth.graph_spec(max_size=args.max_size)
            start = synth.graph_seed(1)
        out = synth.ec_close(start, spec, args.budget, grid=grid, rng_seed=seed)
        structures.save(out, args.out, include_provenance=True)
        _emit(
            {
                "verb": "synth",
                "version": REPORT_VERSION,
                "theory": args.theory,
                "seed": seed,
                "budget": args.budget,
                "points": out.n,
                "out": args.out,
            }
        )
        return 0

    if args.verb == "sample":
        seed = _seed(args)
        spec = _measure_spec(args, seed)
        m = sampling.sample_space(args.n, spec)
        structures.save(m, args.out)
        _emit(
            {
                "verb": "sample",
                "version": REPORT_VERSION,
                "kind": args.kind,
                "seed": seed,
                "points": m.n,
                "out": args.out,
            }
        )
        return 0

    if args.verb == "audit":
        seed = _seed(args)
        spec = _measure_spec(args, seed)
        # formula free variables range over sampled metric-only structures
        sig = synth.metric_seed(1).sig
        phi = parse_formula(args.formula, sig)
        least = max(1, len(phi.free_variables()))
        if args.n < least:
            msg = f"--n must be at least {least} for {args.formula!r}, got {args.n}"
            raise SystemExit2(msg)
        report = sampling.invariance_audit(
            spec, args.n, args.trials, phi, _rational(args.eps, "--eps"), sigma=args.sigma
        )
        obj = {
            "verb": "audit",
            "version": REPORT_VERSION,
            "kind": args.kind,
            "seed": seed,
            **report.to_json(),
        }
        _emit(obj, args.out)
        return 0

    if args.verb == "genericity":
        seed = _seed(args)
        spec = _measure_spec(args, seed)
        with _file_format(args.theta), open(args.theta, encoding="utf-8") as fh:
            theta = urysohn.DistanceConfiguration.from_json(json.load(fh))
        n_values = _int_list(args.n_values, "--n-values", max(1, theta.n))
        curve = sampling.genericity_frequency(
            spec, theta, _tolerance(args.eps), n_values, args.trials
        )
        obj = {
            "verb": "genericity",
            "version": REPORT_VERSION,
            "inputs": _input_hashes(args.theta),
            "kind": args.kind,
            "seed": seed,
            "eps": args.eps,
            "trials": args.trials,
            "curve": [{"n": n, "frequency": f} for n, f in curve],
        }
        _emit(obj, args.out)
        if args.csv:
            _write_curve_csv(args.csv, obj["curve"])
        return 0

    if args.verb == "compare":
        eps = _rational(args.eps, "--eps")
        if eps < 0:
            raise SystemExit2(f"--eps must be at least 0, got {args.eps}")
        a = _load(args.a)
        b = _load(args.b)
        if a.sig != b.sig:
            raise FileFormatError(f"{args.a} and {args.b}: structures must share a signature")
        result = compare_mod.back_and_forth(a, b, eps, args.depth, node_budget=args.node_budget)
        obj = {
            "verb": "compare",
            "version": REPORT_VERSION,
            "inputs": _input_hashes(args.a, args.b),
            **result.to_json(),
        }
        _emit(obj, args.out)
        return 0 if result.status == "success" else 1

    if args.verb == "encode":
        m = _load(args.structure)
        code = polish.encode(m, args.k)
        obj = {
            "verb": "encode",
            "version": REPORT_VERSION,
            "inputs": _input_hashes(args.structure),
            **code.to_json(),
        }
        _emit(obj, args.out)
        return 0

    if args.verb == "configs":
        grid = _unit_fraction(args.grid, "--grid")
        configs = urysohn.all_configurations(args.size, grid.denominator)
        urysohn.save_configurations(configs, args.out)
        _emit(
            {
                "verb": "configs",
                "version": REPORT_VERSION,
                "size": args.size,
                "count": len(configs),
                "out": args.out,
            }
        )
        return 0

    if args.verb == "report":
        if args.structure and args.configs:
            eps = _tolerance(args.eps)
            m = _load(args.structure)
            with _file_format(args.configs):
                configs = urysohn.load_configurations(args.configs)
            report = urysohn.extension_property_report(m, eps, configs)
            obj = {
                "verb": "report",
                "version": REPORT_VERSION,
                "inputs": _input_hashes(args.structure, args.configs),
                **report.to_json(),
            }
            _emit(obj, args.out)
            return 0 if report.ok else 1
        # merge previously emitted artifacts
        artifacts = []
        for path in args.artifacts:
            with open(path, encoding="utf-8") as fh:
                artifact = json.load(fh)
            if artifact.get("version") != REPORT_VERSION:
                raise SchemaMismatchError(
                    f"{path}: version {artifact.get('version')!r} != {REPORT_VERSION!r}"
                )
            artifacts.append(artifact)
        obj = {
            "verb": "report",
            "version": REPORT_VERSION,
            "inputs": _input_hashes(*args.artifacts),
            "artifacts": artifacts,
        }
        _emit(obj, args.out)
        if args.csv:
            rows = []
            for artifact in artifacts:
                rows.extend(artifact.get("curve", []))
            _write_curve_csv(args.csv, rows)
        return 0

    raise SystemExit2(f"unknown verb: {args.verb}")


def _measure_spec(args, seed) -> sampling.MeasureSpec:
    grid = _step(args.grid, "--grid") if args.grid else sampling.DEFAULT_GRID
    return sampling.MeasureSpec(
        kind=args.kind, grid=grid, seed=seed, max_tries=args.max_tries
    )


def _write_curve_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "frequency"])
        for row in rows:
            w.writerow([row["n"], row["frequency"]])


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, FileFormatError) as exc:
        print(f"file/format error: {exc}", file=sys.stderr)
        return 3
    except MetrikaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
