"""Batch front door: one handler per verb (``HANDLERS``), each a thin adapter
over one module operation family.  Randomized verbs require a seed and are
bit-reproducible given it.  Reports (``_emit``) are JSON with exact rationals
as strings and input file hashes; exit codes: 0 ok, 2 usage, 3 file/format, 4 domain error."""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager

from . import compare as compare_mod
from . import polish, sampling, structures, synth, urysohn
from .errors import MetrikaError, SchemaMismatchError
from .evaluation import check_condition, evaluate
from .logic import parse_condition, parse_formula
from .rationals import parse_rational

REPORT_VERSION = "metrika-report-1"


def _hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _emit(verb, inputs, fields, out=None) -> None:
    """Write one report to `out` or stdout: the verb, the report version, the
    hashes of the files the verb read (if any), then the verb's own fields."""
    obj = {"verb": verb, "version": REPORT_VERSION}
    if inputs:
        obj["inputs"] = {str(p): _hash_file(p) for p in inputs}
    text = json.dumps({**obj, **fields}, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("METRIKA_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemExit2(f"METRIKA_SEED must be an integer, got {env!r}") from None
    raise SystemExit2("a seed is required: pass --seed or set METRIKA_SEED")


class SystemExit2(Exception):
    """Usage error surfaced with exit code 2."""


class FileFormatError(Exception):
    """Malformed input file, surfaced with exit code 3."""


@contextmanager
def _file_format(path):
    """Report a ValueError, TypeError or KeyError raised while reading
    `path`, or a RecursionError from JSON nested too deeply, as a format
    error."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    except KeyError as exc:
        raise FileFormatError(f"{path}: missing key {exc}") from None
    except RecursionError:
        raise FileFormatError(f"{path}: nested too deeply") from None


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
    """An eps, for the extension obligations or an audited open set: a
    rational in (0, 1]."""
    if text is None:
        raise SystemExit2("--eps is required")
    return _step(text, "--eps")


def _at_least(value, least, option):
    if value < least:
        raise SystemExit2(f"{option} must be at least {least}, got {value}")
    return value


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
    for part in text.split(",") if text else ():
        name, _, idx = part.partition("=")
        name = name.strip()
        if name in asg:
            raise SystemExit2(f"--assign names {name} twice")
        try:
            asg[name] = int(idx)
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
    # each theory's defaults are its spec factory's
    q.add_argument("--grid", help="empty-metric only")
    q.add_argument("--eps", help="empty-metric only")
    q.add_argument("--config-grid", help="empty-metric only")
    q.add_argument("--config-sizes", help="empty-metric only")
    q.add_argument("--max-size", type=int, help="graph only")
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


def _measure_spec(args, n=None) -> sampling.MeasureSpec:
    """The sampler that --kind, --grid, --max-tries and the seed name;
    `sample` passes its --n, checked after --max-tries."""
    _at_least(args.max_tries, 1, "--max-tries")
    if n is not None:
        _at_least(n, 1, "--n")
    seed = _seed(args)
    grid = _step(args.grid, "--grid") if args.grid else sampling.DEFAULT_GRID
    return sampling.MeasureSpec(kind=args.kind, grid=grid, seed=seed, max_tries=args.max_tries)


def _eval(args) -> int:
    m = _load(args.structure)
    f = parse_formula(args.formula, m.sig)
    asg = _parse_assignment(args.assign)
    free = f.free_variables()
    for name, point in asg.items():
        if name not in free:
            raise SystemExit2(f"--assign names {name}, not a free variable of the formula")
        if not 0 <= point < m.n:
            raise SystemExit2(f"{name}={point} is not a point of {structures.point_range(m.n)}")
    print(evaluate(f, m, asg))
    return 0


def _check(args) -> int:
    m = _load(args.structure)
    result = check_condition(parse_condition(args.condition, m.sig), m, mode=args.mode)
    fields = {"status": result.status}
    if result.interval is not None:
        fields["interval"] = [str(result.interval.lo), str(result.interval.hi)]
    _emit("check", [args.structure], fields)
    return 0 if result.status == "holds" else 1


def _validate(args) -> int:
    report = structures.validate(_load(args.structure))
    violations = [
        {
            "axiom": v.axiom,
            "witness": [str(x) for x in v.witness],
            "lhs": str(v.lhs),
            "rhs": str(v.rhs),
        }
        for v in report.violations
    ]
    fields = {"ok": report.ok, "is_metric": report.is_metric, "violations": violations}
    _emit("validate", [args.structure], fields)
    return 0 if report.ok else 1


# each synth option: the theory that reads it, and the parser of its value
_THEORY_OPTIONS = {
    "grid": ("empty-metric", lambda text: _step(text, "--grid")),
    "eps": ("empty-metric", _tolerance),
    "config_grid": ("empty-metric", lambda text: _unit_fraction(text, "--config-grid")),
    "config_sizes": ("empty-metric", lambda text: _int_list(text, "--config-sizes", 1)),
    "max_size": ("graph", lambda value: _at_least(value, 1, "--max-size")),
}


def _synth(args) -> int:
    _at_least(args.budget, 0, "--budget")
    given = {k: getattr(args, k) for k in _THEORY_OPTIONS if getattr(args, k) is not None}
    for name in given:
        if _THEORY_OPTIONS[name][0] != args.theory:
            option = "--" + name.replace("_", "-")
            raise SystemExit2(f"{option} is not read by --theory {args.theory}")
    seed = _seed(args)
    params = {name: _THEORY_OPTIONS[name][1](value) for name, value in given.items()}
    if args.theory == "empty-metric":
        spec, start = synth.empty_metric_spec(**params), synth.metric_seed(1)
    else:
        spec, start = synth.graph_spec(**params), synth.graph_seed(1)
    out = synth.ec_close(start, spec, args.budget, rng_seed=seed)
    structures.save(out, args.out, include_provenance=True)
    fields = {"theory": args.theory, "seed": seed, "budget": args.budget}
    _emit("synth", [], {**fields, "points": out.n, "out": args.out})
    return 0


def _sample(args) -> int:
    spec = _measure_spec(args, args.n)
    m = sampling.sample_space(args.n, spec)
    structures.save(m, args.out)
    fields = {"kind": args.kind, "seed": spec.seed, "points": m.n, "out": args.out}
    _emit("sample", [], fields)
    return 0


def _audit(args) -> int:
    _at_least(args.trials, 1, "--trials")
    if not (math.isfinite(args.sigma) and args.sigma >= 0):
        raise SystemExit2(f"--sigma must be a finite number >= 0, got {args.sigma}")
    spec = _measure_spec(args)
    # formula free variables range over sampled metric-only structures
    phi = parse_formula(args.formula, synth.metric_seed(1).sig)
    least = max(1, len(phi.free_variables()))
    if args.n < least:
        raise SystemExit2(f"--n must be at least {least} for {args.formula!r}, got {args.n}")
    eps = _tolerance(args.eps)
    report = sampling.invariance_audit(spec, args.n, args.trials, phi, eps, sigma=args.sigma)
    fields = {"kind": args.kind, "seed": spec.seed, **report.to_json()}
    _emit("audit", [], fields, args.out)
    return 0


def _genericity(args) -> int:
    _at_least(args.trials, 1, "--trials")
    spec = _measure_spec(args)
    with _file_format(args.theta), open(args.theta, encoding="utf-8") as fh:
        theta = urysohn.DistanceConfiguration.from_json(json.load(fh))
    n_values = _int_list(args.n_values, "--n-values", max(1, theta.n))
    eps = _tolerance(args.eps)
    curve = sampling.genericity_frequency(spec, theta, eps, n_values, args.trials)
    rows = [{"n": n, "frequency": f} for n, f in curve]
    fields = {"kind": args.kind, "seed": spec.seed, "eps": args.eps, "trials": args.trials}
    _emit("genericity", [args.theta], {**fields, "curve": rows}, args.out)
    if args.csv:
        _write_curve_csv(args.csv, rows)
    return 0


def _compare(args) -> int:
    _at_least(args.depth, 1, "--depth")
    _at_least(args.node_budget, 1, "--node-budget")
    eps = _rational(args.eps, "--eps")
    if eps < 0:
        raise SystemExit2(f"--eps must be at least 0, got {args.eps}")
    a = _load(args.a)
    b = _load(args.b)
    if a.sig != b.sig:
        raise FileFormatError(f"{args.a} and {args.b}: structures must share a signature")
    result = compare_mod.back_and_forth(a, b, eps, args.depth, node_budget=args.node_budget)
    _emit("compare", [args.a, args.b], result.to_json(), args.out)
    return 0 if result.status == "success" else 1


def _encode(args) -> int:
    _at_least(args.k, 0, "--k")
    code = polish.encode(_load(args.structure), args.k)
    _emit("encode", [args.structure], code.to_json(), args.out)
    return 0


def _configs(args) -> int:
    _at_least(args.size, 1, "--size")
    grid = _unit_fraction(args.grid, "--grid")
    configs = urysohn.all_configurations(args.size, grid.denominator)
    urysohn.save_configurations(configs, args.out)
    _emit("configs", [], {"size": args.size, "count": len(configs), "out": args.out})
    return 0


def _report(args) -> int:
    if bool(args.structure) != bool(args.configs):
        raise SystemExit2("report needs both --structure and --configs, or neither")
    if not (args.structure or args.artifacts):
        raise SystemExit2("report needs --structure and --configs, or --artifacts")
    if args.structure and (args.artifacts or args.csv):
        raise SystemExit2("--artifacts and --csv are not read with --structure and --configs")
    if args.artifacts and args.eps is not None:
        raise SystemExit2("--eps is not read when merging --artifacts")
    if args.structure:
        eps = _tolerance(args.eps)
        m = _load(args.structure)
        with _file_format(args.configs):
            configs = urysohn.load_configurations(args.configs)
        report = urysohn.extension_property_report(m, eps, configs)
        _emit("report", [args.structure, args.configs], report.to_json(), args.out)
        return 0 if report.ok else 1
    # merge earlier reports: every artifact, and with --csv every curve row,
    # is checked before anything is written
    artifacts, rows = [], []
    for path in args.artifacts:
        with _file_format(path), open(path, encoding="utf-8") as fh:
            artifact = json.load(fh)
            if not isinstance(artifact, dict):
                raise ValueError(f"an artifact is a JSON object, got {type(artifact).__name__}")
            if artifact.get("version") != REPORT_VERSION:
                raise SchemaMismatchError(
                    f"{path}: version {artifact.get('version')!r} != {REPORT_VERSION!r}"
                )
            curve = artifact.get("curve", []) if args.csv else []
            if not isinstance(curve, list) or not all(
                isinstance(row, dict) and {"n", "frequency"} <= row.keys() for row in curve
            ):
                raise ValueError("curve must be a list of rows, each with n and frequency")
        artifacts.append(artifact)
        rows += curve
    _emit("report", args.artifacts, {"artifacts": artifacts}, args.out)
    if args.csv:
        _write_curve_csv(args.csv, rows)
    return 0


def _write_curve_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "frequency"])
        for row in rows:
            w.writerow([row["n"], row["frequency"]])


HANDLERS = {
    "eval": _eval,
    "check": _check,
    "validate": _validate,
    "synth": _synth,
    "sample": _sample,
    "audit": _audit,
    "genericity": _genericity,
    "compare": _compare,
    "encode": _encode,
    "configs": _configs,
    "report": _report,
}


# main's parser, built on the first call and kept for the process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return HANDLERS[args.verb](args)
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, FileFormatError) as exc:
        print(f"file/format error: {exc}", file=sys.stderr)
        return 3
    except MetrikaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
