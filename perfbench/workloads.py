"""The three workloads: the CLI steps of one pass and their output checks.

A pass runs every step of a workload once, through ``metrika.cli.main``,
in a fresh directory.  Pass ``p`` of a run with workload seed ``s`` uses
the base seed ``s + SEED_STRIDE * p``; the base seed reaches the program
only as ``--seed`` values, so pass 0 of seed 0 is the pinned default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SEED_STRIDE = 7919

TRIANGLE = "sup x. sup y. sup z. (d(x,z) -. (d(x,y) +. d(y,z))) <= 0"
ONE_IN_ONE_OUT = (
    "sup x. sup y. min(d(x,y), inf z. max(max(R(z,x), not(R(z,y))), "
    "max(not(d(z,x)), not(d(z,y))))) <= 0"
)
THETA = [["0", "1/2"], ["1/2", "0"]]

# Per-workload sizes: "full" is what a measured run uses, "smoke" is the
# tiny variant the smoke mode runs.
PARAMS = {
    "urysohn-pipeline": {
        "full": {"budget": 30, "depth": 8, "node_budget": 20000},
        "smoke": {"budget": 6, "depth": 3, "node_budget": 200},
    },
    "graph-pipeline": {
        "full": {"budget": 3000, "depth": 12, "node_budget": 10000, "small_budget": 60},
        "smoke": {"budget": 60, "depth": 4, "node_budget": 200, "small_budget": 30},
    },
    "random-campaign": {
        "full": {"n_values": "3,5,8,12", "trials": 40, "audit_trials": 2500},
        "smoke": {"n_values": "3,5", "trials": 3, "audit_trials": 20},
    },
}

# The verbs whose summed time per pass is reported as `<verb>_s`.
TIMED_VERBS = ("synth", "validate", "report", "check", "compare", "genericity", "audit")


@dataclass
class StepResult:
    name: str
    verb: str
    exit: int
    seconds: float
    stdout: str
    out_files: tuple
    digest: str = ""
    error: str | None = None

    def report(self):
        """The step's stdout, or its --out file, parsed as JSON."""
        text = self.stdout
        if not text.strip() and self.out_files:
            text = Path(self.out_files[0]).read_text(encoding="utf-8")
        return json.loads(text)


def write_inputs(workload: str, directory: Path) -> None:
    """The generated input files every pass of `workload` reads."""
    if workload == "random-campaign":
        (directory / "theta.json").write_text(json.dumps(THETA), encoding="utf-8")


def steps(workload: str, base: int, p: dict, done: dict):
    """Yield (name, argv, out_files) for one pass; `done` maps the names of
    steps already run to their StepResult, for arguments read from output."""
    if workload == "urysohn-pipeline":
        metric = ["--theory", "empty-metric", "--config-grid", "1/8", "--eps", "1/16"]
        metric += ["--grid", "1/16", "--budget", str(p["budget"])]
        yield "synth-a", ["synth", *metric, "--seed", str(base), "--out", "a.json"], ["a.json"]
        yield "synth-b", ["synth", *metric, "--seed", str(base + 1), "--out", "b.json"], ["b.json"]
        yield "validate", ["validate", "--structure", "a.json"], []
        for size in (2, 3):
            yield (
                f"configs-{size}",
                ["configs", "--size", str(size), "--grid", "1/8", "--out", f"c{size}.json"],
                [f"c{size}.json"],
            )
        for size in (2, 3):
            yield (
                f"report-{size}",
                ["report", "--structure", "a.json", "--configs", f"c{size}.json", "--eps", "1/16"],
                [],
            )
        for mode in ("finite", "prefix"):
            yield (
                f"check-{mode}",
                ["check", "--structure", "a.json", "--condition", TRIANGLE, "--mode", mode],
                [],
            )
        n = done["synth-a"].report()["points"]
        yield "encode", ["encode", "--structure", "a.json", "--k", str(n * n)], []
        yield (
            "compare",
            ["compare", "--a", "a.json", "--b", "b.json", "--eps", "1/16"]
            + ["--depth", str(p["depth"]), "--node-budget", str(p["node_budget"])],
            [],
        )
    elif workload == "graph-pipeline":
        graph = ["--theory", "graph", "--max-size", "3"]
        for name, seed in (("synth-a", base), ("synth-b", base + 1)):
            out = f"{name[-1]}.json"
            yield name, ["synth", *graph, "--budget", str(p["budget"]), "--seed", str(seed), "--out", out], [out]
        yield "check", ["check", "--structure", "a.json", "--condition", ONE_IN_ONE_OUT], []
        yield (
            "compare",
            ["compare", "--a", "a.json", "--b", "b.json", "--eps", "1/2"]
            + ["--depth", str(p["depth"]), "--node-budget", str(p["node_budget"])],
            [],
        )
        yield (
            "synth-c",
            ["synth", *graph, "--budget", str(p["small_budget"]), "--seed", str(base + 2), "--out", "c.json"],
            ["c.json"],
        )
        yield "validate", ["validate", "--structure", "c.json"], []
    elif workload == "random-campaign":
        yield (
            "genericity",
            ["genericity", "--kind", "sequential", "--theta", "../theta.json"]
            + ["--grid", "1/8", "--eps", "1/4", "--n-values", p["n_values"]]
            + ["--trials", str(p["trials"]), "--seed", str(base), "--out", "genericity.json"],
            ["genericity.json"],
        )
        yield (
            "audit",
            ["audit", "--kind", "rejection", "--n", "4", "--trials", str(p["audit_trials"])]
            + ["--grid", "1/16", "--formula", "d(x,y)", "--eps", "1/2"]
            + ["--seed", str(base), "--out", "audit.json"],
            ["audit.json"],
        )
    else:
        raise ValueError(f"unknown workload: {workload}")


# ------------------------------------------------------------ output checks
#
# Each check returns None when the step's output is right, else a reason.
# They hold for every seed; pinned digests add a bit-exact check on top.


def check_step(workload: str, step: StepResult, p: dict) -> str | None:
    from metrika import structures, synth

    verb = step.verb
    expect_exit = {0}
    if verb in ("check", "validate", "report", "compare"):
        expect_exit = {0, 1}
    if step.exit not in expect_exit:
        return f"exit code {step.exit}"
    if verb == "configs":
        return None if len(json.loads(Path(step.out_files[0]).read_text())) == step.report()["count"] else "count"
    obj = step.report()
    if verb == "synth":
        m = structures.load(step.out_files[0])
        if obj["points"] != m.n:
            return "points in report differ from file"
        if workload == "urysohn-pipeline":
            seed = synth.metric_seed(1)
            if not structures.validate(m).ok:
                return "synthesized structure does not validate"
        else:
            seed = synth.graph_seed(1)
            if not _is_graph(m):
                return "synthesized structure is not a valid graph structure"
        return None if synth.is_prefix(seed, m) else "seed is not a prefix of the output"
    if verb == "validate":
        return None if obj["ok"] and step.exit == 0 else "structure does not validate"
    if verb == "report":
        if obj["satisfied"] + len(obj["failures"]) != obj["total"]:
            return "satisfied + failures != total"
        return None if step.exit == (0 if not obj["failures"] else 1) else "exit code"
    if verb == "check":
        holds = obj["status"] == "holds"
        if step.exit != (0 if holds else 1):
            return "exit code disagrees with status"
        if workload == "urysohn-pipeline":
            # the structure validates, so the triangle axiom cannot fail
            return None if obj["status"] != "fails" else "triangle axiom reported failing"
        adj = _adjacency(structures.load("a.json"))
        return None if holds == _one_in_one_out(adj) else "check disagrees with bitmask oracle"
    if verb == "compare":
        return _check_compare(workload, step, obj, p)
    if verb == "encode":
        m = structures.load("a.json")
        values = sorted(Fraction(v) for v in obj["values"])
        return None if values == sorted(m.tables["d"].values()) else "encoded values differ"
    if verb == "genericity":
        trials = p["trials"]
        ns = [int(x) for x in p["n_values"].split(",")]
        if [row["n"] for row in obj["curve"]] != ns:
            return "curve n-values"
        ok = all(
            0 <= row["frequency"] <= 1 and round(row["frequency"] * trials, 6).is_integer()
            for row in obj["curve"]
        )
        return None if ok else "frequency is not a count over trials"
    if verb == "audit":
        freqs = list(obj["frequencies"].values())
        if obj["trials"] != p["audit_trials"] or len(freqs) != 12:
            return "audit shape"
        if abs(obj["max_gap"] - (max(freqs) - min(freqs))) > 1e-12:
            return "max_gap"
        return None if obj["flagged"] == (obj["max_gap"] > obj["sigma_bound"]) else "flag"
    return None


def _check_compare(workload, step, obj, p):
    status = obj["status"]
    if step.exit != (0 if status == "success" else 1):
        return "exit code disagrees with status"
    if status == "budget-exhausted" and obj["nodes_explored"] <= p["node_budget"]:
        return "budget exhausted below the node budget"
    if status != "success":
        return None
    from metrika import structures

    a, b = structures.load("a.json"), structures.load("b.json")
    pairs = [tuple(x) for x in obj["pairs"]]
    eps = Fraction(1, 16) if workload == "urysohn-pipeline" else Fraction(1, 2)
    if len(pairs) != p["depth"] or len({x for x, _ in pairs}) != len(pairs) or len({y for _, y in pairs}) != len(pairs):
        return "correspondence shape"
    worst = max(
        abs(a.tables[r][(x1, x2)] - b.tables[r][(y1, y2)])
        for r in a.tables
        for x1, y1 in pairs
        for x2, y2 in pairs
    )
    if str(worst) != obj["distortion"] or worst > eps:
        return "distortion"
    return None


def _is_graph(m) -> bool:
    """Discrete metric, symmetric 0/1 edge relation with R(x,x) = 1.  Such a
    structure satisfies every pre-structure axiom (Lipschitz gaps are 1)."""
    d, r = m.tables["d"], m.tables["R"]
    for i in range(m.n):
        for j in range(m.n):
            if d[(i, j)] != (0 if i == j else 1) or r[(i, j)] != r[(j, i)]:
                return False
            if r[(i, j)] not in (0, 1) or (i == j and r[(i, j)] != 1):
                return False
    return True


def _adjacency(m):
    r = m.tables["R"]
    return [sum(1 << j for j in range(m.n) if i != j and r[(i, j)] == 0) for i in range(m.n)]


def _one_in_one_out(adj) -> bool:
    """For all x != y some z is adjacent to x and not to y (z != x, y)."""
    n = len(adj)
    full = (1 << n) - 1
    for x in range(n):
        for y in range(n):
            if x != y and not adj[x] & ~adj[y] & full & ~(1 << y) & ~(1 << x):
                return False
    return True
