"""Fraction-level builders and references that only the tests read.

The package grows structures on integers (``structures.MetricBuilder``),
scores configurations on integers (``urysohn.ObligationScan``) and
evaluates formulas through compiled kernels; the helpers here build small
structures from rational matrices and state a few definitions directly in
Fractions, so that the tests can hold the package to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product

from metrika.errors import SizeMismatchError, UnboundVariableError
from metrika.evaluation import evaluate
from metrika.logic import (
    AbsDiff,
    Atom,
    Condition,
    Const,
    DotMinus,
    Formula,
    Inf,
    Max,
    Min,
    Neg,
    ScaleQ,
    Sup,
    TruncPlus,
    metric_signature,
)
from metrika.rationals import ONE, ZERO
from metrika.sampling import _grow
from metrika.structures import MetricBuilder, PresentedStructure, Tables, scaled
from metrika.synth import is_prefix
from metrika.urysohn import DistanceConfiguration, katetov_row


# ------------------------------------------------------------- builders


def empty_structure(sig) -> PresentedStructure:
    return PresentedStructure(sig, 0, {r.name: {} for r in sig.relations})


def from_distance_matrix(rows) -> PresentedStructure:
    """Build a metric-only structure from a full square matrix of rationals."""
    n = len(rows)
    table = {
        (i, j): Fraction(rows[i][j]) for i in range(n) for j in range(n)
    }
    return PresentedStructure(metric_signature(), n, {"d": table})


def extend_with_distances(m, dists, note=None) -> PresentedStructure:
    """m plus one point at the rational distances dists, through the
    builder's check."""
    dists = [Fraction(v) for v in dists]
    b = MetricBuilder(m, *dists)
    b.add(scaled(dists, b.L), note)
    return b.freeze()


def katetov_extension(m, s, pts, slack) -> PresentedStructure:
    """m plus the repaired Katetov point with prescribed distances s to the
    anchors pts, built as the closure builds it: ``katetov_row`` on the
    builder's integers, accepted by ``try_add``."""
    b = MetricBuilder(m, slack, *s)
    (slack_L,) = scaled([slack], b.L)
    assert b.try_add(katetov_row(m.n, b.dist, pts, scaled(s, b.L), slack_L, b.L))
    return b.freeze()


def sample_one_point(m, spec, rng) -> PresentedStructure:
    """m plus one point drawn by spec's law, on the samplers' ``_grow``."""
    return _grow(MetricBuilder(m, spec.grid), 1, spec, rng).freeze()


def metric_quotient(m: PresentedStructure) -> PresentedStructure:
    """Identify zero-distance points (representative = least index); a
    relation that tells two identified tuples apart raises ValueError."""
    d = m.tables["d"]
    rep = list(range(m.n))
    for i in range(m.n):
        for j in range(i):
            if d[(i, j)] == 0 and rep[i] == i:
                rep[i] = rep[j]
    reps = sorted(set(rep))
    index = {r: k for k, r in enumerate(reps)}
    tables: Tables = {}
    for rel in m.sig.relations:
        table = m.tables[rel.name]
        new_table = {}
        for tup in product(range(m.n), repeat=rel.arity):
            canon = tuple(rep[i] for i in tup)
            if table[tup] != table[canon]:
                raise ValueError(
                    f"{rel.name}{tup} = {table[tup]} but {rel.name}{canon} = {table[canon]}"
                )
            if tup == canon:
                new_table[tuple(index[i] for i in tup)] = table[tup]
        tables[rel.name] = new_table
    record = {"quotient": {orig: index[rep[orig]] for orig in range(m.n)}}
    return PresentedStructure(m.sig, len(reps), tables, m.provenance_log + (record,))


# -------------------------------------------------- the Fraction oracle




def fraction_value(f, m, asg) -> Fraction:
    """f's exact value by walking the tree on Fractions, the reference the
    compiled integer kernel of ``evaluate`` is held to."""
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Atom):
        try:
            idx = tuple(asg[v] for v in f.args)
        except KeyError as exc:
            raise UnboundVariableError(f"unbound variable {exc.args[0]!r}") from None
        return m.value(f.relation, idx)
    if isinstance(f, Min):
        return min(fraction_value(f.left, m, asg), fraction_value(f.right, m, asg))
    if isinstance(f, Max):
        return max(fraction_value(f.left, m, asg), fraction_value(f.right, m, asg))
    if isinstance(f, ScaleQ):
        return f.factor * fraction_value(f.operand, m, asg)
    if isinstance(f, Neg):
        return 1 - fraction_value(f.operand, m, asg)
    if isinstance(f, DotMinus):
        return max(ZERO, fraction_value(f.left, m, asg) - fraction_value(f.right, m, asg))
    if isinstance(f, TruncPlus):
        return min(ONE, fraction_value(f.left, m, asg) + fraction_value(f.right, m, asg))
    if isinstance(f, AbsDiff):
        return abs(fraction_value(f.left, m, asg) - fraction_value(f.right, m, asg))
    if isinstance(f, (Inf, Sup)):
        pick = min if isinstance(f, Inf) else max
        final = _final(f, m)
        shadowed = asg.get(f.var)
        best = None
        for p in range(m.n):
            asg[f.var] = p
            v = fraction_value(f.body, m, asg)
            best = v if best is None else pick(best, v)
            if best == final:
                break
        if shadowed is None:
            asg.pop(f.var, None)
        else:
            asg[f.var] = shadowed
        if best is None:
            # quantifier over an empty prefix: inf = 1, sup = 0 (lattice units)
            return ONE if isinstance(f, Inf) else ZERO
        return best
    raise TypeError(f"not a formula node: {f!r}")


def _final(q, m):
    """The value at which the quantifier q can stop scanning points: 0 for
    an inf and 1 for a sup, when every table value of m is in [0, 1].
    Otherwise None: the scan must see every point."""
    if not m.unit_valued():
        return None
    return ZERO if isinstance(q, Inf) else ONE


# ------------------------------------------------- configuration errors


def restrict(theta: DistanceConfiguration) -> DistanceConfiguration:
    """Drop the last point: the top-left (n-1) x (n-1) submatrix."""
    if theta.n < 1:
        raise SizeMismatchError("cannot restrict an empty configuration")
    k = theta.n - 1
    return DistanceConfiguration(tuple(row[:k] for row in theta.r[:k]))


def config_error(theta: DistanceConfiguration, m: PresentedStructure, pts) -> Fraction:
    """max_{i<j} |d(pts_i, pts_j) - r_ij| in Fractions, the reference the
    integer ``ObligationScan`` is held to; zero for sizes < 2."""
    pts = tuple(pts)
    if len(pts) != theta.n:
        raise SizeMismatchError(f"expected {theta.n} points, got {len(pts)}")
    err = ZERO
    for i in range(theta.n):
        for j in range(i + 1, theta.n):
            err = max(err, abs(m.d(pts[i], pts[j]) - theta.r[i][j]))
    return err


# ------------------------------------------------------- e.c. witnesses


@dataclass(frozen=True)
class WitnessCheck:
    passes: bool
    gap: Fraction


def ec_witness_check(
    m: PresentedStructure,
    n_ext: PresentedStructure,
    phi: Formula,
    params,
    tol: Fraction,
) -> WitnessCheck:
    """Finite-scale falsifier of e.c.-ness: does inf_x phi(x, params) drop
    by more than tol when passing from m to the extension?

    The witness variable x is phi's first free variable; params bind the
    remaining free variables in order.  An n_ext that m is not a prefix
    of raises ValueError.
    """
    if not is_prefix(m, n_ext):
        raise ValueError("first structure is not a prefix of the second")
    free = phi.free_variables()
    witness_var, others = free[0], free[1:]
    params = tuple(params)
    if len(others) != len(params):
        raise ValueError(f"need {len(others)} parameters, got {len(params)}")
    if any(p >= m.n for p in params):
        raise ValueError("parameters must lie in the prefix")
    base = dict(zip(others, params))
    inf_phi = Inf(witness_var, phi)
    inf_m = min(ONE, evaluate(inf_phi, m, base))
    inf_n = min(ONE, evaluate(inf_phi, n_ext, base))
    gap = max(ZERO, inf_m - inf_n)
    return WitnessCheck(inf_m <= inf_n + Fraction(tol), gap)


# ------------------------------------------------------- axiom schema


def max_of(parts) -> Formula:
    parts = list(parts)
    return reduce(Max, parts) if parts else Const(ZERO)


def config_formula(theta: DistanceConfiguration, var_names=None) -> Formula:
    """The configuration as a formula (max of |d(x_i,x_j) - r_ij|)."""
    names = var_names or tuple(f"x{i + 1}" for i in range(theta.n))
    if len(names) != theta.n:
        raise SizeMismatchError("need one variable per configuration point")
    parts = [
        AbsDiff(Atom("d", (names[i], names[j])), Const(theta.r[i][j]))
        for i in range(theta.n)
        for j in range(i + 1, theta.n)
    ]
    return max_of(parts)


def axiom_instance(
    theta: DistanceConfiguration, eps: Fraction, delta: Fraction
) -> Condition:
    """The extension axiom for theta as a closed condition:
    roughly "wherever theta's restriction holds within delta, some y
    realizes theta within eps".

    When eps/(1-delta) exceeds 1 it is not a legal scale factor; the
    condition is then rescaled by (1-delta) on both sides, preserving its
    meaning while staying inside [0,1]-valued connectives.
    """
    eps, delta = Fraction(eps), Fraction(delta)
    if not (ZERO < eps < ONE and ZERO < delta < ONE):
        raise ValueError("need eps, delta in (0,1)")
    k = theta.n - 1
    xs = tuple(f"x{i + 1}" for i in range(k))
    rest = config_formula(restrict(theta), xs)
    full = config_formula(theta, xs + ("y",))
    coeff = eps / (ONE - delta)
    if coeff <= ONE:
        inner = Min(ScaleQ(coeff, Neg(rest)), full)
        bound = eps
    else:
        inner = Min(ScaleQ(eps, Neg(rest)), ScaleQ(ONE - delta, full))
        bound = eps * (ONE - delta)
    body: Formula = Inf("y", inner)
    for v in reversed(xs):
        body = Sup(v, body)
    return Condition(body, "<=", bound)
