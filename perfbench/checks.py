"""Answer checks, run outside the timed passes.

Each check takes an operation and the json-lines record it printed and
returns None when the answer is right, or a one-line reason when it is
wrong.  Where it can, the check goes through the independent
oracles in tests/oracles.py rather than the library.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction as F

from lbfrechet.lower_bound import decide_lb
from lbfrechet.model import Interval, Precise, is_realisation, parse_scalar
from lbfrechet.reductions import satisfiable
from lbfrechet.weak_uncertain import candidate_deltas, candidate_positions

from oracles import (
    discrete_frechet_recursive,
    discrete_weak_bfs,
    frechet_decide_reference,
    min_weak_over_grid,
    weak_frechet_cells_value,
)

ONE = F(1)
THREE_HALVES = F(3, 2)
# The documented criterion-8 deviation: the continuous upper bound of a
# satisfiable formula undercuts 3/2, the verifier says so in this note, and
# gadget-level notes only ever have this shape (as in the acceptance suite).
UNDERCUT_NOTE = "undercuts the advertised"
GADGET_SLIDE = re.compile(r"^clause \d+ under \([^)]*\): frechet distance (\S+) != 3/2$")
# Smaller than the gap between any two distances of the small oracle
# instances (integer endpoints, resolution-3 grids).
EPS = F(1, 10**12)


def _decide(op, rec):
    want = "true" if op.check["expected"] else "false"
    if rec["result"] != want:
        return f"decide gave {rec['result']}, planted answer is {want}"
    return None


def _witness(op, rec):
    c = op.check
    if rec["result"] != "true":
        return f"witness decision gave {rec['result']} at a planted-feasible delta"
    if "witness_u" not in rec or "witness_v" not in rec:
        return "feasible decision printed no witness"
    wu = [parse_scalar(x) for x in rec["witness_u"]]
    wv = [parse_scalar(x) for x in rec["witness_v"]]
    if not (is_realisation(wu, c["u"]) and is_realisation(wv, c["v"])):
        return "witness is not a realisation of the input curves"
    if not frechet_decide_reference(wu, wv, c["delta"]):
        return "reference decision rejects the witness at delta"
    return None


def _value(op, rec):
    c = op.check
    x = parse_scalar(rec["result"])
    if not decide_lb(c["u"], c["v"], x).feasible:
        return f"value {x} is infeasible"
    below = x - c["tol"]
    if below > 0 and decide_lb(c["u"], c["v"], below).feasible:
        return f"value {x} is feasible at value - tol"
    return None


def _verify_ub(op, rec):
    sat = satisfiable(op.check["formula"])
    if rec["sat"] != sat:
        return f"verify says sat={rec['sat']}, brute force says {sat}"
    want = THREE_HALVES if sat else ONE
    dist = {k: parse_scalar(v) for k, v in rec["distances"].items()}
    if not rec["lengths_ok"] or dist["discrete_upper"] != want:
        return "lengths or discrete upper bound wrong"
    if rec["ok"]:
        return None if dist["frechet_upper"] == want else "ok=true with a wrong frechet upper bound"
    off = [n for n in rec["notes"] if "!=" in n and not GADGET_SLIDE.match(n)]
    if (
        sat
        and rec["threshold_ok"]
        and ONE < dist["frechet_upper"] < THREE_HALVES
        and any(UNDERCUT_NOTE in n for n in rec["notes"])
        and not off
    ):
        return None
    return "ok=false outside the documented continuous-undercut shape"


def _verify_weak(op, rec):
    sat = satisfiable(op.check["formula"])
    if rec["sat"] != sat:
        return f"verify says sat={rec['sat']}, brute force says {sat}"
    if not (rec["ok"] and rec["equivalence_ok"] and rec["lengths_ok"]):
        return "weak verification not ok"
    return None


def _candidates(point, resolution):
    """The oracle's enumeration grid, rebuilt here."""
    if isinstance(point, Precise):
        return [point.x]
    if isinstance(point, Interval):
        step = (point.hi - point.lo) / (resolution - 1)
        return [point.lo + k * step for k in range(resolution)]
    return list(point.xs)


def _reference_distances(u, v, variant, resolution):
    """Sorted distinct distances over every enumerated realisation pair, by
    the reference algorithms.  The reference continuous Frechet algorithm
    only decides, so for that variant this returns the pairs themselves."""
    ru = list(itertools.product(*(_candidates(p, resolution) for p in u.points)))
    rv = list(itertools.product(*(_candidates(p, resolution) for p in v.points)))
    pairs = [(a, b) for a in ru for b in rv]
    if variant == "frechet":
        return pairs
    metric = {
        "discrete": discrete_frechet_recursive,
        "weak": weak_frechet_cells_value,
        "discrete-weak": discrete_weak_bfs,
    }[variant]
    return sorted({metric(a, b) for a, b in pairs})


def _attained(ref, variant, x):
    """Is x the distance of some enumerated pair?"""
    if variant != "frechet":
        return x in ref
    return any(
        frechet_decide_reference(a, b, x) and not frechet_decide_reference(a, b, x - EPS)
        for a, b in ref
    )


def _exact(ref, variant, side, x):
    """Is x exactly the lower (min) or upper (max) bound?"""
    if variant != "frechet":
        return x == (ref[0] if side == "lower" else ref[-1])
    if side == "lower":
        beaten = any(frechet_decide_reference(a, b, x - EPS) for a, b in ref)
    else:
        beaten = not all(frechet_decide_reference(a, b, x) for a, b in ref)
    return not beaten and _attained(ref, variant, x)


def _oracle(op, rec):
    c = op.check
    x = parse_scalar(rec["result"])
    ref = _reference_distances(c["u"], c["v"], c["variant"], c["resolution"])
    if _exact(ref, c["variant"], c["side"], x):
        return None
    stop = c["stop_at"]
    # An early stop returns the running bound once it is at least as
    # strong as stop_at: a distance some pair attains, past stop_at.
    if stop is not None and (x <= stop if c["side"] == "lower" else x >= stop):
        return None if _attained(ref, c["variant"], x) else f"early-stop bound {x} is no pair's distance"
    return f"{c['side']} {c['variant']} bound {x} is neither exact nor an early stop past {stop}"


def weak_min_reference(u, v):
    """Minimum weak value over the candidate grids, as in criterion 7."""
    best = None
    for d in candidate_deltas(u, v):
        pu, pv = candidate_positions(u, v, d)
        flat_u = sorted({x for vals in pu for x in vals})
        flat_v = sorted({x for vals in pv for x in vals})
        got = min_weak_over_grid(u, v, flat_u, flat_v)
        if best is None or got < best:
            best = got
    return best


def _weak_min(op, rec):
    c = op.check
    x = parse_scalar(rec["result"])
    if x not in candidate_deltas(c["u"], c["v"]):
        return f"weak value {x} is not a candidate delta"
    if x != c["expected"]:
        return f"weak value {x}, the mapped bank value is {c['expected']}"
    if len(c["u"]) + len(c["v"]) == 3 and x != weak_min_reference(c["u"], c["v"]):
        return f"weak value {x} differs from the grid brute force"
    return None


CHECKS = {
    "decide": _decide,
    "witness": _witness,
    "value": _value,
    "verify-ub": _verify_ub,
    "verify-weak": _verify_weak,
    "oracle": _oracle,
    "weak-min": _weak_min,
}


def check(op, rec) -> str | None:
    """None when the record answers op correctly, else the reason."""
    try:
        return CHECKS[op.kind](op, rec)
    except (KeyError, ValueError, TypeError) as exc:
        return f"malformed record: {type(exc).__name__}: {exc}"
