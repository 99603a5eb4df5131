"""CNF-to-curve reduction builders and their brute-force verifiers.

Two construction families turn a CNF formula into a pair of uncertain 1D
curves:

* build_ub_sat: the upper-bound discrete Frechet distance of the pair is
  1.5 exactly when the formula is satisfiable and 1 otherwise, so
  deciding "discrete upper bound <= 1" solves SAT.  The continuous upper
  bound is 1 on every unsatisfiable formula but only lands in [1, 1.5]
  on satisfiable ones: a satisfied clause block can slide along the
  variable stack, and on some formulas the continuous value collapses
  all the way to 1, so the continuous threshold does not separate.
* build_weak_discrete_indecisive / build_weak_discrete_imprecise: the
  minimum discrete weak Frechet distance over realisations is 1 exactly
  when the formula is satisfiable and larger otherwise.

lift_to_2d re-emits any curve pair as 2D curves with a far-away sentinel
vertex interleaved between consecutive vertices, which forces discrete
matchings into lockstep; no 2D solver is provided here.

verify_reduction replays a built instance against brute-force
satisfiability and the enumeration oracle's bounds (oracle.bound_oracle)
and reports whether the advertised equivalences actually hold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .model import (
    PolyCurve,
    Precise,
    UncertainCurve,
    UncertainPoint,
    _point_to_json,
    coupled,
    format_scalar,
    make_interval,
    make_set,
    scale_to_ints,
)
from .oracle import CapExceeded, EnumerationSpec, bound_oracle, check_cap, check_pairs
from .precise import CORES, discrete_frechet, frechet_value

# perfbench/tracing.py still looks this public name up on this module
from .oracle import enumerate_realisations  # noqa: F401

MODELS = ("indecisive", "imprecise")

_HALF = Fraction(1, 2)
_ONE = Fraction(1)
_THREE_HALVES = Fraction(3, 2)


class ReductionError(ValueError):
    """Raised when a formula cannot be turned into the requested instance."""


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula: clauses are tuples of nonzero signed variable indices."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise ValueError("formula needs at least one variable")
        object.__setattr__(
            self, "clauses", tuple(tuple(cl) for cl in self.clauses)
        )
        if not self.clauses:
            raise ValueError("formula needs at least one clause")
        for cl in self.clauses:
            if not cl:
                raise ValueError("empty clause")
            for lit in cl:
                if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
                    raise ValueError(f"bad literal {lit!r}")
                if abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range for {self.num_vars} variables")

    def clause_satisfied(self, index: int, assignment: Sequence[bool]) -> bool:
        return any(
            (lit > 0) == assignment[abs(lit) - 1] for lit in self.clauses[index]
        )

    def satisfied_by(self, assignment: Sequence[bool]) -> bool:
        return all(
            self.clause_satisfied(i, assignment) for i in range(len(self.clauses))
        )


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF.  Comments and the p-header are optional; a missing
    terminating 0 on the last clause is tolerated.  An empty clause (a 0
    that ends no literals) is rejected, except after a "%" line: SATLIB
    files end with a "%" line and a lone 0."""
    num_vars: Optional[int] = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    trailer = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            trailer = True
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) < 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {line!r}")
            try:
                num_vars = int(parts[2])
            except ValueError as exc:
                raise ValueError(f"bad DIMACS header: {line!r}") from exc
            continue
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise ValueError(f"bad DIMACS token {tok!r}") from exc
            if lit != 0:
                current.append(lit)
            elif current:
                clauses.append(tuple(current))
                current = []
            elif not trailer:
                raise ValueError(f"empty clause {len(clauses) + 1} in DIMACS input")
    if current:
        clauses.append(tuple(current))
    if not clauses:
        raise ValueError("no clauses in DIMACS input")
    seen = max(abs(lit) for cl in clauses for lit in cl)
    if num_vars is None:
        num_vars = seen
    elif seen > num_vars:
        raise ValueError(f"literal index {seen} exceeds declared variable count {num_vars}")
    return CnfFormula(num_vars, tuple(clauses))


def check_brute_force_size(f: CnfFormula) -> None:
    """The one limit of satisfiable, and so of verify_reduction: 20 variables."""
    if f.num_vars > 20:
        raise ValueError("brute-force satisfiability is limited to 20 variables")


def satisfiable(f: CnfFormula) -> bool:
    """Brute-force satisfiability (see check_brute_force_size)."""
    check_brute_force_size(f)
    for bits in itertools.product((False, True), repeat=f.num_vars):
        if f.satisfied_by(bits):
            return True
    return False


@dataclass(frozen=True)
class ReductionInstance:
    """A generated curve pair with its decision threshold and provenance."""

    u: UncertainCurve
    v: UncertainCurve
    delta: Fraction
    gap_value: Fraction
    kind: str
    model: str
    expected_lengths: tuple[int, int]
    formula: CnfFormula
    effective_formula: CnfFormula
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.delta < self.gap_value:
            raise ValueError("threshold must sit below the failure value")
        if (len(self.u), len(self.v)) != self.expected_lengths:
            raise AssertionError(
                f"curve lengths {(len(self.u), len(self.v))} != expected {self.expected_lengths}"
            )


# ---------------------------------------------------------------------------
# Upper-bound construction
# ---------------------------------------------------------------------------
#
# One curve carries a two-state uncertain point per variable; the other is
# precise and spells out the clauses.  Vertex values are chosen so every
# realisation pair has distance either 1 or 1.5, with 1.5 reachable exactly
# when some assignment satisfies every clause.


def ub_clause_gadget(clause: Sequence[int], num_vars: int) -> PolyCurve:
    """Precise clause block: a 3.5 anchor then one vertex pair per variable,
    first 0 for a positive occurrence, -1.5 for a negative one, -0.75 when
    the variable does not occur; second always 1.5."""
    vals = [Fraction(7, 2)]
    for j in range(1, num_vars + 1):
        if j in clause:
            vals.append(Fraction(0))
        elif -j in clause:
            vals.append(Fraction(-3, 2))
        else:
            vals.append(Fraction(-3, 4))
        vals.append(_THREE_HALVES)
    return tuple(vals)


def ub_abs_curve(num_vars: int) -> PolyCurve:
    """Catch block on the uncertain curve: 2.5 then num_vars (-0.5, 0.5) pairs.
    It aligns with any clause block at distance exactly 1."""
    return (Fraction(5, 2),) + (-_HALF, _HALF) * num_vars


def ub_abs2_curve() -> PolyCurve:
    """Catch block on the precise curve: (1.5, 0.5), absorbing spare catch
    blocks at distance exactly 1."""
    return (_THREE_HALVES, _HALF)


def realise_variable_stack(num_vars: int, assignment: Sequence[bool]) -> PolyCurve:
    """The variable block realised under an assignment: a 4.5 anchor then,
    per variable, -1.5 (true) or 0 (false) and a 2.5 spacer."""
    vals = [Fraction(9, 2)]
    for j in range(num_vars):
        vals.append(Fraction(-3, 2) if assignment[j] else Fraction(0))
        vals.append(Fraction(5, 2))
    return tuple(vals)


def _effective_formula(
    f: CnfFormula, kind: str, model: str
) -> tuple[CnfFormula, tuple[str, ...]]:
    """(the formula the kind and model's instance is built from, its
    notes).  A single ub-sat clause is duplicated: otherwise the precise
    curve would start at the 3.5 anchor, too far from the uncertain curve's
    endpoint at 1, and the duplicate restores the catch-block padding.  An
    even imprecise weak-discrete clause count gets the tautology
    (1, -1, 1), so that the last clause block ends at the top height.
    Neither changes satisfiability."""
    c = len(f.clauses)
    if kind == "ub-sat" and c == 1:
        return (
            CnfFormula(f.num_vars, f.clauses * 2),
            ("single clause duplicated to keep curve endpoints alignable",),
        )
    if kind == "weak-discrete" and model == "imprecise" and c % 2 == 0:
        return (
            CnfFormula(f.num_vars, f.clauses + ((1, -1, 1),)),
            ("even clause count padded with tautology (x1 or not x1 or x1)",),
        )
    return f, ()


def build_ub_sat(f: CnfFormula, model: str = "indecisive") -> ReductionInstance:
    """Curve pair whose upper-bound Frechet distance (continuous and
    discrete) is 1.5 iff the formula is satisfiable, 1 otherwise, at
    threshold delta = 1."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    for cl in f.clauses:
        pos = {lit for lit in cl if lit > 0}
        neg = {-lit for lit in cl if lit < 0}
        if pos & neg:
            raise ReductionError(
                "clause contains a variable in both polarities; the per-variable "
                "literal slot cannot encode a tautological clause"
            )
    eff, notes = _effective_formula(f, "ub-sat", model)
    c = len(eff.clauses)
    v = eff.num_vars

    # each stack vertex spans its all-true and its all-false realisation;
    # both models collapse the equal ones (anchor, spacers) to Precise
    pairs = zip(realise_variable_stack(v, [True] * v), realise_variable_stack(v, [False] * v))
    if model == "indecisive":
        stack = [make_set((a, b)) for a, b in pairs]
    else:
        stack = [make_interval(a, b) for a, b in pairs]
    catch = ub_abs_curve(v) * (c - 1)
    u_pts = [Precise(x) for x in (_ONE, *catch)] + stack + [Precise(x) for x in (*catch, _ONE)]
    catch2 = ub_abs2_curve() * (c - 1)
    clauses_v = tuple(x for cl in eff.clauses for x in ub_clause_gadget(cl, v))
    v_pts = [Precise(x) for x in catch2 + clauses_v + catch2]

    return ReductionInstance(
        u=UncertainCurve(tuple(u_pts), name=f"ub-{model}-vars"),
        v=UncertainCurve(tuple(v_pts), name=f"ub-{model}-clauses"),
        delta=_ONE,
        gap_value=_THREE_HALVES,
        kind="ub-sat",
        model=model,
        expected_lengths=_expected_lengths("ub-sat", model, eff),
        formula=f,
        effective_formula=eff,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Weak-discrete constructions
# ---------------------------------------------------------------------------
#
# Each variable gets a band of heights around 10i+5.  A path through the
# spot grid must cross every clause column; the clause vertex is reachable
# only from a variable vertex realised on the matching side of its band.


def _require_3sat(f: CnfFormula) -> None:
    for cl in f.clauses:
        if len(set(cl)) > 3:
            raise ReductionError(f"clause {cl} has more than three distinct literals")


def _clause_slots(cl: tuple[int, ...]) -> tuple[int, int, int]:
    """Exactly three literal slots, repeating the last literal as needed."""
    lits = list(cl)
    while len(lits) < 3:
        lits.append(lits[-1])
    return lits[0], lits[1], lits[2]


def build_weak_discrete_indecisive(f: CnfFormula) -> ReductionInstance:
    """Curve pair whose minimum discrete weak Frechet distance over
    realisations is 1 iff the 3SAT formula is satisfiable (else 3).

    The variable curve holds one two-state point per variable at heights
    10i+4 / 10i+6 (true / false reading is 10i+4 = true).  The clause
    curve carries a set vertex per clause at heights 10a+3 for positive
    literals and 10a+7 for negative ones, separated by enough copies of
    the neutral heights 10k+5 for a path to re-ladder between clauses.
    """
    _require_3sat(f)
    n = f.num_vars

    u_pts: list[UncertainPoint] = [Precise(Fraction(0))]
    for i in range(1, n + 1):
        u_pts.append(make_set((Fraction(10 * i + 4), Fraction(10 * i + 6))))
    u_pts.append(Precise(Fraction(0)))

    neutral = make_set(tuple(Fraction(10 * k + 5) for k in range(1, n + 1)))
    v_pts: list[UncertainPoint] = [Precise(Fraction(0))]
    for cl in f.clauses:
        v_pts.extend([neutral] * n)
        heights = {
            Fraction(10 * abs(lit) + (3 if lit > 0 else 7)) for lit in cl
        }
        v_pts.append(make_set(tuple(sorted(heights))))
    v_pts.extend([neutral] * n)
    v_pts.append(Precise(Fraction(0)))

    return ReductionInstance(
        u=UncertainCurve(tuple(u_pts), name="weak-indecisive-vars"),
        v=UncertainCurve(tuple(v_pts), name="weak-indecisive-clauses"),
        delta=_ONE,
        gap_value=Fraction(3),
        kind="weak-discrete",
        model="indecisive",
        expected_lengths=_expected_lengths("weak-discrete", "indecisive", f),
        formula=f,
        effective_formula=f,
        notes=(),
    )


def _literal_sequence(lit: int, n: int) -> list[Fraction]:
    """Neutral heights 10k+5 with the occurrence variable's slot widened to
    two vertices: (10i+5, 10i+7) for a positive literal, (10i+3, 10i+5)
    for a negative one."""
    i = abs(lit)
    out: list[Fraction] = []
    for k in range(1, n + 1):
        if k != i:
            out.append(Fraction(10 * k + 5))
        elif lit > 0:
            out.extend((Fraction(10 * i + 5), Fraction(10 * i + 7)))
        else:
            out.extend((Fraction(10 * i + 3), Fraction(10 * i + 5)))
    return out


def build_weak_discrete_imprecise(f: CnfFormula) -> ReductionInstance:
    """Like the indecisive weak construction, but the only uncertainty is
    one interval vertex per variable on the first curve; the clause curve
    is fully precise.

    The first curve runs the precise variable ladder up, the interval
    ladder down, and the precise ladder up again, inside a single frame
    pass 0, 10, ..., T-10, ..., 10, ..., T-10, T.  The frame heights 0 and
    T appear exactly once (start and end): crossing a clause block of the
    second curve therefore forces a full sweep of the first curve, and the
    sweep's interval descent must pair with one of the block's three
    ladder runs, one per literal.  Only that pairing constrains the
    realisation; the precise copies absorb the other two runs.  Blocks
    alternate direction, so the clause count must be odd for the final
    block to end at height T; an even count is padded with a tautological
    clause, which leaves satisfiability unchanged.
    """
    _require_3sat(f)
    n = f.num_vars
    eff, notes = _effective_formula(f, "weak-discrete", "imprecise")
    t = Fraction(10 * (n + 2))

    ladder_up: list[UncertainPoint] = []
    ladder_down: list[UncertainPoint] = []
    for i in range(1, n + 1):
        ladder_up.append(Precise(Fraction(10 * i + 4)))
        ladder_up.append(Precise(Fraction(10 * i + 6)))
        ladder_down.append(make_interval(Fraction(10 * i + 4), Fraction(10 * i + 6)))
    ladder_down.reverse()
    u_pts = (
        (Precise(Fraction(0)), Precise(Fraction(10)))
        + tuple(ladder_up)
        + (Precise(t - 10),)
        + tuple(ladder_down)
        + (Precise(Fraction(10)),)
        + tuple(ladder_up)
        + (Precise(t - 10), Precise(t))
    )

    v_pts: list[UncertainPoint] = []
    for j, cl in enumerate(eff.clauses, start=1):
        a, b, cc = _clause_slots(cl)
        block: list[Fraction] = [Fraction(0), Fraction(10)]
        block.extend(_literal_sequence(a, n))
        block.append(t - 10)
        block.extend(reversed(_literal_sequence(b, n)))
        block.append(Fraction(10))
        block.extend(_literal_sequence(cc, n))
        block.extend((t - 10, t))
        if j % 2 == 0:
            block.reverse()
        v_pts.extend(Precise(x) for x in block)

    return ReductionInstance(
        u=UncertainCurve(u_pts, name="weak-imprecise-vars"),
        v=UncertainCurve(tuple(v_pts), name="weak-imprecise-clauses"),
        delta=_ONE,
        gap_value=Fraction(2),
        kind="weak-discrete",
        model="imprecise",
        expected_lengths=_expected_lengths("weak-discrete", "imprecise", eff),
        formula=f,
        effective_formula=eff,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# 2D lifting
# ---------------------------------------------------------------------------


def lift_to_2d(u: UncertainCurve, v: UncertainCurve, sentinel: Fraction) -> tuple[dict, dict]:
    """2D re-emission of a curve pair: each curve is embedded at height 0,
    with a precise sentinel vertex at (0, sentinel) between every pair of
    consecutive vertices.  A sentinel height that does not clear ten times
    the largest coordinate magnitude of the pair raises ValueError, so that
    sentinel-to-sentinel matches are the only cheap ones."""
    sentinel = Fraction(sentinel)
    top = max(
        (abs(e) for e in u.all_endpoints() + v.all_endpoints()),
        default=Fraction(0),
    )
    if not sentinel > 10 * top:
        raise ValueError(
            f"sentinel {format_scalar(sentinel)} too small: "
            f"needs to exceed 10 * {format_scalar(top)}"
        )
    y = format_scalar(sentinel)

    def lift(curve: UncertainCurve) -> dict:
        pts: list[dict] = []
        for idx, p in enumerate(curve.points):
            if idx:
                pts.append({"type": "precise", "x": "0", "y": y})
            pts.append({**_point_to_json(p), "y": "0"})
        return {"dimension": 2, "name": curve.name, "points": pts}

    return lift(u), lift(v)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of replaying a reduction instance against brute force.

    threshold_ok is the property the hardness argument actually needs: the
    distance is at the threshold exactly for unsatisfiable formulas.
    equivalence_ok additionally demands the advertised gap value on the
    satisfiable side; for the upper-bound construction that stronger claim
    holds for the discrete distance but can fail for the continuous one,
    where sliding matchings undercut the gap (see the notes on reports
    where it happens).
    """

    kind: str
    model: str
    sat: bool
    distances: dict
    lengths_ok: bool
    equivalence_ok: bool
    threshold_ok: bool
    range_ok: bool
    gadget_ok: Optional[bool]
    hull_ok: Optional[bool]
    adjacency_used: Optional[int]
    realisations: int
    ok: bool
    notes: tuple[str, ...] = ()

    def summary_lines(self) -> list[str]:
        out = [
            f"kind={self.kind} model={self.model} sat={str(self.sat).lower()}",
            f"lengths_ok={self.lengths_ok} equivalence_ok={self.equivalence_ok} "
            f"threshold_ok={self.threshold_ok} range_ok={self.range_ok} "
            f"gadget_ok={self.gadget_ok} hull_ok={self.hull_ok}",
            f"realisations={self.realisations} adjacency={self.adjacency_used}",
        ]
        for key in sorted(self.distances):
            out.append(f"distance {key} = {format_scalar(self.distances[key])}")
        for note in self.notes:
            out.append(f"note: {note}")
        return out


def _expected_lengths(kind: str, model: str, eff: CnfFormula) -> tuple[int, int]:
    """Curve lengths the constructions must produce from the effective formula."""
    c, v = len(eff.clauses), eff.num_vars
    if kind == "ub-sat":
        return (2 * c + 4 * v * c - 2 * v + 1, 5 * c + 2 * v * c - 4)
    if model == "indecisive":
        return (v + 2, v * c + v + c + 2)
    return (5 * v + 6, c * (3 * v + 9))


# the most scalars lbf reduce writes for one instance: a ub-sat instance
# of 220,011 scalars took 2.85 s at 81 MB peak RSS (2 CPUs, Python 3.11)
INSTANCE_SCALAR_LIMIT = 200_000


def check_instance_size(f: CnfFormula, kind: str, model: str) -> int:
    """The scalars the instance of kind and model writes for f, counted
    from f alone: one per vertex, one more per variable (two positions),
    and one per further height of the indecisive clause curve's sets.
    Raises CapExceeded above INSTANCE_SCALAR_LIMIT."""
    c, n = len(f.clauses), f.num_vars
    eff, _ = _effective_formula(f, kind, model)
    count = sum(_expected_lengths(kind, model, eff)) + n
    if kind == "weak-discrete" and model == "indecisive":
        # c + 1 runs of n neutral vertices with n heights each
        count += (c + 1) * n * (n - 1) + sum(len(set(cl)) - 1 for cl in f.clauses)
    if count > INSTANCE_SCALAR_LIMIT:
        raise CapExceeded(
            f"the {kind} instance would write {count} scalars, above the limit {INSTANCE_SCALAR_LIMIT}"
        )
    return count


@dataclass(frozen=True)
class GadgetCheck:
    """Per-metric outcome of the upper-bound gadget alignment facts."""

    discrete_ok: bool
    continuous_ok: bool
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.discrete_ok and self.continuous_ok


def check_ub_gadgets(eff: CnfFormula) -> GadgetCheck:
    """The three alignment facts the upper-bound construction rests on:
    catch blocks absorb clause blocks at distance 1, the small catch
    absorbs the big catch at distance 1, and a clause block against a
    realised variable block gives 1.5 iff the assignment satisfies the
    clause (1 otherwise).  Assignment sweep only runs for <= 3 variables.

    The facts are checked per metric because they do not have the same
    status: the discrete distance snaps to vertices and honours all three,
    while the continuous distance lets a satisfied clause block slide
    along the variable stack's descent and land strictly between 1 and
    1.5 for some clause/assignment pairs.
    """
    problems: dict[str, list[str]] = {"frechet": [], "discrete": []}
    v = eff.num_vars
    assignments = list(itertools.product((False, True), repeat=v)) if v <= 3 else []
    # one scaling (the continuous core's, which keeps halves) for every curve
    s, (catch, catch2, (one, top), *rest) = scale_to_ints(
        ub_abs_curve(v), ub_abs2_curve(), (_ONE, _THREE_HALVES),
        *(ub_clause_gadget(cl, v) for cl in eff.clauses),
        *(realise_variable_stack(v, bits) for bits in assignments), factor=CORES["frechet"][1],
    )
    gadgets, stacks = rest[: len(eff.clauses)], rest[len(eff.clauses) :]

    def check(a, b, want, what):
        # distances are ints on this scale, so d == want iff d lies in the
        # bracket (want - 1, want]: one bracketed call, and the full value
        # only for a message
        for label in problems:
            value = CORES[label][0]
            if value(a, b, lo=want - 1, hi=want) != want:
                problems[label].append(
                    f"{what}: {label} distance {Fraction(value(a, b), s)} != {Fraction(want, s)}"
                )

    check(catch2, catch, one, "catch2 vs catch")
    for idx, cg in enumerate(gadgets):
        check(catch, cg, one, f"catch vs clause {idx}")
        for bits, stack in zip(assignments, stacks):
            want = top if eff.clause_satisfied(idx, bits) else one
            check(stack, cg, want, f"clause {idx} under {bits}")
    return GadgetCheck(
        discrete_ok=not problems["discrete"],
        continuous_ok=not problems["frechet"],
        problems=tuple(problems["frechet"] + problems["discrete"]),
    )


def _verify_ub(inst: ReductionInstance, spec: EnumerationSpec, sat: bool) -> dict:
    bounds = {
        (metric, side): bound_oracle(inst.u, inst.v, metric, side, spec)
        for metric in ("frechet", "discrete")
        for side in ("lower", "upper")
    }
    range_ok = all(
        _ONE <= bounds[metric, "lower"] and bounds[metric, "upper"] <= _THREE_HALVES
        for metric in ("frechet", "discrete")
    )
    max_f, max_d = bounds["frechet", "upper"], bounds["discrete", "upper"]
    expected = _THREE_HALVES if sat else _ONE
    equivalence_ok = max_f == expected and max_d == expected
    threshold_ok = ((max_f == _ONE) != sat) and ((max_d == _ONE) != sat)
    gadgets = check_ub_gadgets(inst.effective_formula)
    imprecise = inst.model == "imprecise"
    notes = list(gadgets.problems)
    if threshold_ok and not equivalence_ok and max_d == expected:
        notes.append(
            f"continuous upper {format_scalar(max_f)} undercuts the advertised "
            f"{format_scalar(expected)}; the decision threshold (= 1 iff "
            "unsatisfiable) still separates"
        )
    elif sat and max_d == expected and max_f == _ONE:
        notes.append(
            "continuous upper collapses to 1 despite satisfiability; only the "
            "discrete threshold separates"
        )
    # Endpoint realisations decide the equivalence; interior positions of
    # the interval vertices must still stay under the 1.5 ceiling.
    # Only "<= 1.5" is asked, on one scaling of every sample: the coupling
    # walk (model.coupled, each precise curve passed as both bound lists)
    # within 1.5 bounds both distances, and only when it fails do two calls
    # with the bracket's lower end at 1.5 (an answer <= 1.5 then means the
    # distance is) settle it; the distances are computed for a note alone.
    if imprecise:
        rv = inst.v.as_precise()
        ts = [Fraction(k, 6) for k in range(1, 6)]
        rus = [
            [p.x if isinstance(p, Precise) else p.lo + t * (p.hi - p.lo) for p in inst.u.points]
            for t in ts
        ]
        _, (sv, (ceiling,), *sus) = scale_to_ints(
            rv, (_THREE_HALVES,), *rus, factor=CORES["frechet"][1]
        )
        for t, ru, su in zip(ts, rus, sus):
            if not (
                coupled(su, su, sv, sv, ceiling, True)
                or all(CORES[k][0](su, sv, lo=ceiling) <= ceiling for k in ("frechet", "discrete"))
            ):
                df, dd = frechet_value(ru, rv), discrete_frechet(ru, rv)
                range_ok = False
                notes.append(
                    f"interior sample t={format_scalar(t)} exceeds 1.5: "
                    f"frechet {format_scalar(df)}, discrete {format_scalar(dd)}"
                )
    # Every interval's candidates hold both its ends at any resolution, so
    # the realisations of the same formula's indecisive instance are among
    # those the bounds above range over: the imprecise upper values contain
    # the indecisive ones by construction.
    hull_ok = True if imprecise else None
    return dict(
        distances={"frechet_upper": max_f, "discrete_upper": max_d},
        equivalence_ok=equivalence_ok, threshold_ok=threshold_ok, range_ok=range_ok,
        gadget_ok=gadgets.ok, hull_ok=hull_ok, adjacency_used=None, notes=tuple(notes),
    )


def _verify_weak(inst: ReductionInstance, spec: EnumerationSpec, sat: bool) -> dict:
    d8 = bound_oracle(inst.u, inst.v, "discrete-weak", "lower", spec, adjacency=8)
    distances = {"discrete_weak_lower": d8}
    adjacency_used, d_used, notes = 8, d8, ()
    if (d8 == _ONE) != sat:
        d4 = bound_oracle(inst.u, inst.v, "discrete-weak", "lower", spec, adjacency=4)
        distances["discrete_weak_lower_adj4"] = d4
        if (d4 == _ONE) == sat:
            adjacency_used, d_used = 4, d4
            notes = ("equivalence holds under 4-adjacency but not 8-adjacency",)
        else:
            notes = ("equivalence fails under both adjacencies",)
    equivalence_ok = (d_used == _ONE) == sat
    return dict(
        distances=distances,
        equivalence_ok=equivalence_ok, threshold_ok=equivalence_ok, range_ok=d_used >= _ONE,
        gadget_ok=None, hull_ok=None, adjacency_used=adjacency_used, notes=notes,
    )


def verify_reduction(
    inst: ReductionInstance, spec: Optional[EnumerationSpec] = None
) -> VerifyReport:
    """Replay an instance: brute-force satisfiability vs oracle distances,
    plus the per-construction side checks.  Raises CapExceeded when the
    realisation count is out of reach, before the brute-force search.  The
    kind's verifier returns the report fields that differ between kinds;
    the rest are filled in here."""
    if spec is None:
        spec = EnumerationSpec()
    verify_kind = {"ub-sat": _verify_ub, "weak-discrete": _verify_weak}.get(inst.kind)
    if verify_kind is None:
        raise ValueError(f"unknown instance kind {inst.kind!r}")
    # the ub kind's v is precise, so its pairs are u's realisations, and
    # its message is that of u's enumeration
    if inst.kind == "ub-sat":
        realisations = check_cap(inst.u, spec)
    else:
        realisations = check_pairs(inst.u, inst.v, spec)
    sat = satisfiable(inst.formula)
    fields = verify_kind(inst, spec, sat)
    lengths_ok = (len(inst.u), len(inst.v)) == _expected_lengths(
        inst.kind, inst.model, inst.effective_formula
    )
    # gadget_ok is None for the weak kind, which has no gadget facts
    ok = lengths_ok and fields["equivalence_ok"] and fields["range_ok"]
    ok = ok and fields["gadget_ok"] is not False
    fields["notes"] = inst.notes + fields["notes"]
    return VerifyReport(
        kind=inst.kind, model=inst.model, sat=sat, lengths_ok=lengths_ok,
        realisations=realisations, ok=ok, **fields,
    )
