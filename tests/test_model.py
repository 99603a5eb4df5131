"""Scalars, vertex kinds, curves, and the JSON wire format."""

import ast
import json
import pathlib
import random
import sys
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, strategies as st

import lbfrechet
from lbfrechet import (
    CurveFormatError,
    FiniteSet,
    Interval,
    Precise,
    UncertainCurve,
    curve_from_json,
    curve_to_json,
    format_scalar,
    growing_curve,
    image,
    is_realisation,
    parse_scalar,
    reverse,
)
from lbfrechet.model import (
    live_windows,
    load_curve,
    make_interval,
    make_set,
    midpoint,
    narrow,
    rank_pivot,
    reach_bound,
    scale_to_ints,
)
from oracles import load_curve_reference


# --- scalars ---------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", F(0)),
        ("7", F(7)),
        ("-3", F(-3)),
        ("0.5", F(1, 2)),
        ("-2.25", F(-9, 4)),
        ("3/4", F(3, 4)),
        ("-7/2", F(-7, 2)),
        ("10/4", F(5, 2)),
    ],
)
def test_parse_scalar(text, value):
    assert parse_scalar(text) == value


@pytest.mark.parametrize("bad", ["", "abc", "1/0", "1.2.3", "1 / 2"])
def test_parse_scalar_rejects(bad):
    with pytest.raises(CurveFormatError):
        parse_scalar(bad)


@pytest.mark.parametrize(
    "text",
    [
        "0", "-0", "+7", "  42 ", "\t-3\n", "007", "-007",
        "-0/5", "+0/3", "0012/0008", "10/4", "-7/2", "+22/7", " 1/3 ",
        "123456789012345678901234567890123/7", "-98765432109876543210987654321",
        "0.5", "-2.25", ".5", "-.75", "5.", "+1.250", " -0.000 ", "00.10",
        "+.5", "-5.", "0.125", "-12345678901234567890.0987654321",
        "\u0661\u0662", "\u0661\u0662/\u0663", "-\u0661.\u0665",
    ],
)
def test_parse_scalar_matches_fraction(text):
    """Every accepted form is built from int parts; the result must equal
    Fraction's own parse of the literal."""
    got = parse_scalar(text)
    assert type(got) is F and got == F(text)


@pytest.mark.parametrize(
    "bad",
    [
        "", " ", "abc", "1/0", "-0/0", "007/000", "1.2.3", "1 / 2", "1/", "/2", "1/2/3",
        "1/-2", "1.5/2", "1/2.0", ".", "+", "-", "+-1", "--1", "1e3", "inf", "nan",
        "0x10", "1_000", "1/1_0",
    ],
)
def test_parse_scalar_rejects_every_malformed_form(bad):
    with pytest.raises(CurveFormatError) as info:
        parse_scalar(bad)
    if bad in ("1/0", "-0/0", "007/000"):
        assert str(info.value) == f"bad scalar {bad!r}: zero denominator"


def test_parse_scalar_rejects_non_string():
    with pytest.raises(CurveFormatError):
        parse_scalar(1.5)


@pytest.mark.parametrize(
    "value,text",
    [
        (F(0), "0"),
        (F(5), "5"),
        (F(1, 2), "0.5"),
        (F(-3, 8), "-0.375"),
        (F(7, 20), "0.35"),
        (F(1, 3), "1/3"),
        (F(-22, 7), "-22/7"),
    ],
)
def test_format_scalar(value, text):
    assert format_scalar(value) == text


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_scalar_round_trip(num, den):
    q = F(num, den)
    assert parse_scalar(format_scalar(q)) == q


exact_scalars = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**4),
)


@given(st.lists(st.lists(exact_scalars, max_size=4), max_size=4), st.sampled_from([1, 2, 8]))
def test_scale_to_ints(seqs, factor):
    s, ints = scale_to_ints(*seqs, factor=factor)
    assert s == factor * lcm(*(F(x).denominator for xs in seqs for x in xs))
    assert [len(xs) for xs in ints] == [len(xs) for xs in seqs]
    for xs, ys in zip(seqs, ints):
        for x, y in zip(xs, ys):
            assert type(y) is int and y == x * s


def test_only_model_takes_an_lcm():
    """Every scaling to ints goes through model.scale_to_ints: no other
    module names lcm, so the choice of scale cannot fork."""
    users = set()
    for path in pathlib.Path(lbfrechet.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Name) and node.id == "lcm") or (
                isinstance(node, ast.Attribute) and node.attr == "lcm"
            ) or (isinstance(node, ast.alias) and node.name == "lcm"):
                users.add(path.name)
    assert users == {"model.py"}


def test_library_imports_only_the_stdlib():
    """Every import in the library is relative or names a standard-library
    module, so lbfrechet keeps no runtime dependency."""
    outside = set()
    for path in pathlib.Path(lbfrechet.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside.update((path.name, name) for name in names if name.partition(".")[0] not in sys.stdlib_module_names)
    assert not outside


def test_library_is_float_free():
    """No float or complex constant, and no float, inf or nan name or
    attribute, in the library: all its arithmetic is exact."""
    found = set()
    for path in pathlib.Path(lbfrechet.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.add((path.name, node.lineno, repr(node.value)))
            elif isinstance(node, ast.Name) and node.id in ("float", "inf", "nan"):
                found.add((path.name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute) and node.attr in ("float", "inf", "nan"):
                found.add((path.name, node.lineno, node.attr))
    assert not found


def test_reach_bound_by_hand():
    # the gap of the first hulls, of the last hulls, and of a vertex hull
    # to the other curve's span, each the largest in turn; 0 on overlap
    assert reach_bound([(0, 1)], [(3, 4)]) == 2
    assert reach_bound([(0, 1), (5, 6)], [(1, 2), (8, 9)]) == 2
    assert reach_bound([(0, 1), (9, 9), (0, 1)], [(0, 2), (1, 3)]) == 6
    assert reach_bound([(0, 1), (0, 1)], [(0, 1), (6, 7), (0, 1)]) == 5
    assert reach_bound([(0, 2), (1, 3)], [(1, 2), (2, 4)]) == 0
    assert reach_bound([(F(1, 3), F(1, 2))], [(F(-1, 4), 0)]) == F(1, 3)


@given(
    st.lists(st.tuples(exact_scalars, exact_scalars), min_size=1, max_size=5),
    st.lists(st.tuples(exact_scalars, exact_scalars), min_size=1, max_size=5),
)
def test_reach_bound_scales_with_its_hulls(u, v):
    """The bound on ints scaled by s is s times the bound on Fractions, and
    it is symmetric in the two curves."""
    hull_u = [(min(a, b), max(a, b)) for a, b in u]
    hull_v = [(min(a, b), max(a, b)) for a, b in v]
    s, ints = scale_to_ints(*hull_u, *hull_v)
    reach = reach_bound(hull_u, hull_v)
    assert reach >= 0 and reach == reach_bound(hull_v, hull_u)
    assert reach_bound(ints[: len(u)], ints[len(u) :]) == reach * s


def test_reach_bound_has_three_callers():
    """model.reach_bound is the one reach filter: the untraced sweep, the
    lower-bound value search and the weak-minimum value call it, and
    nothing else does (the weak decision stays the exact DP)."""
    callers = set()
    for path in pathlib.Path(lbfrechet.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "reach_bound":
                        callers.add((path.name, fn.name))
    assert callers == {
        ("lower_bound.py", "_sweep"),
        ("lower_bound.py", "compute_lb"),
        ("weak_uncertain.py", "wfr_min_value"),
    }


def test_live_windows_by_hand():
    """u = 0, 2, 2, 4 and v = 0, 0, 2, 4, 4 at delta 1.  Row 1 stops short
    of column 4: from there v stays at 4 while u must still meet 2.  Rows 2
    and 3 start at column 2: past u_2 = 2, u stays within [2, 4] while v
    must still meet v_2 = 0.  Row 3 reaches column 4, as only 4 is left of
    u.  In row 2 of u = 4, 2, 0, 2 against v = 4, 0, 2, 4, 2 no cell is
    live: u is past u_2, so the rest of u lies within [0, 2] and must still
    meet 0.  Then v must not have reached v_3 (columns 1 and 2, as the rest
    of v from v_3 on lies within [2, 4]) and must have passed v_4 = 4
    (column 4), which cannot both hold."""
    def precise(*xs):
        return [(x, x) for x in xs]

    assert live_windows(precise(0, 2, 2, 4), precise(0, 0, 2, 4, 4), 1) == [(1, 4), (2, 4), (2, 5)]
    assert live_windows(precise(0, 2, 2, 4), precise(0, 0, 2, 4, 4), 2) == [(1, 5)] * 3
    assert live_windows(precise(4, 2, 0, 2), precise(4, 0, 2, 4, 2), 1) == [(1, 3), (4, 3), (4, 5)]
    assert live_windows(precise(3), precise(0, 1), 0) == []
    assert live_windows(precise(0, 5), precise(3), 0) == [(1, 1)]


def test_live_windows_match_direct_evaluation():
    """The two-pointer windows equal a direct O(mn) evaluation of both
    conditions per cell on 1,200 seeded pairs of int hulls, many with one or
    two vertices on a side and one in six of two equal curves: the live
    columns of each row are exactly [lo, hi), and none when lo >= hi."""
    rng = random.Random(2601)

    def gap(a, b):
        return max(a[0] - b[1], b[0] - a[1])

    def hull(hs):
        return min(lo for lo, _ in hs), max(hi for _, hi in hs)

    def curve():
        size = rng.choice((1, 2, rng.randint(1, 9)))
        return [(lo, lo + rng.choice((0, 0, 1, 3))) for lo in (rng.randint(-6, 6) for _ in range(size))]

    rows = bites = 0
    for t in range(1200):
        hu = curve()
        hv = list(hu) if t % 6 == 0 else curve()
        m, n = len(hu), len(hv)
        d = rng.randint(0, 8)
        windows = live_windows(hu, hv, d)
        assert len(windows) == m - 1
        for i, (lo, hi) in enumerate(windows, 1):
            live = [
                j for j in range(1, n)
                if max(gap(hu[a - 1], hull(hv[j - 1 :])) for a in range(i + 1, m + 1)) <= d
                and max(gap(hv[b - 1], hull(hu[i - 1 :])) for b in range(j + 1, n + 1)) <= d
            ]
            assert (list(range(lo, hi)) if lo < hi else []) == live, (hu, hv, d, i)
            rows += 1
            bites += len(live) < n - 1
    assert rows >= 1500 and bites >= 400, (rows, bites)


def test_star_import_binds_exactly_all():
    """Every name in __all__ resolves, once, and a star import binds
    nothing else, so no deleted name lingers as an export."""
    names = lbfrechet.__all__
    assert len(names) == len(set(names))
    namespace: dict = {}
    exec("from lbfrechet import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(names)
    assert all(getattr(lbfrechet, name) is namespace[name] for name in names)


# --- vertex kinds ----------------------------------------------------------


def test_precise_vertex():
    p = Precise(F(3, 2))
    assert p.contains(F(3, 2))
    assert not p.contains(F(1))
    assert p.endpoints() == (F(3, 2),)
    assert p.span() == (F(3, 2), F(3, 2))
    assert p.is_precise


def test_interval_vertex():
    p = Interval(F(-1), F(2))
    assert p.contains(F(-1)) and p.contains(F(2)) and p.contains(F(0))
    assert not p.contains(F(-2)) and not p.contains(F(5, 2))
    assert p.span() == (F(-1), F(2))
    assert not p.is_precise
    assert Interval(F(1), F(1)).is_precise


def test_interval_rejects_reversed():
    with pytest.raises(ValueError):
        Interval(F(2), F(1))


def test_loaded_interval_is_built_without_a_second_compare(monkeypatch):
    """The loader orders an interval's ends on ints once and builds the
    Interval without __post_init__; the result equals, and hashes as, the
    one built directly, which still rejects reversed ends."""
    calls = []
    post_init = Interval.__post_init__
    monkeypatch.setattr(Interval, "__post_init__", lambda self: calls.append(self) or post_init(self))
    got = curve_from_json({"points": [{"type": "interval", "lo": "1/3", "hi": "2.5"}]}).points[0]
    assert calls == []
    assert got == Interval(F(1, 3), F(5, 2)) and hash(got) == hash(Interval(F(1, 3), F(5, 2)))
    assert len(calls) == 2
    with pytest.raises(ValueError, match="lo > hi"):
        Interval(F(5, 2), F(1, 3))


def test_finite_set_vertex():
    p = FiniteSet((F(-1), F(0), F(3)))
    assert p.contains(F(0)) and not p.contains(F(1))
    assert p.span() == (F(-1), F(3))
    assert not p.is_precise
    assert FiniteSet((F(2),)).is_precise
    with pytest.raises(ValueError):
        FiniteSet(())
    with pytest.raises(ValueError):
        FiniteSet((F(1), F(1)))
    with pytest.raises(ValueError):
        FiniteSet((F(2), F(1)))


def test_make_helpers():
    assert isinstance(make_interval(F(1), F(1)), Precise)
    assert isinstance(make_interval(F(0), F(1)), Interval)
    assert isinstance(make_set([F(2)]), Precise)
    assert isinstance(make_set([F(2), F(1)]), FiniteSet)
    assert make_set([F(2), F(1)]).xs == (F(1), F(2))


# --- curves ----------------------------------------------------------------


def test_uncertain_curve_basics():
    c = UncertainCurve((Precise(F(0)), Interval(F(1), F(2)), FiniteSet((F(4), F(6)))))
    assert len(c) == 3
    assert c[1] == Interval(F(1), F(2))
    assert c.span() == (F(0), F(6))
    assert c.all_endpoints() == [F(0), F(1), F(2), F(4), F(6)]
    assert not c.is_precise
    r = c.reverse()
    assert r.points == c.points[::-1]
    with pytest.raises(ValueError):
        UncertainCurve(())
    with pytest.raises(ValueError):
        c.as_precise()


def test_is_realisation():
    c = UncertainCurve((Interval(F(0), F(1)), FiniteSet((F(3), F(5)))))
    assert is_realisation([F(1, 2), F(3)], c)
    assert is_realisation([F(0), F(5)], c)
    assert not is_realisation([F(2), F(3)], c)
    assert not is_realisation([F(0), F(4)], c)
    assert not is_realisation([F(0)], c)


# --- precise-curve helpers ---------------------------------------------------


def test_curve_helpers():
    a = [F(0), F(4), F(-1)]
    assert reverse(a) == (F(-1), F(4), F(0))
    assert image(a) == (F(-1), F(4))


@pytest.mark.parametrize(
    "curve,expected",
    [
        ([0], (0,)),
        ([2, 2, 2], (2,)),
        ([0, 1, 2, 3], (0, 3)),
        ([0, 5, 1, 6], (0, 6)),
        ([0, -2, 3, 1, 4], (0, -2, 4)),
        ([5, 0, 7, -1, 8], (5, 0, 7, -1, 8)),
        ([0, 3, 1, 3, 5, 2], (0, 5)),
    ],
)
def test_growing_curve_examples(curve, expected):
    got = growing_curve([F(x) for x in curve])
    assert got == tuple(F(x) for x in expected)


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=12))
def test_growing_curve_shape(xs):
    xs = [F(x) for x in xs]
    g = growing_curve(xs)
    # same start, same image
    assert g[0] == xs[0]
    assert image(g) == image(xs)
    # interior vertices strictly alternate direction
    for k in range(1, len(g) - 1):
        assert (g[k] > g[k - 1]) != (g[k + 1] > g[k])
    # idempotent
    assert growing_curve(g) == g


# --- JSON wire format --------------------------------------------------------


def test_curve_json_round_trip():
    c = UncertainCurve(
        (Precise(F(1, 2)), Interval(F(-1), F(3)), FiniteSet((F(0), F(7, 2)))),
        name="demo",
    )
    data = curve_to_json(c)
    back = curve_from_json(data)
    assert back == c
    # and through an actual JSON string
    import json

    back2 = curve_from_json(json.dumps(data))
    assert back2 == c


@pytest.mark.parametrize(
    "payload",
    [
        "not json {",
        '["a", "list"]',
        '{"dimension": 2, "points": []}',
        '{"dimension": true, "points": [{"type": "precise", "x": "1"}]}',
        '{"dimension": 1.0, "points": [{"type": "precise", "x": "1"}]}',
        '{"points": [{"type": "blob", "x": "1"}]}',
        '{"points": [{"type": "interval", "lo": "2", "hi": "1"}]}',
        '{"points": [{"type": "set", "xs": []}]}',
        '{"points": [{"type": "precise", "x": "nope"}]}',
        '{"points": []}',
    ],
)
def test_curve_json_rejects(payload):
    with pytest.raises((CurveFormatError, ValueError)):
        curve_from_json(payload)


def test_deeply_nested_curve_json_is_a_format_error():
    """Nesting past the recursion limit raises CurveFormatError, not
    RecursionError: met by the parser, it reads "nested too deeply", and
    an error message about a deep value quotes a bounded repr of it."""
    deep: list = []
    for _ in range(100_000):
        deep = [deep]
    with pytest.raises(CurveFormatError, match="nested too deeply"):
        curve_from_json("[" * 100_000)
    for data, what in (({"points": [deep]}, "vertex must be an object"), ({"dimension": deep, "points": []}, "dimension")):
        with pytest.raises(CurveFormatError, match=what) as info:
            curve_from_json(data)
        assert len(str(info.value)) <= 200


def test_curve_json_missing_dimension_means_one():
    points = '"points": [{"type": "precise", "x": "1"}]'
    assert curve_from_json(f"{{{points}}}") == curve_from_json(f'{{"dimension": 1, {points}}}')


# --- the curve-file loader against Fraction's own parser ----------------------

# large denominators, for interval ends one unit apart
_BIG_DENS = (10**12 + 39, 2**61 - 1, 10**18)
_UNICODE_DIGITS = ("\u0660", "\u06f0", "\uff10", "\u0966")  # Arabic-Indic, Persian, fullwidth, Devanagari
_PADS = ("", "", " ", "\t", "\n ", "\u00a0", "\u2003")


def _decimal_spelling(rng, q: F):
    """q as a decimal literal with at least the digits it needs, or None
    when its denominator is not 2^a 5^b."""
    shift = 0
    while (q * 10**shift).denominator != 1:
        shift += 1
        if shift > 30:
            return None
    shift += rng.choice((0, 0, 1, 2))
    digits = str(abs(q.numerator * 10**shift // q.denominator)).rjust(shift + 1, "0")
    sign = "-" if q < 0 or (q == 0 and rng.random() < 0.5) else rng.choice(("", "+"))
    whole, frac = digits[: len(digits) - shift], digits[len(digits) - shift :]
    if whole == "0" and frac and rng.random() < 0.3:
        whole = ""  # ".5"
    return f"{sign}{whole}.{frac}" if frac or rng.random() < 0.5 else f"{sign}{whole}"


def _spell(rng, q: F):
    """A random accepted spelling of q: a ratio with a common factor, a
    decimal, a JSON integer, Unicode digits, surrounding whitespace and a
    negative zero for 0."""
    if q.denominator == 1 and rng.random() < 0.2:
        return int(q)
    text = None
    if rng.random() < 0.4:
        text = _decimal_spelling(rng, q)
    if text is None:
        k = rng.choice((1, 1, 2, 3, 10))
        sign = "-" if q < 0 or (q == 0 and rng.random() < 0.5) else rng.choice(("", "+"))
        zeros = "0" * rng.choice((0, 0, 1, 2))
        text = f"{sign}{zeros}{abs(q.numerator) * k}/{zeros}{q.denominator * k}"
        if q.denominator == 1 and k == 1 and rng.random() < 0.5:
            text = text.split("/")[0]
    if rng.random() < 0.1:
        zero = rng.choice(_UNICODE_DIGITS)
        text = "".join(chr(ord(zero) + int(c)) if c.isdigit() else c for c in text)
    return rng.choice(_PADS) + text + rng.choice(_PADS)


def _value(rng):
    r = rng.random()
    if r < 0.1:
        return F(0)
    if r < 0.7:
        return F(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 5, 7, 8, 10, 20, 125)))
    return F(rng.randint(-(10**20), 10**20), rng.choice(_BIG_DENS))


def _vertex(rng, inverted=False):
    """A seeded vertex dict, every scalar spelled at random; with inverted,
    an interval whose lo exceeds hi (by one unit at a large denominator
    half of the time)."""
    kind = "interval" if inverted else rng.choices(("precise", "interval", "set"), (2, 7, 1))[0]
    if kind == "precise":
        return {"type": "precise", "x": _spell(rng, _value(rng))}
    if kind == "set":
        xs = [_value(rng) for _ in range(rng.randint(1, 4))]
        xs += [rng.choice(xs) for _ in range(rng.randint(0, 2))]  # repeats, spelled apart
        return {"type": "set", "xs": [_spell(rng, x) for x in xs]}
    lo = _value(rng)
    r = rng.random()
    if r < 0.3:
        hi = lo
    elif r < 0.6:
        hi = lo + F(1, rng.choice(_BIG_DENS))
    else:
        hi = lo + F(rng.randint(1, 50), rng.choice((1, 2, 3, 8, 10**12 + 39)))
    if inverted:
        lo, hi = (hi, lo) if hi != lo else (lo, lo - 1)
    return {"type": "interval", "lo": _spell(rng, lo), "hi": _spell(rng, hi)}


def _shape(p):
    """A library vertex in load_curve_reference's tuple form, its values
    checked to be Fractions."""
    if isinstance(p, Precise):
        shape = ("precise", p.x)
    elif isinstance(p, Interval):
        shape = ("interval", p.lo, p.hi)
    else:
        shape = ("set", *p.xs)
    assert all(type(x) is F for x in shape[1:])
    return shape


def test_loader_matches_fraction_reference(tmp_path):
    """load_curve against tests/oracles.load_curve_reference on 2,500
    seeded vertices in 50 files, and 150 files that each hide one interval
    with lo > hi among valid vertices: the same vertex types and values,
    and a rejection exactly where the reference rejects.  Equal ends are
    spelled apart ("1/2", "0.50", "2/4"), ends one unit apart sit at
    denominators up to 10^18, and zeros come signed."""
    rng = random.Random(20240)

    def write(k, pts):
        path = tmp_path / f"c{k}.json"
        path.write_text(json.dumps({"points": pts}))
        return path

    for k in range(50):
        path = write(k, [_vertex(rng) for _ in range(50)])
        _, want = load_curve_reference(path)
        assert [_shape(p) for p in load_curve(str(path)).points] == want
    for k in range(50, 200):
        pts = [_vertex(rng) for _ in range(rng.randint(0, 9))]
        pts.insert(rng.randint(0, len(pts)), _vertex(rng, inverted=True))
        path = write(k, pts)
        with pytest.raises(ValueError):
            load_curve_reference(path)
        with pytest.raises(CurveFormatError, match="^interval with lo > hi: "):
            load_curve(str(path))


# Each malformed vertex with the exact error the loader raises, the first
# offending scalar or check in document order deciding.
MALFORMED_VERTICES = [
    ({"type": "interval", "lo": "2", "hi": "1"},
     "interval with lo > hi: {'hi': '1', 'lo': '2', 'type': 'interval'}"),
    ({"type": "interval", "lo": "0.50", "hi": "2/5"},
     "interval with lo > hi: {'hi': '2/5', 'lo': '0.50', 'type': 'interval'}"),
    ({"type": "interval", "lo": "-0", "hi": "-1/1000000007"},
     "interval with lo > hi: {'hi': '-1/1000000007', 'lo': '-0', 'type': 'interval'}"),
    ({"type": "interval", "lo": "500000004/1000000007", "hi": "500000003/1000000007"},
     "interval with lo > hi: {'hi': '500000003/1000000007', 'lo': '500000004/1000000007', 'type': 'interval'}"),
    ({"type": "interval", "lo": 3, "hi": "5/2"},
     "interval with lo > hi: {'hi': '5/2', 'lo': 3, 'type': 'interval'}"),
    ({"type": "precise", "x": "1/0"}, "bad scalar '1/0': zero denominator"),
    ({"type": "interval", "lo": "0/0", "hi": "1"}, "bad scalar '0/0': zero denominator"),
    ({"type": "interval", "lo": "0", "hi": "007/000"}, "bad scalar '007/000': zero denominator"),
    ({"type": "interval", "lo": "2", "hi": "1/0"}, "bad scalar '1/0': zero denominator"),
    ({"type": "set", "xs": ["1", "2/0"]}, "bad scalar '2/0': zero denominator"),
    ({"type": "precise", "x": 1.5}, "scalar must be a string or an integer, got 1.5"),
    ({"type": "interval", "lo": 0.5, "hi": "1"}, "scalar must be a string or an integer, got 0.5"),
    ({"type": "interval", "lo": "0", "hi": 1.0}, "scalar must be a string or an integer, got 1.0"),
    ({"type": "precise", "x": True}, "scalar must be a string or an integer, got True"),
    ({"type": "interval", "lo": "0", "hi": False}, "scalar must be a string or an integer, got False"),
    ({"type": "set", "xs": ["1", 2.5]}, "scalar must be a string or an integer, got 2.5"),
    ({"type": "precise"}, "scalar must be a string or an integer, got None"),
    ({"type": "precise", "x": ["1"]}, "scalar must be a string or an integer, got ['1']"),
    ({"type": "precise", "x": "1e3"}, "not a decimal or ratio literal: '1e3'"),
    ({"type": "interval", "lo": "1e3", "hi": "2e3"}, "not a decimal or ratio literal: '1e3'"),
    ({"type": "precise", "x": "inf"}, "not a decimal or ratio literal: 'inf'"),
    ({"type": "precise", "x": "1 / 2"}, "not a decimal or ratio literal: '1 / 2'"),
    ({"type": "interval", "lo": "1/-2", "hi": "1"}, "not a decimal or ratio literal: '1/-2'"),
    ({"type": "interval", "lo": "x", "hi": "1/0"}, "not a decimal or ratio literal: 'x'"),
    ({"type": "set", "xs": []}, "set vertex needs a nonempty xs list: {'type': 'set', 'xs': []}"),
    ({"type": "blob", "x": "1"}, "unknown vertex type 'blob'"),
    (["not", "an", "object"], "vertex must be an object, got ['not', 'an', 'object']"),
]


@pytest.mark.parametrize("vertex,message", MALFORMED_VERTICES)
def test_malformed_vertex_messages_frozen(vertex, message):
    with pytest.raises(CurveFormatError) as info:
        curve_from_json({"points": [{"type": "precise", "x": "0"}, vertex]})
    assert type(info.value) is CurveFormatError and str(info.value) == message


# --- the bracket loop --------------------------------------------------------


def test_narrow_matches_brute_force():
    """narrow with a monotone decision returns the least accepted value as
    hi and the value just below it (or the start) as lo, against a scan of
    sorted lists: over indices with the midpoint pick, and over the values
    themselves with a pick that takes any value inside the bracket.  Every
    probe lies strictly inside the bracket and is decided once."""
    rng = random.Random(2117)
    for _ in range(2000):
        xs = sorted(rng.sample(range(-40, 40), rng.randint(1, 12)))
        cut = rng.randint(xs[0] - 2, xs[-1])  # the last value is accepted
        least = next(k for k, x in enumerate(xs) if x >= cut)
        probes = []

        def accepts(x):
            assert x not in probes
            probes.append(x)
            return x >= cut

        lo, hi = narrow(lambda k: accepts(xs[k]), midpoint, -1, len(xs) - 1)
        assert (lo, hi) == (least - 1, least), (xs, cut)
        probes.clear()

        def anywhere(lo, hi):
            inside = [x for x in xs if lo < x < hi]
            return rng.choice(inside) if inside else None

        lo, hi = narrow(accepts, anywhere, xs[0] - 1, xs[-1])
        assert hi == xs[least] and lo == (xs[least - 1] if least else xs[0] - 1), (xs, cut)


def test_rank_pivot_narrows_to_least_listed_difference():
    """narrow with the rank pivot, started at (-1, span) as the value
    searches start it, returns the smallest pair difference >= t of the
    lists, 0 included (i = j) when t <= 0.  Seeded sorted lists of distinct
    ints, alone and with their halves (the values even, as the callers pass
    them).  Every pick is a listed difference strictly inside its bracket."""
    rng = random.Random(2118)
    for k in range(1500):
        xs = sorted(rng.sample(range(-30, 30), rng.randint(1, 10)))
        lists = (xs,)
        if k % 2:
            xs = [2 * x for x in xs]
            lists = (xs, [x // 2 for x in xs])
        diffs = {y - x for ys in lists for x in ys for y in ys if y >= x}
        span = xs[-1] - xs[0]
        t = rng.randint(-3, span)
        brackets = []

        def pick(lo, hi):
            c = rank_pivot(lists, lo, hi)
            brackets.append((lo, c, hi))
            return c

        _, hi = narrow(lambda d: d >= t, pick, -1, span)
        assert hi == min(d for d in diffs if d >= t), (lists, t)
        for lo, c, hi in brackets[:-1]:
            assert c in diffs and lo < c < hi, (lists, t, lo, c, hi)
        lo, c, hi = brackets[-1]
        assert c is None and not any(lo < d < hi for d in diffs), (lists, t)
