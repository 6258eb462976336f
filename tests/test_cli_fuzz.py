"""Fuzz of ``cli.main``: random argv over the six subcommands.

Fields are Q, F_p with p <= 101 and GF(2^k) with k <= 3, and literals are
short, so every call has a stated bound: it finishes in under two seconds
(the slowest, a census over GF(8), takes about 0.02 s).  Each call must exit
with a documented code (0, 1, 2 or 3) and write no traceback.
"""

import json
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from ectorsion import cli

import oracles

CALL_BOUND_S = 2.0

FIELDS = ["Q", "Fp:3", "Fp:5", "Fp:7", "Fp:13", "Fp:101", "F2k:1:3", "F2k:2:7", "F2k:3:b"]
BAD_FIELDS = ["", "Fp:6", "Fp:1", "Fp:-7", "Fp:x", "Zp:7", "F2k:2:6", "F2k:99:3", "F2k:3", "Q:1",
              "F2k:3:-b", "F2k:2:-7", "F2k:1:-3"]
BAD_LITERALS = ["", "-", "0.5", "1e400", "1/0", "3/-4", "1//2", "abc", "0x3", " 3", "--", "-3/"]
FAMILY_PARAMS = {"e4": "ab", "e6": "t", "e8": "t", "e10": "u", "e12": "T", "e4char2": ["gamma"],
                 "e8char2": "t"}
ISO_PARAMS = {"e4": "abcd", "e8": "st", "e8char2": "st"}

fields = st.one_of(st.sampled_from(FIELDS), st.sampled_from(FIELDS), st.sampled_from(BAD_FIELDS))
good_literals = st.one_of(
    st.integers(-20, 20).map(str),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-20, 20), st.integers(1, 9)),
    st.integers(0, 15).map(lambda n: format(n, "x")),
)
literals = st.one_of(good_literals, good_literals, st.sampled_from(BAD_LITERALS))
json_values = st.one_of(literals, literals, st.integers(-20, 20),
                        st.sampled_from([None, True, 1.5, [], {}, 0]))
broken_json = st.sampled_from(['"infinity"', "null", "[]", "1", "{", "", '{"x": 1}',
                               "[" * 50, "[" * 10**5])  # the last nests too deep for json.loads


def json_object(keys, extra=None):
    """A JSON object with ``keys`` (sometimes one dropped) and some of ``extra``,
    or a document that is no such object."""
    extra = extra or {}
    full = st.fixed_dictionaries({k: json_values for k in keys}, optional=extra)
    partial = st.dictionaries(st.sampled_from(list(keys) + list(extra)), json_values)
    return st.one_of(full, full, full, partial).map(json.dumps) | broken_json


models = st.sampled_from(["cubic", "char2", "weierstrass", 3])
curves = (json_object(["alpha", "p", "q"], {"field": fields | json_values, "model": models})
          | json_object(["a2", "a6"], {"field": fields | json_values}))
points = json_object(["x", "y"])


def flags(names):
    """``--name value`` for each of ``names``."""
    return st.tuples(*(literals.map(lambda v, n=n: [f"--{n}", v]) for n in names))


def sometimes(*argv):
    return st.sampled_from([[], list(argv)])


output = st.sampled_from([[]] * 4 + [["--output", o] for o in ("text", "json", "xml")])
field_opt = fields.map(lambda f: ["--field", f])
maybe_field = st.one_of(field_opt, field_opt, field_opt, st.just([]))


@st.composite
def family(draw):
    name = draw(st.sampled_from(sorted(FAMILY_PARAMS) + ["e5"]))
    params = FAMILY_PARAMS.get(name, "t")
    if draw(st.booleans()):  # any subset of the flags, right or wrong
        params = draw(st.lists(st.sampled_from(["a", "b", "t", "u", "T", "gamma"]), unique=True))
    return ["family", *draw(field_opt), "--family", name, *sum(draw(flags(params)), []),
            *draw(output)]


@st.composite
def iso(draw):
    kind = draw(st.sampled_from(sorted(ISO_PARAMS) + ["e6"]))
    params = ISO_PARAMS.get(kind, "st")
    if draw(st.booleans()):
        params = draw(st.lists(st.sampled_from("abcdst"), unique=True))
    return ["iso", *draw(field_opt), "--kind", kind, *sum(draw(flags(params)), []), *draw(output)]


@st.composite
def on_curve(draw):
    """A curve JSON with its own field and a point on it, found by the oracle's scan
    (over Q, the marked 2-torsion point); the curve may still be singular."""
    desc = draw(st.sampled_from(FIELDS))
    if desc.startswith("F2k"):
        k, mod = int(desc.split(":")[1]), int(desc.split(":")[2], 16)
        a2, a6 = draw(st.integers(0, 2**k - 1)), draw(st.integers(0, 2**k - 1))
        curve = {"field": desc, "a2": format(a2, "x"), "a6": format(a6, "x")}
        pts = [{"x": format(x, "x"), "y": format(y, "x")}
               for x, y in oracles.char2_points(k, mod, a2, a6)]
    else:
        alpha, p, q = (draw(st.integers(-5, 5)) for _ in range(3))
        curve = {"field": desc, "alpha": str(alpha), "p": str(p), "q": str(q)}
        pts = [(alpha, 0)]
        if desc != "Q":  # y^2 = (x - alpha)(x^2 + p x + q) = x^3 + A x^2 + B x + C
            pts = oracles.fp_cubic_points(int(desc[3:]), p - alpha, q - alpha * p, -alpha * q)
        pts = [{"x": str(x), "y": str(y)} for x, y in pts]
    point = draw(st.sampled_from(pts + ["infinity"]))
    return ["--curve", json.dumps(curve), "--point", json.dumps(point)]


curve_and_point = st.one_of(
    on_curve(), st.tuples(curves, points).map(lambda cp: ["--curve", cp[0], "--point", cp[1]]))


methods = st.sampled_from(["auto", "auto", "split", "quadext", "rT", "char2", "none"])
caps = st.one_of(st.integers(-2, 10**6).map(str), st.sampled_from(["x", "1.5"]))
halve = st.tuples(st.just(["halve"]), maybe_field, curve_and_point,
                  st.one_of(st.just([]), methods.map(lambda m: ["--method", m])), output)
order = st.tuples(st.just(["order"]), maybe_field, curve_and_point,
                  st.one_of(st.just([]), caps.map(lambda c: ["--cap", c])), output)
census = st.tuples(st.just(["census"]), field_opt,
                   st.sampled_from(["4", "8", "3", "x"]).map(lambda n: ["--order", n]),
                   sometimes("--table"), output)
verify = st.tuples(st.just(["verify-examples"]), output)
garbage = st.lists(st.one_of(literals, st.sampled_from(["--field", "--help", "--cap", "order"])),
                   max_size=5)

argvs = st.one_of(
    family(), iso(), garbage,
    *(s.map(lambda parts: [tok for part in parts for tok in part])
      for s in (halve, order, census, verify)),
)


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(argv=argvs)
def test_every_argv_exits_with_a_documented_code(capsys, argv):
    t = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - t
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, argv
    assert elapsed < CALL_BOUND_S, (argv, elapsed)
