"""Outputs pinned byte for byte: one sha256 digest per group of calls.

Each group hashes, call by call, what the call prints on stdout and, for a
CLI call, its argv and exit code; the ``cli_errors`` and
``cli_input_errors`` groups hash each failure's stderr too.  The corpus is built here from code: the
fp_queries argvs of ``perfbench/workloads.py`` at seed 1, every
``family_sweep`` of the small fields, and the CLI's subcommands over F_p,
GF(2^k) and Q, the usage failures (exit 1) and the invalid inputs (exit 2).
A change meant to alter an output updates its group's digest
and says which group changed and why; any other digest change is a
regression in what users see.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os

import pytest

from ectorsion import BinaryField, PrimeField, cli
from ectorsion.census import family_sweep

import oracles

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

DIGESTS = {
    "fp_queries": "4e0554bb427f135f11017550cfb4d71c409d074a67407ad424c4fa695337fb88",
    "family_sweep": "09e339e7a1f02b6f842582215b286c1ce8932d23c32fe29bbffda2127b12c377",
    "family": "e70597b6aeb8a9feb1f6f3411d84acce00589fec7721f990f2e98c03daf18e55",
    "halve": "14b054ea49ea7deb0e37ff5fa440e227b7b813713169d098bd774df8034e215d",
    "order": "5f75eec6eaa01c1a12e279fb0019e7189cb619279f0d813e9aec870beb11ee3a",
    "iso": "58825d8f4cb82eee4087f5b5bf116834441509bb0c625bfbd0d0dd80ce0b895a",
    "census_examples_help": "15b4acebf355a99ef55ab9ba937c92f93e2bcdb260545d5ceb8845f1b06345a3",
    "cli_errors": "1f7cb7ffed73b31072f480f52eb83e89b391ecb6c73cadf0612895c36a1a09bb",
    "cli_input_errors": "c04a911326e0b51d307531210d80501afda9cbfecfcced65693c895312e71418",
}


def _cli(h, argv, with_stderr=False):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    record = [argv, code, out.getvalue()] + ([err.getvalue()] if with_stderr else [])
    h.update(json.dumps(record).encode())
    return code, out.getvalue()


def _fp_queries(h):
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for task in workloads.generate("fp_queries", 1):
        _cli(h, task["argv"])


def _family_sweep(h):
    sweeps = [(PrimeField(p), N) for p in oracles.small_primes(5, 97) for N in (4, 6, 8, 10, 12)]
    sweeps += [(BinaryField(k), N) for k in range(1, 7) for N in (4, 8)]
    for field, N in sweeps:
        for inst in family_sweep(field, N):
            h.update(f"{json.dumps(inst.to_json_dict())}\n{inst!r}\n".encode())


# (field, family, parameters): valid instances, and refused ones that exit 2.
_FP = [f"Fp:{p}" for p in (7, 13, 97, 2147483647)]
_BINARY = [BinaryField(k).descriptor for k in (2, 3, 8, 20)]
_FAMILY_ARGS = (
    [(f, "e4", {"a": a, "b": b}) for f in _FP for a, b in (("1", "3"), ("2", "-5"), ("0", "1"))]
    + [(f, fam, {flag: v}) for f in _FP + ["Q"]
       for fam, flag in (("e6", "t"), ("e8", "t"), ("e10", "u"), ("e12", "T"))
       for v in ("2", "3", "-3/4", "1")]
    + [("Q", "e4", {"a": a, "b": b}) for a, b in (("1", "1"), ("2", "-1/3"), ("1", "-1/4"))]
    + [(f, "e4char2", {"gamma": g}) for f in _BINARY for g in ("1", "2", "0")]
    + [(f, "e8char2", {"t": t}) for f in _BINARY for t in ("2", "3", "1")]
)
_ISO_ARGS = (
    [(f, "e4", {"a": "1", "b": b, "c": c, "d": d}) for f in _FP + ["Q"]
     for b, c, d in (("3", "2", "12"), ("3", "1", "5"), ("-5", "3", "-45"))]
    + [(f, "e8", {"s": s, "t": t}) for f in _FP + ["Q"]
       for s, t in (("2", "2"), ("2", "-2"), ("3", "2"), ("3", "1"))]
    + [(f, "e8char2", {"s": s, "t": t}) for f in _BINARY
       for s, t in (("2", "3"), ("3", "2"), ("2", "2"), ("2", "1"))]
)
_OUTPUTS = ("json", "text")


def _flags(params):
    return [a for name, v in params.items() for a in (f"--{name}", v)]


def _family_calls(h):
    """Every family call; returns (field, curve JSON, witness point JSON) for the rest."""
    points = []
    for field, family, params in _FAMILY_ARGS:
        argv = ["family", "--field", field, "--family", family, *_flags(params)]
        code, out = _cli(h, argv)
        _cli(h, argv + ["--output", "text"])
        if code == 0:
            doc = json.loads(out)
            curve = json.dumps(doc["curve"])
            points += [(field, curve, json.dumps(w["point"])) for w in doc["witnesses"]]
            points.append((field, curve, json.dumps({"x": "1", "y": "1"})))  # mostly off the curve
    return points


def _halve(h, points):
    """Every method in json, and the text rendering of ``auto``."""
    for field, curve, point in points:
        for method, output in [(m, "json") for m in cli._HALVERS] + [("auto", "text")]:
            _cli(h, ["halve", "--field", field, "--curve", curve, "--point", point,
                     "--method", method, "--output", output])


def _order(h, points):
    for field, curve, point in points:
        for output in _OUTPUTS:
            _cli(h, ["order", "--field", field, "--curve", curve, "--point", point,
                     "--output", output])


def _iso(h):
    for field, kind, params in _ISO_ARGS:
        for output in _OUTPUTS:
            _cli(h, ["iso", "--field", field, "--kind", kind, *_flags(params), "--output", output])


def _census_examples_help(h):
    for k in range(1, 5):
        for order in ("4", "8"):
            argv = ["census", "--field", BinaryField(k).descriptor, "--order", order]
            for extra in ([], ["--table"], ["--output", "text"]):
                _cli(h, argv + extra)
    for output in _OUTPUTS:
        _cli(h, ["verify-examples", "--output", output])
    for command in ([], ["family"], ["halve"], ["order"], ["iso"], ["census"], ["verify-examples"]):
        _cli(h, command + ["--help"])


_USAGE_ERRORS = [
    [],  # no command
    ["bogus-command"],
    ["--output", "json", "family"],  # a leading option
    ["family", "--field", "Fp:7"],  # --family missing
    ["halve", "--curve", "{}", "--point", "{}", "--what"],
    ["halve", "--curve", "{}", "--point", "{}", "--what", "x", "y"],
    ["verify-examples", "extra"],
    ["order", "--field", "Fp:7", "--curve", "{}", "--point", "{}", "--output", "xml"],
    ["census", "--field", "F2k:2:7", "--order", "6"],
    ["census", "--field", "F2k:2:7", "--order", "x"],
    ["iso", "--field", "Q", "--kind"],  # a flag without its value
]


def _cli_errors(h):
    for argv in _USAGE_ERRORS:
        _cli(h, argv, with_stderr=True)


_C7 = json.dumps({"field": "Fp:7", "model": "cubic", "alpha": "0", "p": "0", "q": "1"})  # g irreducible
_S7 = json.dumps({"field": "Fp:7", "model": "cubic", "alpha": "0", "p": "0", "q": "6"})  # g splits
_INFINITY = json.dumps("infinity")
_INPUT_ERRORS = [
    ["family", "--field", "Fp:7", "--family", "e6", "--t", "2/x"],  # a malformed literal
    ["family", "--field", "Q", "--family", "e6", "--t", "1" * 4301],  # one digit over the cap
    ["family", "--field", "F2k:3:b", "--family", "e8char2", "--t", "0xZZ"],
    ["family", "--field", "Fp:9", "--family", "e6", "--t", "2"],  # p not prime
    ["family", "--field", "F2k:2:5", "--family", "e8char2", "--t", "2"],  # x^2 + 1 reducible
    ["family", "--field", "Q", "--family", "e8", "--t", "0"],
    ["family", "--field", "Q", "--family", "e4", "--a", "1", "--b", "2"],  # a^2 + 4b a square
    ["iso", "--field", "Fp:7", "--kind", "e4", "--a", "1"],  # --b --c --d missing
    ["halve", "--curve", _C7, "--point", json.dumps({"x": "1", "y": "1"})],  # off the curve
    ["halve", "--curve", _C7, "--point", json.dumps({"x": "1", "y": "3"}), "--method", "split"],
    ["halve", "--curve", _S7, "--point", json.dumps({"x": "0", "y": "0"}), "--method", "rT"],  # W3
    ["halve", "--curve", _S7, "--point", _INFINITY],
    ["halve", "--curve", _C7, "--point", json.dumps({"x": "1"})],
    ["halve", "--curve", json.dumps({"field": "Fp:7", "alpha": "0", "p": "0", "q": "0"}),
     "--point", _INFINITY],  # singular
    ["halve", "--curve", json.dumps({"field": "Fp:7", "model": "edwards"}), "--point", _INFINITY],
    ["order", "--field", "Fp:13", "--curve", _C7, "--point", _INFINITY],  # field mismatch
    ["order", "--field", "Fq:7", "--curve", _C7, "--point", _INFINITY],
    ["order", "--field", "Fp:7", "--curve", "[" * 100000, "--point", _INFINITY],  # nested too deep
]


def _cli_input_errors(h):
    for argv in _INPUT_ERRORS:
        assert _cli(h, argv, with_stderr=True)[0] == 2, argv


@pytest.fixture(scope="module")
def digests():
    """Every group's digest, computed once for the module."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")  # --help wraps to the terminal's width
        hs = {name: hashlib.sha256() for name in DIGESTS}
        _fp_queries(hs["fp_queries"])
        _family_sweep(hs["family_sweep"])
        points = _family_calls(hs["family"])
        _halve(hs["halve"], points)
        _order(hs["order"], points)
        _iso(hs["iso"])
        _census_examples_help(hs["census_examples_help"])
        _cli_errors(hs["cli_errors"])
        _cli_input_errors(hs["cli_input_errors"])
    return {name: h.hexdigest() for name, h in hs.items()}


@pytest.mark.parametrize("group", DIGESTS)
def test_outputs_are_byte_identical(digests, group):
    assert digests[group] == DIGESTS[group]
