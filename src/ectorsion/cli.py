"""Command-line front-end: construction, halving, orders, isomorphism, census.

Exit codes: 0 success (including "not halvable", which is an answer, not an
error) — 1 usage — 2 invalid input (bad parameters, literals, off-curve
points, wrong-case requests) — 3 internal verification failure (a produced
witness or half failed its group-law replay; should be unreachable) — 141
the reader closed standard output early (as after ``| head``), the code a
shell reports for a writer stopped by SIGPIPE.

``order`` prints a point's exact order: an integer over F_p and GF(2^k),
and null only for a point of infinite order over Q.

Time budgets, for the slowest accepted input of each kind, in-process: ``census``
at k = 6 (``--field F2k:6:43``) answers within 5 s per order; ``family``
(e10, e12, e8char2), ``halve`` (auto, rT) and ``iso`` (e4, e8, e8char2) at
p = 2^31 - 1 and over GF(2^20), ``family`` (e4, e6, e8, e10) over Q at a
4,300-digit integer parameter, ``halve`` (auto, rT) over Q at a point with
parts of about 3,700 digits, and ``order`` over Q at a point of infinite
order with parts of about 300 digits, within 1 s a call
(``tests/test_budgets.py``); ``order`` at p = 2^31 - 1 and over GF(2^20)
within 1 s a call (``tests/test_cli.py``).

The flags of ``family`` and ``iso`` are the parameters after ``field`` of
the functions in ``families.FAMILIES`` and ``_ISOS``, read from their
signatures.  ``--field`` and a curve JSON's own ``"field"`` must agree.

An option value may be a negative literal: ``--T -3/4`` reads as ``--T=-3/4``.

The parser is built once a process, each command's flags with it: the
``Action`` objects ``add_argument`` returned.  A well-formed call of a command
is read from these (``_read``) to the namespace the top-level parser gives;
argparse reads any other, so it alone writes help and refusals.
JSON output is ``json.dumps(..., indent=2)`` byte for byte, written through
json's C string encoder.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import re
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .census import sigma_char2, verify_f3_example, verify_f4_example
from .curve import curve_from_json, point_from_json, point_to_json
from .errors import Error, InvalidParams, VerificationError
from .families import FAMILIES, FAMILY_NAMES, iso_e4, iso_e8, iso_e8char2
from .field import Field, field_from_descriptor
from .halving import halve, halve_char2, halve_quadext, halve_rT, halve_split

_ISOS = {"e4": iso_e4, "e8": iso_e8, "e8char2": iso_e8char2}

# A function's parameters after ``field``, by name, for each entry of a table;
# then each table's names, once each, in order: the subcommand's flags.
_FAMILY_PARAMS, _ISO_PARAMS = (
    {name: tuple(inspect.signature(fn).parameters)[1:] for name, fn in table.items()}
    for table in (FAMILIES, _ISOS)
)
_FAMILY_FLAGS, _ISO_FLAGS = (
    tuple(dict.fromkeys(n for names in params.values() for n in names))
    for params in (_FAMILY_PARAMS, _ISO_PARAMS)
)

_HALVERS = {
    "auto": halve,
    "split": halve_split,
    "quadext": halve_quadext,
    "rT": halve_rT,
    "char2": halve_char2,
}


EXIT_BROKEN_PIPE = 141

_NEGATIVE_LITERAL = re.compile(r"-\d")


def _join_negative_values(argv: Sequence[str]) -> List[str]:
    """``--opt -3/4`` as ``--opt=-3/4``: argparse reads only ``-3`` and ``-0.5``
    style tokens as negative numbers and would take ``-3/4`` for an option."""
    out: List[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE_LITERAL.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@functools.cache
def _build_parser() -> Tuple[_Parser, Dict[str, Dict[str, argparse.Action]]]:
    """The one parser of the process and each command's flags, the ``Action``
    objects its ``add_argument`` returned, built on first use and shared by
    every ``main`` call: parsing leaves them unchanged, ``prog`` is fixed, every
    default is immutable and each help formatter reads the terminal width anew."""
    p = _Parser(
        prog="ectorsion",
        description="Command-line front-end: construction, halving, orders, isomorphism, census.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    tables: Dict[str, Dict[str, argparse.Action]] = {}

    def add(name, **kwargs):  # the new subparser's add_argument, which also fills its table
        sp = sub.add_parser(name, **kwargs)
        table = tables[name] = {}

        def flag(option, **kw):
            table[option] = sp.add_argument(option, **kw)
        return flag

    def common(flag):
        flag("--output", choices=("json", "text"), default="json")

    fam = add("family", help="construct a family instance with witnesses")
    fam("--field", required=True)
    fam("--family", required=True, choices=FAMILY_NAMES)
    for name in _FAMILY_FLAGS:
        fam(f"--{name}")
    common(fam)

    hal = add("halve", help="compute all rational halves of a point")
    hal("--field")
    hal("--curve", required=True, help="curve JSON")
    hal("--point", required=True, help="point JSON")
    hal("--method", choices=tuple(_HALVERS), default="auto")
    common(hal)

    order = add(
        "order", help="exact order of a point (null only for infinite order over Q)")
    order("--field")
    order("--curve", required=True)
    order("--point", required=True)
    common(order)

    iso = add("iso", help="test family parameters for isomorphism")
    iso("--field", required=True)
    iso("--kind", required=True, choices=tuple(_ISO_PARAMS))
    for name in _ISO_FLAGS:
        iso(f"--{name}")
    common(iso)

    cen = add("census", help="count iso classes with an order-N point")
    cen("--field", required=True)
    cen("--order", required=True, type=int, choices=(4, 8))
    cen("--table", action="store_true", help="render as an aligned table")
    common(cen)

    common(add("verify-examples", help="replay the F_3 and F_4 worked examples"))
    return p, tables


def _read(table: Dict[str, argparse.Action], argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The values of ``argv[1:]``, a call of command ``argv[0]`` whose flags are
    ``table``, or None unless each token is one of them exactly, as ``--flag
    value``, ``--flag=value`` or a bare flag that takes no value, each value is
    one its flag's ``type`` and ``choices`` accept, and every required flag is
    given.  A value is the next token unless that starts with ``-`` and is no
    negative literal; ``--`` is never one."""
    values = {}
    i, n = 1, len(argv)
    while i < n:
        option, eq, value = argv[i].partition("=")
        action = table.get(option)
        i += 1
        if action is None:
            return None
        if action.nargs == 0:  # store_true
            if eq:
                return None
            values[action.dest] = action.const
            continue
        if not eq:
            if i == n or (argv[i].startswith("-") and not _NEGATIVE_LITERAL.match(argv[i])):
                return None
            value = argv[i]
            i += 1
        elif value == "--":  # argparse drops it and stores []
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    for action in table.values():
        if action.dest not in values:
            if action.required:
                return None
            values[action.dest] = action.default
    return argparse.Namespace(command=argv[0], **values)


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """``argv`` as the top-level parser reads it, SystemExit included: a
    well-formed call of a command from its flags (``_read``), any other argv
    by the top-level parser itself."""
    parser, tables = _build_parser()
    table = tables.get(argv[0]) if argv else None
    args = None if table is None else _read(table, argv)
    return parser.parse_args(_join_negative_values(argv)) if args is None else args


def _curve_and_point(args) -> tuple:
    """The ``--curve`` and ``--point`` of ``halve`` and ``order``, over ``--field`` if given."""
    field = field_from_descriptor(args.field) if args.field else None
    curve = curve_from_json(json.loads(args.curve), field)
    return curve, point_from_json(curve.field, json.loads(args.point))


def _params(field: Field, what: str, wanted: Tuple[str, ...], flags: Tuple[str, ...], args) -> list:
    """The values of the ``wanted`` flags, parsed in ``field``.

    InvalidParams, naming the call as ``what``, when a flag of ``flags`` outside
    ``wanted`` is given, or else when one of ``wanted`` is missing.
    """
    supplied = {k: v for k in flags if (v := getattr(args, k)) is not None}
    extra = [k for k in supplied if k not in wanted]
    if extra:
        raise InvalidParams(f"{what} does not take --{' --'.join(extra)}")
    missing = [k for k in wanted if k not in supplied]
    if missing:
        raise InvalidParams(f"{what} needs --{' --'.join(missing)}")
    return [field.parse_element(supplied[k]) for k in wanted]


def _cmd_family(args) -> dict:
    field = field_from_descriptor(args.field)
    params = _params(field, f"family {args.family}", _FAMILY_PARAMS[args.family], _FAMILY_FLAGS, args)
    return FAMILIES[args.family](field, *params).to_json_dict()


def _cmd_halve(args) -> dict:
    curve, P = _curve_and_point(args)
    return _HALVERS[args.method](curve, P).to_json_dict()


def _cmd_order(args) -> dict:
    curve, P = _curve_and_point(args)
    return {"point": point_to_json(P), "order": curve.order_of(P)}


def _cmd_iso(args) -> dict:
    field = field_from_descriptor(args.field)
    params = _params(field, f"iso --kind {args.kind}", _ISO_PARAMS[args.kind], _ISO_FLAGS, args)
    found = _ISOS[args.kind](field, *params)
    if args.kind != "e4":
        return {"kind": args.kind, "isomorphic": found}
    u = None if found is None else field.format_element(found)  # iso_e4's scaling, or None
    return {"kind": "e4", "isomorphic": found is not None, "u": u}


def _cmd_census(args) -> dict:
    field = field_from_descriptor(args.field)
    report = sigma_char2(field, args.order)
    return report.to_json_dict()


def _census_table(d: dict) -> str:
    headers = tuple(d)
    row = [str(v) for v in d.values()]
    widths = [max(len(h), len(v)) for h, v in zip(headers, row)]
    line1 = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    line2 = "  ".join(v.ljust(w) for v, w in zip(row, widths))
    return line1 + "\n" + line2


def _cmd_verify_examples(args) -> dict:
    f3 = verify_f3_example()
    f4 = verify_f4_example()
    if not (f3["ok"] and f4["ok"]):
        raise VerificationError("a worked example failed to replay")
    return {"f3": f3, "f4": f4, "ok": True}


_COMMANDS = {
    "family": _cmd_family,
    "halve": _cmd_halve,
    "order": _cmd_order,
    "iso": _cmd_iso,
    "census": _cmd_census,
    "verify-examples": _cmd_verify_examples,
}


def _render_text(obj, prefix: str = "") -> List[str]:
    if isinstance(obj, dict):
        lines: List[str] = []
        for k, v in obj.items():
            lines += _render_text(v, f"{prefix}{k}.")
        return lines
    if isinstance(obj, list):
        lines = []
        for i, v in enumerate(obj):
            lines += _render_text(v, f"{prefix}{i}.")
        return lines
    return [f"{prefix.rstrip('.')}: {obj}"]


_STR = json.encoder.encode_basestring_ascii
_CONSTANTS = {True: "true", False: "false", None: "null"}


def _json(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for dicts with str keys,
    lists, tuples, strs, ints, bools, None and floats; ``indent`` is the
    newline and indent that close ``obj``.

    ``indent`` makes ``json.dumps`` take its pure-Python encoder, and
    ``json.dumps`` of a lone int or bool builds an encoder per call; here
    strs go through the C function both encoders use, and ints through
    ``int.__repr__``, as in both encoders.
    """
    if isinstance(obj, str):
        return _STR(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{_STR(k)}: {_json(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in obj]) + indent + "]"
    if obj is None or isinstance(obj, bool):
        return _CONSTANTS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    return json.dumps(obj)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        code = _main(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # Send the rest of the output nowhere so the interpreter's final
        # flush of stdout does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


def _main(argv: Sequence[str]) -> int:
    try:
        args = _parse(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        out = _COMMANDS[args.command](args)
    except VerificationError as e:
        sys.stderr.write(f"verification failure: {e}\n")
        return 3
    except (Error, ValueError, ZeroDivisionError, KeyError, RecursionError) as e:
        # RecursionError: json.loads on an argument nested too deeply.
        sys.stderr.write(f"error: {e}\n")
        return 2
    if args.command == "census" and args.table:
        print(_census_table(out))
    elif args.output == "text":
        print("\n".join(_render_text(out)))
    else:
        print(_json(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
