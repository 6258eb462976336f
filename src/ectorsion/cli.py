"""Command-line front-end: construction, halving, orders, isomorphism, census.

Exit codes: 0 success (including "not halvable", which is an answer, not an
error) — 1 usage — 2 invalid input (bad parameters, literals, off-curve
points, wrong-case requests) — 3 internal verification failure (a produced
witness or half failed its group-law replay; should be unreachable) — 141
the reader closed standard output early (as after ``| head``), the code a
shell reports for a writer stopped by SIGPIPE.

Time budgets, for the slowest accepted input of each kind, in-process: ``census``
at k = 6 (``--field F2k:6:43``) answers within 5 s per order; ``family``
(e10, e12, e8char2), ``halve`` (auto, rT) and ``iso`` (e4, e8, e8char2) at
p = 2^31 - 1 and over GF(2^20), and ``halve`` (auto, rT) over Q at a point
with parts of about 3,700 digits, within 1 s a call (``tests/test_budgets.py``);
``order`` at p = 2^31 - 1 and over GF(2^20) within 1 s a call (``tests/test_cli.py``).

An option value may be a negative literal: ``--T -3/4`` reads as ``--T=-3/4``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import List, Optional, Sequence, Tuple

from .census import sigma_char2, verify_f3_example, verify_f4_example
from .curve import curve_from_json, point_from_json, point_to_json
from .errors import Error, InvalidParams, VerificationError
from .families import (
    FAMILY_NAMES,
    e4_new,
    e4char2_new,
    e6_new,
    e8char2_new,
    e8_new,
    e10_new,
    e12_new,
    iso_e4,
    iso_e8,
    iso_e8char2,
)
from .field import Field, field_from_descriptor
from .halving import halve, halve_char2, halve_quadext, halve_rT, halve_split

_FAMILY_PARAMS = {
    "e4": ("a", "b"),
    "e6": ("t",),
    "e8": ("t",),
    "e10": ("u",),
    "e12": ("T",),
    "e4char2": ("gamma",),
    "e8char2": ("t",),
}

_ISO_PARAMS = {"e4": ("a", "b", "c", "d"), "e8": ("s", "t"), "e8char2": ("s", "t")}

# Each table's parameter names, once each, in order: the subcommand's flags.
_FAMILY_FLAGS, _ISO_FLAGS = (
    tuple(dict.fromkeys(n for names in params.values() for n in names))
    for params in (_FAMILY_PARAMS, _ISO_PARAMS)
)

_FAMILY_CTORS = {
    "e4": e4_new,
    "e6": e6_new,
    "e8": e8_new,
    "e10": e10_new,
    "e12": e12_new,
    "e4char2": e4char2_new,
    "e8char2": e8char2_new,
}

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
def _build_parser() -> _Parser:
    """The one parser of the process, built on first use and shared by every
    ``main`` call: parsing leaves it unchanged, ``prog`` is fixed, every default
    is immutable and each help formatter reads the terminal width anew."""
    p = _Parser(
        prog="ectorsion",
        description="Command-line front-end: construction, halving, orders, isomorphism, census.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--output", choices=("json", "text"), default="json")

    fam = sub.add_parser("family", help="construct a family instance with witnesses")
    fam.add_argument("--field", required=True)
    fam.add_argument("--family", required=True, choices=FAMILY_NAMES)
    for flag in _FAMILY_FLAGS:
        fam.add_argument(f"--{flag}")
    common(fam)

    hal = sub.add_parser("halve", help="compute all rational halves of a point")
    hal.add_argument("--field")
    hal.add_argument("--curve", required=True, help="curve JSON")
    hal.add_argument("--point", required=True, help="point JSON")
    hal.add_argument("--method", choices=tuple(_HALVERS), default="auto")
    common(hal)

    order = sub.add_parser("order", help="exact order of a point")
    order.add_argument("--field")
    order.add_argument("--curve", required=True)
    order.add_argument("--point", required=True)
    order.add_argument(
        "--cap",
        type=int,
        help="report null when the order exceeds CAP; over a finite field this "
        "filters the answer and does not bound the work, over Q at most "
        "min(CAP, 12) additions run (no rational torsion order exceeds 12)",
    )
    common(order)

    iso = sub.add_parser("iso", help="test family parameters for isomorphism")
    iso.add_argument("--field", required=True)
    iso.add_argument("--kind", required=True, choices=tuple(_ISO_PARAMS))
    for flag in _ISO_FLAGS:
        iso.add_argument(f"--{flag}")
    common(iso)

    cen = sub.add_parser("census", help="count iso classes with an order-N point")
    cen.add_argument("--field", required=True)
    cen.add_argument("--order", required=True, type=int, choices=(4, 8))
    cen.add_argument("--table", action="store_true", help="render as an aligned table")
    common(cen)

    ver = sub.add_parser("verify-examples", help="replay the F_3 and F_4 worked examples")
    common(ver)
    return p


def _load_curve_and_field(args) -> Tuple[object, Field]:
    field = field_from_descriptor(args.field) if args.field else None
    curve = curve_from_json(json.loads(args.curve), field)
    return curve, curve.field


def _cmd_family(args) -> dict:
    field = field_from_descriptor(args.field)
    wanted = _FAMILY_PARAMS[args.family]
    supplied = {k: v for k in _FAMILY_FLAGS if (v := getattr(args, k)) is not None}
    extra = set(supplied) - set(wanted)
    if extra:
        raise InvalidParams(f"family {args.family} does not take {sorted(extra)}")
    missing = [k for k in wanted if k not in supplied]
    if missing:
        raise InvalidParams(f"family {args.family} needs --{' --'.join(missing)}")
    params = [field.parse_element(supplied[k]) for k in wanted]
    inst = _FAMILY_CTORS[args.family](field, *params)
    return inst.to_json_dict()


def _cmd_halve(args) -> dict:
    curve, field = _load_curve_and_field(args)
    P = point_from_json(field, json.loads(args.point))
    return _HALVERS[args.method](curve, P).to_json_dict()


def _cmd_order(args) -> dict:
    curve, field = _load_curve_and_field(args)
    P = point_from_json(field, json.loads(args.point))
    n = curve.order_of(P, cap=args.cap)
    out = {"point": point_to_json(P), "order": n}
    if args.cap is not None:
        out["cap"] = args.cap
    return out


def _require_iso_args(args) -> List[str]:
    names = _ISO_PARAMS[args.kind]
    vals = []
    for n in names:
        v = getattr(args, n)
        if v is None:
            raise InvalidParams(f"iso --kind {args.kind} needs --{n}")
        vals.append(v)
    for n in _ISO_FLAGS:
        if n not in names and getattr(args, n) is not None:
            raise InvalidParams(f"iso --kind {args.kind} does not take --{n}")
    return vals


def _cmd_iso(args) -> dict:
    field = field_from_descriptor(args.field)
    params = [field.parse_element(v) for v in _require_iso_args(args)]
    if args.kind == "e4":
        u = iso_e4(field, *params)
        return {
            "kind": "e4",
            "isomorphic": u is not None,
            "u": None if u is None else field.format_element(u),
        }
    ok = (iso_e8 if args.kind == "e8" else iso_e8char2)(field, *params)
    return {"kind": args.kind, "isomorphic": ok}


def _cmd_census(args) -> dict:
    field = field_from_descriptor(args.field)
    report = sigma_char2(field, args.order)
    return report.to_json_dict()


def _census_table(d: dict) -> str:
    headers = ("field", "torsion_order", "family_count", "brute_force_count", "agree")
    row = [str(d[h]) for h in headers]
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
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "family":
            out = _cmd_family(args)
        elif args.command == "halve":
            out = _cmd_halve(args)
        elif args.command == "order":
            out = _cmd_order(args)
        elif args.command == "iso":
            out = _cmd_iso(args)
        elif args.command == "census":
            out = _cmd_census(args)
        else:
            out = _cmd_verify_examples(args)
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
        print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
