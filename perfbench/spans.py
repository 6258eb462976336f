"""Run-time instrumentation of ``ectorsion`` for the traced benchmark run.

``install`` wraps the public entry points of each module in place and leaves
the source untouched.  Coarse boundaries record spans (name, start, end,
parent, outcome) in flat in-memory arrays; the outcome is the class of an
exception raised or, for the halving criteria, whether there were halves.
Hot boundaries (field operators, ``Field.__eq__``, curve ``add`` and
``contains``, ``kernel.cubic_add``) only count calls.  Every binding of a
wrapped function is replaced, including the names other modules imported and
the values of module-level dicts such as the CLI's constructor table.
``metrics`` turns what was recorded into the per-layer numbers; a span's self
time is its duration minus that of its direct children.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

MODULES = ("field", "quadratic", "curve", "halving", "families", "census", "kernel", "cli")

CONSTRUCTORS = ("e4_new", "e6_new", "e8_new", "e10_new", "e12_new", "e4char2_new", "e8char2_new")
CRITERIA = ("split", "quadext", "rT", "char2")

# Module-level functions recorded as spans, by module.
SPAN_FUNCTIONS = {
    "cli": ("main",),
    "census": ("sigma_char2", "family_sweep"),
    "families": CONSTRUCTORS + ("iso_e4", "iso_e8", "iso_e8char2"),
    "halving": ("halve",) + tuple(f"halve_{c}" for c in CRITERIA),
    "quadratic": ("ext_sqrt",),
    "kernel": ("cubic_order", "cubic_smul", "cubic_points", "cubic_all_orders", "cubic_double_all"),
}
# Methods recorded as spans: (class, method, span name).
SPAN_METHODS = (
    ("_CurveBase", "order_of", "curve.order_of"),
    ("CubicCurve", "order_of", "curve.order_of"),
    ("_CurveBase", "scalar_mul", "curve.scalar_mul"),
    ("CubicCurve", "scalar_mul", "curve.scalar_mul"),
    ("CubicCurve", "full_group", "curve.full_group"),
    ("Char2Curve", "full_group", "curve.full_group"),
)
# Hot methods that only count: (module, class, method, counter name).
COUNT_METHODS = (
    ("field", "BinaryField", "_mul", "field.binary.mul"),
    ("field", "BinaryField", "_div", "field.binary.div"),
    ("field", "PrimeField", "_mul", "field.prime.mul"),
    ("field", "Rationals", "_mul", "field.rational.mul"),
    ("field", "BinaryField", "__eq__", "field.eq"),
    ("field", "PrimeField", "__eq__", "field.eq"),
    ("field", "Rationals", "__eq__", "field.eq"),
    ("field", "BinaryField", "sqrt", "field.sqrt"),
    ("field", "PrimeField", "sqrt", "field.sqrt"),
    ("field", "Rationals", "sqrt", "field.sqrt"),
    ("field", "BinaryField", "solve_artin_schreier", "field.artin_schreier"),
    ("curve", "Char2Curve", "add", "curve.char2.add"),
    ("curve", "CubicCurve", "add", "curve.cubic.add"),
    ("curve", "Char2Curve", "contains", "curve.contains"),
    ("curve", "CubicCurve", "contains", "curve.contains"),
)
COUNT_FUNCTIONS = (("kernel", "cubic_add", "kernel.cubic_add"),)


class Tracer:
    """Spans in flat arrays plus a counter; one per traced process."""

    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.outcomes = []
        self.stack = []
        self.counts = Counter()

    def span(self, name, fn, classify=None):
        names, starts, ends, parents, outcomes, stack = (
            self.names, self.starts, self.ends, self.parents, self.outcomes, self.stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            outcomes.append(None)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                outcomes[i] = type(e)
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if classify is not None:
                outcomes[i] = classify(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def _rebind(package, original, wrapped):
    """Point every module-level binding (and dict value) of ``original`` at ``wrapped``."""
    for mod in [package] + [getattr(package, m) for m in MODULES]:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapped)
            elif isinstance(value, dict) and not name.startswith("__"):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapped


def install(package):
    """Instrument an imported ``ectorsion`` package; returns the Tracer."""
    for m in MODULES:
        __import__(f"{package.__name__}.{m}")
    tr = Tracer()
    for mod_name, funcs in SPAN_FUNCTIONS.items():
        mod = getattr(package, mod_name)
        for fname in funcs:
            fn = getattr(mod, fname)
            classify = None
            if fname.startswith("halve_"):
                classify = lambda r: bool(r.halves)  # noqa: E731
            _rebind(package, fn, tr.span(f"{mod_name}.{fname}", fn, classify))
    curve = package.curve
    for cls_name, meth, span_name in SPAN_METHODS:
        cls = getattr(curve, cls_name)
        setattr(cls, meth, tr.span(span_name, vars(cls)[meth]))
    for mod_name, cls_name, meth, counter in COUNT_METHODS:
        cls = getattr(getattr(package, mod_name), cls_name)
        setattr(cls, meth, tr.count(counter, vars(cls)[meth]))
    for mod_name, fname, counter in COUNT_FUNCTIONS:
        fn = getattr(getattr(package, mod_name), fname)
        _rebind(package, fn, tr.count(counter, fn))
    return tr


def metrics(tr, invalid_params):
    """Per-layer metrics from one traced run (see perfbench/README.md)."""
    n = len(tr.names)
    dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if tr.parents[i] >= 0:
            child[tr.parents[i]] += dur[i]
    self_s, calls = Counter(), Counter()
    for i, name in enumerate(tr.names):
        self_s[name] += dur[i] - child[i]
        calls[name] += 1

    def module_self(mod):
        return sum(v for k, v in self_s.items() if k.startswith(mod + "."))

    ctor_names = {f"families.{c}" for c in CONSTRUCTORS}
    ctor_calls = sum(calls[c] for c in ctor_names)
    witness_order_s = 0.0
    rejected = crit_calls = halvable = 0
    crit_names = {f"halving.halve_{c}" for c in CRITERIA}
    for i, name in enumerate(tr.names):
        if name in ctor_names and isinstance(tr.outcomes[i], type) and issubclass(tr.outcomes[i], invalid_params):
            rejected += 1
        elif name == "curve.order_of" and tr.parents[i] >= 0 and tr.names[tr.parents[i]] in ctor_names:
            witness_order_s += dur[i]
        elif name in crit_names:
            crit_calls += 1
            halvable += tr.outcomes[i] is True
    c = tr.counts
    adds = c["curve.char2.add"] + c["curve.cubic.add"]
    out = {
        "field.binary.mul_calls": c["field.binary.mul"],
        "field.binary.div_calls": c["field.binary.div"],
        "field.field_eq_calls": c["field.eq"],
        "field.artin_schreier_calls": c["field.artin_schreier"],
        "field.prime.mul_calls": c["field.prime.mul"],
        "field.rational.mul_calls": c["field.rational.mul"],
        "field.sqrt_calls": c["field.sqrt"],
        "curve.char2.add_calls": c["curve.char2.add"],
        "curve.cubic.add_calls": c["curve.cubic.add"],
        "curve.checks_per_add": c["curve.contains"] / adds if adds else 0.0,
        "curve.order_of_self_s": self_s["curve.order_of"],
        "quadratic.ext_sqrt_calls": calls["quadratic.ext_sqrt"],
        "quadratic.ext_sqrt_self_s": self_s["quadratic.ext_sqrt"],
        "halving.self_s": module_self("halving"),
        "halving.halvable_ratio": halvable / crit_calls if crit_calls else 0.0,
        "families.construct_calls": ctor_calls,
        "families.self_s": module_self("families"),
        "families.witness_order_s": witness_order_s,
        "families.rejected_ratio": rejected / ctor_calls if ctor_calls else 0.0,
        "kernel.cubic_order_calls": calls["kernel.cubic_order"],
        "kernel.cubic_order_self_s": self_s["kernel.cubic_order"],
        "kernel.cubic_add_calls": c["kernel.cubic_add"],
        "kernel.cubic_smul_calls": calls["kernel.cubic_smul"],
        "kernel.self_s": module_self("kernel"),
        "cli.main_calls": calls["cli.main"],
        "cli.self_s": self_s["cli.main"],
        "census.sigma_char2_self_s": self_s["census.sigma_char2"],
        "census.family_sweep_self_s": self_s["census.family_sweep"],
    }
    for crit in CRITERIA:
        out[f"halving.{crit}_calls"] = calls[f"halving.halve_{crit}"]
    return out
