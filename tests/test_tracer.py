"""perfbench/spans.py instruments the package by name, in place.

A kernel or curve function that it wraps and that is renamed or dropped
would only show up in a traced benchmark run; this test makes it show up
here.  The tracer rebinds names for the whole process, so it runs in a
subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import ectorsion, spans

tr = spans.install(ectorsion)
for mod, names in spans.SPAN_FUNCTIONS.items():
    for name in names:
        assert callable(getattr(getattr(ectorsion, mod), name, None)), (mod, name)
for cls, meth, _ in spans.SPAN_METHODS:
    assert meth in vars(getattr(ectorsion.curve, cls)), (cls, meth)
for mod, cls, meth, _ in spans.COUNT_METHODS:
    assert meth in vars(getattr(getattr(ectorsion, mod), cls)), (mod, cls, meth)
for mod, name, _ in spans.COUNT_FUNCTIONS:
    assert callable(getattr(getattr(ectorsion, mod), name, None)), (mod, name)
# Every family constructor is wrapped, also where the CLI's tables call it.
ctors = ectorsion.families.FAMILIES.values()
assert sorted(f.__wrapped__.__name__ for f in ctors) == sorted(spans.CONSTRUCTORS), list(ctors)
assert all(hasattr(f, "__wrapped__") for f in ectorsion.cli._ISOS.values())

p = 2**31 - 1  # p = 3 mod 4: y = rhs^((p+1)/4) when rhs is a square
F = ectorsion.PrimeField(p)
E = ectorsion.CubicCurve(F, 0, 1, 3)  # y^2 = x (x^2 + x + 3)
x = next(x for x in range(2, 100) if pow(E.rhs(F(x)).value, (p - 1) // 2, p) == 1)
P = ectorsion.Point(F(x), F(pow(E.rhs(F(x)).value, (p + 1) // 4, p)))
assert E.order_of(P) > 12
assert tr.counts["curve.contains"] > 0  # the boundary's point check is still counted

F7 = ectorsion.PrimeField(7)
E7 = ectorsion.CubicCurve(F7, 0, 0, 1)  # y^2 = x (x^2 + 1), x^2 + 1 irreducible mod 7
assert E7.g.irreducible()
P = E7.double(next(Q for Q in E7.full_group() if not Q.is_infinity and Q.y))
assert ectorsion.halve(E7, P).criterion == "quadext"

sweeps = [len(ectorsion.census.family_sweep(ectorsion.PrimeField(13), N)) for N in (4, 8)]
ctor_spans = [tr.names.count(f"families.e{N}_new") for N in (4, 8)]

before = tr.counts["field.prime.mul"]
a, b = F7(3), F7(5)
products = [a * b, b * a, a * a, 2 * a, a * 3, -4 * b, a * ectorsion.PrimeField(7)(6)]
counted = tr.counts["field.prime.mul"] - before
m = spans.metrics(tr, ectorsion.InvalidParams)
print(m["kernel.cubic_add_calls"], m["quadratic.ext_sqrt_calls"], m["halving.quadext_calls"],
      len(products), counted, *sweeps, *ctor_spans)
"""


def test_benchmark_tracer_wraps_names_that_exist():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    adds, ext_sqrts, quadexts, products, counted, e4s, e8s, e4_spans, e8_spans = map(
        int, run.stdout.split())
    assert adds > 0  # the tracer counts the kernel's additions
    assert ext_sqrts > 0 and quadexts > 0  # and sees the halving route through K_g
    assert counted == products  # every F_p product, element or int operand, goes through _mul
    # family_sweep calls its constructors through names the tracer rebinds
    assert 0 < e4s <= e4_spans and 0 < e8s <= e8_spans
