"""The three benchmark workloads: seeded task lists, task calls and checks.

A workload is a fixed list of tasks made from a seed by ``generate``.  The
generator uses ``random``, plain integer arithmetic and ``tests/oracles.py``
only, never the library, so the program receives nothing but generated
inputs.  A task is a JSON-able dict; ``digest`` hashes the whole list.

``Runner`` turns each task into one call into the public API (the call is
what gets timed) and afterwards checks the answer against the oracles.  A
task may name an earlier task (``ref``) whose result supplies its input, as a
user who builds a curve and then halves its witness would.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from math import isqrt

sys.path.insert(0, os.path.join(os.getcwd(), "tests"))
import oracles  # noqa: E402  (library-independent reference code)

WORKLOADS = ("char2_census", "fp_sweep", "fp_queries")

# Witness orders each family constructor documents, in witness order.
FAMILY_ORDERS = {
    "e4": (2, 4, 4),
    "e6": (2, 3, 3, 6, 6),
    "e8": (2, 4, 4, 8, 8, 8, 8),
    "e10": (2, 5, 10),
    "e12": (2, 3, 3, 4, 4, 12),
    "e8char2": (2, 4, 8),
}
FAMILY_PARAM = {"e6": "t", "e8": "t", "e10": "u", "e12": "T"}
SWEEP_FAMILY = {4: "e4", 6: "e6", 8: "e8", 10: "e10", 12: "e12"}

# Per-workload sizes; "tiny" is the self-test's.
SIZES = {
    "full": {
        # With k = 2 there are 12 census calls among 1020 tasks, so p99 (10
        # tasks beyond it) is a census call, well clear of the query times.
        "census_k": (2, 3, 4),
        "char2_large_k": (8, 12, 16, 20),
        "char2_queries_per_k": 84,
        "sweep_primes": (5, 97),
        "halve_primes": (5, 31),
        "curves_per_prime": 40,
        "points_per_curve": 8,
        "q_instances_per_family": 40,
        "query_bits": (14, 16),
        "queries": {"order": 50, "family": 300, "halve": 250, "iso_e4": 75, "iso_e8": 75},
    },
    "tiny": {
        "census_k": (3,),
        "char2_large_k": (8,),
        "char2_queries_per_k": 3,
        "sweep_primes": (5, 13),
        "halve_primes": (5, 7),
        "curves_per_prime": 2,
        "points_per_curve": 2,
        "q_instances_per_family": 1,
        "query_bits": (8, 9),
        "queries": {"order": 2, "family": 5, "halve": 2, "iso_e4": 2, "iso_e8": 2},
    },
}


# ---------------------------------------------------------------------------
# Small helpers shared by generator and checks (plain ints and Fractions)
# ---------------------------------------------------------------------------

def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n):
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _nonsquare_mod(v, p):
    """True when v is a nonzero non-square mod p (Euler's criterion)."""
    v %= p
    return v != 0 and pow(v, (p - 1) // 2, p) == p - 1


def _square_q(v):
    v = Fraction(v)
    return v >= 0 and isqrt(v.numerator) ** 2 == v.numerator and isqrt(v.denominator) ** 2 == v.denominator


def _cubic_coeffs(alpha, pp, qq, p=None):
    """(A, B, C) of y^2 = (x - alpha)(x^2 + pp x + qq) = x^3 + A x^2 + B x + C."""
    A, B, C = pp - alpha, qq - alpha * pp, -alpha * qq
    return (A % p, B % p, C % p) if p else (A, B, C)


def _smul(add, n, P):
    acc = oracles.INF
    while n:
        if n & 1:
            acc = add(acc, P)
        P = add(P, P)
        n >>= 1
    return acc


def _order_ok(add, P, n):
    """nP = O and (n/l)P != O for every prime l | n, by the oracle group law."""
    if n < 1 or _smul(add, n, P) is not oracles.INF:
        return False
    return all(_smul(add, n // l, P) is not oracles.INF for l in _prime_factors(n))


def _gf2_irreducibles(k):
    return [m for m in range((1 << k) + 1, 1 << (k + 1), 2) if oracles.gf2_poly_irreducible(m, k)]


def _gf2_first_irreducible(k):
    m = (1 << k) + 1
    while not oracles.gf2_poly_irreducible(m, k):
        m += 2
    return m


def _gf2_trace(a, mod, k):
    acc, v = a, a
    for _ in range(k - 1):
        v = oracles.gf2_mul(v, v, mod, k)
        acc ^= v
    return acc


def _f2k(k, m):
    return f"F2k:{k}:{m:x}"


def _parse_f2k(desc):
    _, k, m = desc.split(":")
    return int(k), int(m, 16)


def _random_fp_curve(rng, p):
    """A random nonsingular (alpha, pp, qq) and an affine point (x, y), y != 0."""
    while True:
        x, y, alpha, pp = (rng.randrange(p) for _ in range(4))
        if x == alpha or y == 0:
            continue
        qq = (y * y * pow(x - alpha, -1, p) - x * x - pp * x) % p
        if (pp * pp - 4 * qq) % p and (alpha * alpha + pp * alpha + qq) % p:
            return (alpha, pp, qq), (x, y)


def _generator_point(rng, p):
    """A random curve over F_p with a cyclic group and a random generator of it.

    The group order comes from counting points, one table lookup per x; a
    random point of a cyclic group of order n generates it with probability
    phi(n)/n, so a few tries per curve suffice; a curve with no
    generator in 16 tries is replaced.
    """
    roots = {y * y % p: y for y in range(1, p)}
    square = bytearray(p)
    for r in roots:
        square[r] = 1
    while True:
        curve, _ = _random_fp_curve(rng, p)
        A, B, C = _cubic_coeffs(*curve, p)
        rhs = [(((x + A) * x + B) * x + C) % p for x in range(p)]
        n = 1 + rhs.count(0) + 2 * sum(map(square.__getitem__, rhs))
        for _ in range(16):
            y = roots.get(rhs[x := rng.randrange(p)])
            if y and _order_ok(lambda U, V: oracles.fp_cubic_add(p, A, B, C, U, V), (x, y), n):
                return curve, (x, y)


def _split(g_p, g_q, p):
    """True when x^2 + g_p x + g_q has its roots in F_p."""
    return not _nonsquare_mod(g_p * g_p - 4 * g_q, p)


def _valid_fp(fam, params, p):
    """The README's validity conditions for a family over F_p."""
    if fam == "e4":
        a, b = params
        return a % p and b % p and _nonsquare_mod(a * a + 4 * b, p)
    (v,) = params
    if fam == "e6":
        return v % p and (v + 4) % p and (2 * v - 1) % p
    if fam == "e8":
        return v % p and (v * v - 1) % p and _nonsquare_mod(2 * v * v - 1, p)
    if fam == "e10":
        return (v % p and (v * v - 1) % p and (v * v + v - 1) % p and (v * v - 4 * v - 1) % p
                and _nonsquare_mod(v * (v * v + v - 1), p))
    return (v % p and (v * v - 1) % p and (v * v + 1) % p and (3 * v * v + 1) % p
            and (3 * v * v - 1) % p and _nonsquare_mod((v * v + 1) * (3 * v * v - 1), p))


def _sweep_count(p, fam):
    """Valid parameters over F_p up to isomorphism, the way family_sweep counts.

    e4 is deduplicated by the class of b/a^2; e8 by its x-coefficient
    P(t) = 2(t^4 + 2t^2 - 1)/(t^2 - 1)^2 up to u^2 = +-1, the rescalings that
    fix the constant term 1; the other families keep every parameter.
    """
    if fam == "e4":
        return len({b * pow(a * a, -1, p) % p for a in range(1, p) for b in range(1, p)
                    if _valid_fp("e4", (a, b), p)})
    vals = [v for v in range(p) if _valid_fp(fam, (v,), p)]
    if fam != "e8":
        return len(vals)
    minus_one_square = not _nonsquare_mod(-1, p)
    keys = set()
    for t in vals:
        t2 = t * t
        c = 2 * (t2 * t2 + 2 * t2 - 1) * pow((t2 - 1) ** 2, -1, p) % p
        keys.add(min(c, -c % p) if minus_one_square else c)
    return len(keys)


def _valid_q(fam, params):
    """The same conditions over Q (the polynomial ones never vanish there)."""
    if fam == "e4":
        a, b = params
        return a and b and not _square_q(a * a + 4 * b)
    (v,) = params
    if fam == "e6":
        return v not in (0, -4, Fraction(1, 2))
    if fam == "e8":
        return v not in (0, 1, -1) and not _square_q(2 * v * v - 1)
    if fam == "e10":
        return v not in (0, 1, -1) and not _square_q(v * (v * v + v - 1))
    return v not in (0, 1, -1) and not _square_q((v * v + 1) * (3 * v * v - 1))


# ---------------------------------------------------------------------------
# Generators: seed -> task list (no library code)
# ---------------------------------------------------------------------------

def fields(workload, size="full"):
    """Field descriptors a workload builds at set-up (before any task runs)."""
    s = SIZES[size]
    if workload == "char2_census":
        out = [_f2k(k, m) for k in s["census_k"] for m in _gf2_irreducibles(k)]
        return out + [_f2k(k, _gf2_first_irreducible(k)) for k in s["char2_large_k"]]
    if workload == "fp_sweep":
        return [f"Fp:{p}" for p in oracles.small_primes(*s["sweep_primes"])] + ["Q"]
    return []


def _gen_char2(rng, s):
    tasks = []
    # Largest field first: the first calls of a fresh process run slower and
    # vary more (memory is still being mapped), and the k = 2 census calls,
    # where task_p99_ms falls, should not be among them.
    for k in sorted(s["census_k"], reverse=True):
        for m in _gf2_irreducibles(k):
            for n in (4, 8):
                tasks.append({"op": "census", "field": _f2k(k, m), "N": n})
    for k in s["char2_large_k"]:
        desc = _f2k(k, _gf2_first_irreducible(k))
        for _ in range(s["char2_queries_per_k"]):
            i = len(tasks)
            tasks.append({"op": "e8char2", "field": desc, "t": rng.randrange(2, 1 << k)})
            tasks.append({"op": "halve_char2", "ref": i})
            tasks.append({"op": "smul_char2", "ref": i, "n": rng.getrandbits(64)})
    return tasks


def _rand_q(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _gen_sweep(rng, s):
    tasks = []
    for n in (4, 6, 8, 10, 12):
        for p in oracles.small_primes(*s["sweep_primes"]):
            tasks.append({"op": "sweep", "p": p, "N": n})
    for p in oracles.small_primes(*s["halve_primes"]):
        seen = set()
        while len(seen) < s["curves_per_prime"]:
            curve, _ = _random_fp_curve(rng, p)
            if curve in seen:
                continue
            alpha = curve[0]
            pts = [P for P in oracles.fp_cubic_points(p, *_cubic_coeffs(*curve, p)) if P[0] != alpha]
            if len(pts) < 2:
                continue
            seen.add(curve)
            tasks.append({"op": "halve", "p": p, "curve": list(curve), "point": [alpha, 0]})
            for _ in range(s["points_per_curve"]):
                P = list(rng.choice(pts))
                tasks.append({"op": "halve", "p": p, "curve": list(curve), "point": P})
                tasks.append({"op": "halve_rT", "p": p, "curve": list(curve), "point": P})
    for fam in ("e4", "e6", "e8", "e10", "e12"):
        for _ in range(s["q_instances_per_family"]):
            while True:
                params = [_rand_q(rng) for _ in range(2 if fam == "e4" else 1)]
                if _valid_q(fam, params):
                    break
            i = len(tasks)
            tasks.append({"op": "family_q", "family": fam, "params": [str(v) for v in params]})
            for w, order in enumerate(FAMILY_ORDERS[fam]):
                if order % 2 == 0:
                    tasks.append({"op": "halve_q", "ref": i, "witness": w})
    return tasks


def _gen_queries(rng, s):
    lo, hi = (1 << b for b in s["query_bits"])
    counts = s["queries"]

    def prime_in(a, b):
        while True:
            n = rng.randrange(a, b)
            if _is_prime(n):
                return n

    def fp_params(fam, p):
        while True:
            params = [rng.randrange(1, p) for _ in range(2 if fam == "e4" else 1)]
            if _valid_fp(fam, params, p):
                return params

    def curve_arg(curve):
        return json.dumps(dict(zip(("alpha", "p", "q"), map(str, curve))))

    def point_arg(P):
        return json.dumps({"x": str(P[0]), "y": str(P[1])})

    tasks = []
    # Order queries get one prime per stratum of [lo, hi) and a point that
    # generates its curve's group: iterated addition costs one step per unit
    # of order, so this keeps their total cost the same for every seed.
    n_order = counts["order"]
    for i in range(n_order):
        p = prime_in(lo + (hi - lo) * i // n_order, lo + (hi - lo) * (i + 1) // n_order)
        curve, P = _generator_point(rng, p)
        tasks.append({"op": "cli", "kind": "order", "p": p, "curve": curve, "point": list(P),
                      "argv": ["order", "--field", f"Fp:{p}", "--curve", curve_arg(curve),
                               "--point", point_arg(P)]})
    fams = ("e4", "e6", "e8", "e10", "e12")
    for i in range(counts["family"]):
        fam, p = fams[i % len(fams)], prime_in(lo, hi)
        params = fp_params(fam, p)
        names = ("a", "b") if fam == "e4" else (FAMILY_PARAM[fam],)
        argv = ["family", "--family", fam, "--field", f"Fp:{p}"]
        for name, v in zip(names, params):
            argv += [f"--{name}", str(v)]
        tasks.append({"op": "cli", "kind": "family", "family": fam, "p": p, "params": params,
                      "argv": argv})
    for i in range(counts["halve"]):
        p = prime_in(lo, hi)
        curve, P = _random_fp_curve(rng, p)
        half = None
        if i % 2:
            # Every other point is a double, so it is halvable with a known half.
            D = oracles.fp_cubic_add(p, *_cubic_coeffs(*curve, p), P, P)
            if D is not oracles.INF and D[1] != 0:
                half, P = list(P), D
        for method in ("auto", "rT"):
            tasks.append({"op": "cli", "kind": "halve", "p": p, "curve": curve, "point": list(P),
                          "half": half, "pair": len(tasks) - 1 if method == "rT" else None,
                          "argv": ["halve", "--field", f"Fp:{p}", "--curve", curve_arg(curve),
                                   "--point", point_arg(P), "--method", method]})
    for i in range(counts["iso_e4"]):
        p = prime_in(lo, hi)
        a, b = fp_params("e4", p)
        if i % 2:
            u = rng.randrange(1, p)
            c, d = u * a % p, u * u * b % p
        else:
            while True:
                c, d = rng.randrange(1, p), rng.randrange(1, p)
                if (c * c + 4 * d) % p:
                    break
        tasks.append({"op": "cli", "kind": "iso_e4", "p": p, "params": [a, b, c, d],
                      "argv": ["iso", "--kind", "e4", "--field", f"Fp:{p}", "--a", str(a),
                               "--b", str(b), "--c", str(c), "--d", str(d)]})
    for i in range(counts["iso_e8"]):
        p = prime_in(lo, hi)
        (s_,) = fp_params("e8", p)
        t = (s_, p - s_, None)[i % 3]
        if t is None:
            (t,) = fp_params("e8", p)
        tasks.append({"op": "cli", "kind": "iso_e8", "p": p, "params": [s_, t],
                      "argv": ["iso", "--kind", "e8", "--field", f"Fp:{p}", "--s", str(s_),
                               "--t", str(t)]})
    return tasks


def generate(workload, seed, size="full"):
    rng = random.Random(f"{workload}:{seed}")
    gen = {"char2_census": _gen_char2, "fp_sweep": _gen_sweep, "fp_queries": _gen_queries}
    return gen[workload](rng, SIZES[size])


def digest(tasks):
    blob = json.dumps(tasks, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Calls and checks
# ---------------------------------------------------------------------------

class Runner:
    """Prepares each task's call into ``ectorsion`` and checks its answer.

    ``E`` is the imported package; every function is looked up on it (or on
    its submodules) when the call is prepared, so run-time instrumentation
    installed after import is seen.
    """

    def __init__(self, E, field_objs, tasks):
        self.E = E
        self.fields = field_objs
        self.tasks = tasks
        self.results = []
        self._scans = {}

    def field(self, desc):
        if desc not in self.fields:
            self.fields[desc] = self.E.field_from_descriptor(desc)
        return self.fields[desc]

    # -- calls -------------------------------------------------------------
    def prepare(self, task):
        """Return (callable, args) for one task; nothing here is timed."""
        E, op = self.E, task["op"]
        if op == "census":
            return E.sigma_char2, (self.field(task["field"]), task["N"])
        if op == "e8char2":
            F = self.field(task["field"])
            return E.e8char2_new, (F, F(task["t"]))
        if op in ("halve_char2", "smul_char2"):
            inst = self.results[task["ref"]]
            P = inst.witness_of_order(8).point
            if op == "halve_char2":
                return E.halve_char2, (inst.curve, P)
            return inst.curve.scalar_mul, (task["n"], P)
        if op == "sweep":
            return E.family_sweep, (self.field(f"Fp:{task['p']}"), task["N"])
        if op in ("halve", "halve_rT"):
            F = self.field(f"Fp:{task['p']}")
            curve = E.CubicCurve(F, *task["curve"])
            P = E.Point(F(task["point"][0]), F(task["point"][1]))
            return (E.halve if op == "halve" else E.halve_rT), (curve, P)
        if op == "family_q":
            Q = self.field("Q")
            ctor = getattr(E, f"{task['family']}_new")
            return ctor, (Q, *(Q(v) for v in task["params"]))
        if op == "halve_q":
            inst = self.results[task["ref"]]
            return E.halve, (inst.curve, inst.witnesses[task["witness"]].point)
        if op == "cli":
            return _run_cli, (E.cli, task["argv"])
        raise ValueError(f"unknown task op {op!r}")

    # -- checks ------------------------------------------------------------
    def check(self, i):
        """None when task i's answer is right, else a one-line reason."""
        task, out = self.tasks[i], self.results[i]
        if isinstance(out, Exception) and not (task["op"] == "halve_rT" and isinstance(out, self.E.NotHalvable)):
            return f"raised {type(out).__name__}: {out}"
        try:
            return getattr(self, f"_check_{task['op']}")(task, out)
        except Exception as e:  # a malformed answer must count, not crash the run
            return f"check raised {type(e).__name__}: {e}"

    def _check_census(self, task, rep):
        q = 1 << _parse_f2k(task["field"])[0]
        want = q - 1 if task["N"] == 4 else q // 2 - 1
        if (rep.family_count, rep.brute_force_count, rep.agree) != (want, want, True):
            return f"census {task['field']} N={task['N']}: {rep} (want {want} both ways)"
        return None

    def _char2_curve(self, curve):
        """(k, modulus, a2, oracle add, oracle on-curve test) for a Char2Curve."""
        k, mod = _parse_f2k(curve.field.descriptor)
        a2, a6 = curve.a2.value, curve.a6.value
        return (k, mod, a2,
                lambda P, Q: oracles.char2_add(k, mod, a2, a6, P, Q),
                lambda P: oracles.char2_on(k, mod, a2, a6, P))

    def _check_e8char2(self, task, inst):
        k, mod, a2, add, on = self._char2_curve(inst.curve)
        mul = lambda u, v: oracles.gf2_mul(u, v, mod, k)  # noqa: E731
        t = task["t"]
        gamma = mul(t, oracles.gf2_inv(mul(t, t) ^ 1, mod, k))
        g8 = oracles.gf2_pow(gamma, 8, mod, k)
        if (inst.family, a2, inst.curve.a6.value) != ("e8char2", 0, g8):
            return f"e8char2 t={t:x}: wrong curve {inst.curve!r}"
        return self._check_witnesses(inst, "e8char2", add, on, lambda v: v.value)

    def _check_witnesses(self, inst, family, add, on, val):
        orders = tuple(w.claimed_order for w in inst.witnesses)
        if orders != FAMILY_ORDERS[family]:
            return f"{family}: witness orders {orders}"
        for w in inst.witnesses:
            P = (val(w.point.x), val(w.point.y))
            if not (w.verified and on(P) and _order_ok(add, P, w.claimed_order)):
                return f"{family} {inst.params}: witness {w.point!r} is not of order {w.claimed_order}"
        return None

    def _check_halve_char2(self, task, res):
        inst = self.results[task["ref"]]
        k, mod, a2, add, on = self._char2_curve(inst.curve)
        P8 = inst.witness_of_order(8).point
        P = (P8.x.value, P8.y.value)
        halves = {(Q.x.value, Q.y.value) for Q in res.points()}
        # P is in 2E(K) exactly when Tr(x(P)) = Tr(a2); the halves are then a
        # coset of E(K)[2] = {O, (0, sqrt a6)}, so there are two of them.
        want = 2 if _gf2_trace(P[0], mod, k) == _gf2_trace(a2, mod, k) else 0
        if res.criterion != "char2" or len(halves) != want or len(res.halves) != want:
            return f"halve_char2 {P}: {len(res.halves)} halves, want {want}"
        if any(not on(Q) or add(Q, Q) != P for Q in halves):
            return f"halve_char2 {P}: a half does not double to P"
        return None

    def _check_smul_char2(self, task, R):
        inst = self.results[task["ref"]]
        _, _, _, add, _ = self._char2_curve(inst.curve)
        P8 = inst.witness_of_order(8).point
        P = (P8.x.value, P8.y.value)
        if _smul(add, 8, P) is not oracles.INF:
            return "smul_char2: base point is not 8-torsion"
        want = _smul(add, task["n"] % 8, P)
        got = None if R.is_infinity else (R.x.value, R.y.value)
        return None if got == want else f"smul_char2 n={task['n']}: got {got}, want {want}"

    def _check_sweep(self, task, insts):
        p, n = task["p"], task["N"]
        fam = SWEEP_FAMILY[n]
        want = _sweep_count(p, fam)
        if len(insts) != want:
            return f"sweep p={p} N={n}: {len(insts)} instances, want {want}"
        for inst in insts:
            c = inst.curve
            A, B, C = _cubic_coeffs(c.alpha.value, c.g.p.value, c.g.q.value, p)
            if inst.family != fam:
                return f"sweep p={p} N={n}: family {inst.family}"
            bad = self._check_witnesses(
                inst, fam,
                lambda U, V: oracles.fp_cubic_add(p, A, B, C, U, V),
                lambda P: oracles.fp_cubic_on(p, A, B, C, P),
                lambda v: v.value)
            if bad:
                return f"sweep p={p}: {bad}"
        return None

    def _scan(self, p, curve):
        """Oracle map from each point to its set of halves, by doubling all."""
        key = (p, tuple(curve))
        if key not in self._scans:
            A, B, C = _cubic_coeffs(*curve, p)
            pts = oracles.fp_cubic_points(p, A, B, C) + [oracles.INF]
            self._scans[key] = oracles.halves_by_scan(
                pts, lambda Q: oracles.fp_cubic_add(p, A, B, C, Q, Q))
        return self._scans[key]

    def _check_halve(self, task, res):
        p, curve, P = task["p"], task["curve"], tuple(task["point"])
        want = self._scan(p, curve).get(P, set())
        got = set() if isinstance(res, Exception) else {(Q.x.value, Q.y.value) for Q in res.points()}
        if got != want:
            return f"{task['op']} p={p} {curve} {P}: halves {sorted(got)}, scan {sorted(want)}"
        if task["op"] == "halve":
            crit = "split" if _split(curve[1], curve[2], p) else "quadext"
            if res.criterion != crit:
                return f"halve p={p} {curve}: criterion {res.criterion}, want {crit}"
        return None

    _check_halve_rT = _check_halve

    def _check_family_q(self, task, inst):
        fam = task["family"]
        params = tuple(Fraction(v) for v in task["params"])
        if tuple(v.value for v in inst.params.values()) != params:
            return f"{fam} over Q: params {inst.params} for {params}"
        c = inst.curve
        A, B, C = _cubic_coeffs(c.alpha.value, c.g.p.value, c.g.q.value)

        def on(P):
            x, y = P
            return y * y == x * x * x + A * x * x + B * x + C

        return self._check_witnesses(
            inst, fam, lambda U, V: oracles.qq_cubic_add(A, B, C, U, V), on, lambda v: v.value)

    def _check_halve_q(self, task, res):
        inst = self.results[task["ref"]]
        c = inst.curve
        al, gp, gq = c.alpha.value, c.g.p.value, c.g.q.value
        A, B, C = _cubic_coeffs(al, gp, gq)
        W = inst.witnesses[task["witness"]].point
        P = (W.x.value, W.y.value)
        halves = {(Q.x.value, Q.y.value) for Q in res.points()}
        # The halves of P are a coset of E(Q)[2], whose size is 1 + #roots of g.
        n2 = 4 if _square_q(gp * gp - 4 * gq) else 2
        if len(halves) not in (0, n2) or len(res.halves) != len(halves):
            return f"halve over Q {P}: {len(res.halves)} halves, E[2] has {n2} points"
        for x, y in halves:
            if y * y != x * x * x + A * x * x + B * x + C or oracles.qq_cubic_add(A, B, C, (x, y), (x, y)) != P:
                return f"halve over Q {P}: half {(x, y)} does not double to P"
        return None

    def _check_cli(self, task, out):
        rc, stdout, stderr = out
        if rc != 0:
            return f"cli {' '.join(task['argv'][:1])}: exit {rc}: {stderr.strip()}"
        doc = json.loads(stdout)
        return getattr(self, f"_cli_{task['kind']}")(task, doc)

    def _cli_order(self, task, doc):
        p, P, n = task["p"], tuple(task["point"]), doc["order"]
        A, B, C = _cubic_coeffs(*task["curve"], p)
        add = lambda U, V: oracles.fp_cubic_add(p, A, B, C, U, V)  # noqa: E731
        if doc["point"] != {"x": str(P[0]), "y": str(P[1])} or not isinstance(n, int):
            return f"order p={p}: malformed answer {doc}"
        if n > p + 1 + 2 * isqrt(p) + 2 or not _order_ok(add, P, n):
            return f"order p={p} {P}: {n} is not the order"
        return None

    def _cli_family(self, task, doc):
        p, fam = task["p"], task["family"]
        names = ("a", "b") if fam == "e4" else (FAMILY_PARAM[fam],)
        if doc["family"] != fam or doc["params"] != {k: str(v) for k, v in zip(names, task["params"])}:
            return f"family {fam} p={p}: echoed {doc['family']} {doc['params']}"
        cv = doc["curve"]
        A, B, C = _cubic_coeffs(int(cv["alpha"]), int(cv["p"]), int(cv["q"]), p)
        orders = tuple(w["order"] for w in doc["witnesses"])
        if orders != FAMILY_ORDERS[fam]:
            return f"family {fam} p={p}: witness orders {orders}"
        for w in doc["witnesses"]:
            P = (int(w["point"]["x"]), int(w["point"]["y"]))
            if not (w["verified"] and oracles.fp_cubic_on(p, A, B, C, P)
                    and _order_ok(lambda U, V: oracles.fp_cubic_add(p, A, B, C, U, V), P, w["order"])):
                return f"family {fam} p={p}: witness {P} is not of order {w['order']}"
        return None

    def _cli_halve(self, task, doc):
        p, curve, P = task["p"], task["curve"], tuple(task["point"])
        A, B, C = _cubic_coeffs(*curve, p)
        halves = {(int(h["point"]["x"]), int(h["point"]["y"])) for h in doc["halves"]}
        n2 = 4 if _split(curve[1], curve[2], p) else 2
        if doc["halvable"] != bool(halves) or len(halves) not in (0, n2) or len(doc["halves"]) != len(halves):
            return f"halve p={p} {P}: {len(doc['halves'])} halves, E[2] has {n2} points"
        if any(oracles.fp_cubic_add(p, A, B, C, Q, Q) != P for Q in halves):
            return f"halve p={p} {P}: a half does not double to P"
        if task["half"] is not None and tuple(task["half"]) not in halves:
            return f"halve p={p} {P}: the known half {task['half']} is missing"
        if task["pair"] is not None:
            _, out2, _ = self.results[task["pair"]]
            other = {(int(h["point"]["x"]), int(h["point"]["y"])) for h in json.loads(out2)["halves"]}
            if other != halves:
                return f"halve p={p} {P}: rT and auto disagree"
        return None

    def _cli_iso_e4(self, task, doc):
        p, (a, b, c, d) = task["p"], task["params"]
        if doc["isomorphic"]:
            u = int(doc["u"])
            ok = u % p and not (u * u * (a * a + 2 * b) - c * c - 2 * d) % p and not (u ** 4 * b * b - d * d) % p
            return None if ok else f"iso e4 p={p}: u={u} is not an isomorphism"
        scan = oracles.iso_scan_e4(p, a, b, c, d)
        return None if not scan else f"iso e4 p={p} {task['params']}: scan finds u={scan[0]}"

    def _cli_iso_e8(self, task, doc):
        p, (s, t) = task["p"], task["params"]

        def coeff(v):
            v2 = v * v
            return 2 * (v2 * v2 + 2 * v2 - 1) * pow((v2 - 1) ** 2, -1, p) % p

        iso = bool(oracles.iso_scan_alpha0(p, coeff(s), 1, coeff(t), 1))
        return None if doc["isomorphic"] == iso else f"iso e8 p={p} s={s} t={t}: scan says {iso}"

    # -- planted error, for the self-test ------------------------------------
    def plant_wrong_answer(self):
        """Corrupt one answer the way a real defect would."""
        for i, (task, out) in enumerate(zip(self.tasks, self.results)):
            if task["op"] == "census":
                self.results[i] = dataclasses.replace(out, brute_force_count=out.brute_force_count + 1)
                return
            if task["op"] == "halve" and not isinstance(out, Exception) and out.halves:
                self.results[i] = dataclasses.replace(out, halves=out.halves[:-1])
                return
            if task["op"] == "cli" and task["kind"] == "order":
                rc, stdout, stderr = out
                doc = json.loads(stdout)
                doc["order"] += 1
                self.results[i] = (rc, json.dumps(doc), stderr)
                return
        raise RuntimeError("no task to plant a wrong answer in")


def _run_cli(cli, argv):
    """``ectorsion.cli.main`` in-process, as the console script would run it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()
