"""Set-up step of a workload, also run alone to time a fresh interpreter.

``setup`` imports ``ectorsion`` (and the CLI for the CLI workload), builds
the workload's fields and does one multiplication, division and square root
in each (plus an Artin-Schreier solve over GF(2^k)), so that any lazily built
table exists before the first timed task.

Run as a script (``probe.py <workload> <field descriptor>...``) it does the
set-up and prints ``ready``; run.py times a fresh interpreter from spawn to
that line.  It imports nothing else first, so the time is the program's.
"""

import sys
import time


def setup(workload, descriptors):
    """Returns (package, {descriptor: field}, seconds spent on binary fields)."""
    import ectorsion

    if workload == "fp_queries":
        import ectorsion.cli  # noqa: F401  (what every CLI call pays)
    fields, binary_s = {}, 0.0
    for desc in descriptors:
        t0 = time.perf_counter()
        F = ectorsion.field_from_descriptor(desc)
        binary = isinstance(F, ectorsion.BinaryField)
        x = F(2) if binary else F(3)
        x * x / x
        x.sqrt()
        if binary:
            F.solve_artin_schreier(x * x + x)
            binary_s += time.perf_counter() - t0
        fields[desc] = F
    return ectorsion, fields, binary_s


if __name__ == "__main__":
    if sys.flags.optimize:
        sys.exit("refusing to run under python -O: it strips the library's result checks")
    setup(sys.argv[1], sys.argv[2:])
    print("ready", flush=True)
