"""Wall-clock budgets for the slowest input the CLI accepts, one kind at a time.

Each budget is listed in the README and in ``cli.py``'s docstring.  The
calls run in-process through ``cli.main``, so a budget covers the work, not
interpreter start-up.
"""

import json
import time

import pytest

from ectorsion import cli

CENSUS_BUDGET_S = 5.0


@pytest.mark.parametrize("order,count", [(4, 63), (8, 31)])
def test_largest_census_fits_its_budget(capsys, order, count):
    """k = 6 is the largest census accepted: every (a2, a6) over GF(64)."""
    t0 = time.perf_counter()
    code = cli.main(["census", "--field", "F2k:6:43", "--order", str(order)])
    elapsed = time.perf_counter() - t0
    js = json.loads(capsys.readouterr().out)
    assert code == 0
    assert js["family_count"] == js["brute_force_count"] == count
    assert js["agree"] is True
    assert elapsed < CENSUS_BUDGET_S, f"census at k = 6, order {order}: {elapsed:.2f} s"
