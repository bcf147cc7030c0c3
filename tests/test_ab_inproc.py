"""tools/ab_inproc.py, run for one round of one op with this checkout on both sides."""
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import ab_inproc  # noqa: E402


def test_sign_test_is_two_sided():
    assert ab_inproc.sign_test(9, 1) == ab_inproc.sign_test(1, 9) == 2 * 11 / 2 ** 10
    assert ab_inproc.sign_test(0, 0) == ab_inproc.sign_test(3, 3) == 1.0


def test_ab_inproc_runs_one_op_against_this_checkout():
    # this checkout as the parent too: two copies of one package, loaded under
    # names of their own, give bitwise-equal outputs and a finite time ratio
    [result] = ab_inproc.compare(str(ROOT / "src"), rounds=1, labels={"1q1j-eps1e-6"})
    assert (result["workload"], result["label"], result["rounds"]) == (
        "static-deep", "1q1j-eps1e-6", 1)
    assert result["difference"] is None
    assert 0 < result["ratio"] < math.inf and result["wins"] in (0, 1)
    assert sys.modules["ab_parent"].series is not sys.modules["ab_change"].series
