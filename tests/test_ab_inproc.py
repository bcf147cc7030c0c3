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


def test_ab_inproc_compares_a_cli_op_by_its_artifact_bytes():
    # each side writes its own quadrature table; the two files are byte-equal
    [result] = ab_inproc.compare(str(ROOT / "src"), rounds=2, labels={"quadrature"})
    assert (result["workload"], result["label"], result["rounds"]) == (
        "cli-batch", "quadrature", 2)
    assert result["artifact"] is True and result["difference"] is None
    assert ab_inproc.difference(b"q,t\n1,", b"q,t\n2,") == math.inf
    [(name, total)] = ab_inproc.totals([result]).items()
    assert name == "cli-batch"
    assert total == {key: result[key] for key in ("ratio", "wins", "rounds", "p")}


def test_totals_sum_each_workloads_ops_per_round():
    results = [{"workload": "w", "times": {"parent": [1.0, 2.0], "change": [0.5, 3.0]}},
               {"workload": "w", "times": {"parent": [1.0, 2.0], "change": [0.5, 0.5]}},
               {"workload": "v", "times": {"parent": [1.0, 1.0], "change": [2.0, 2.0]}}]
    # w sums to parent 2, 4 against change 1, 3.5
    assert ab_inproc.totals(results) == {
        "w": {"ratio": (0.5 + 0.875) / 2, "wins": 2, "rounds": 2, "p": 0.5},
        "v": {"ratio": 2.0, "wins": 0, "rounds": 2, "p": 0.5}}
