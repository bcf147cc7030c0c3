"""The CLI artifacts and workload outputs, remade on this checkout, against the
pins that tools/pin_artifacts.py wrote to tests/pinned/."""
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from compare_outputs import max_diff  # noqa: E402
from pin_artifacts import PINNED, environment, remake  # noqa: E402

# largest absolute difference allowed in any number of a workload output (a
# state entry, a report's bound or count) where the digests were not made
TOLERANCE = 1e-12


def test_artifacts_match_their_pins(tmp_path):
    # every byte where the pins were made; elsewhere OpenBLAS may pick other
    # kernels, so the workload outputs are compared by number with their copies
    with open(os.path.join(PINNED, "digests.json")) as fh:
        pinned = json.load(fh)
    digests = remake(str(tmp_path))
    here = environment()
    if here == pinned["environment"]:
        for tool, files in digests.items():
            assert files == pinned[tool], f"{tool} moved; rerun tools/pin_artifacts.py"
        return
    copies = os.path.join(PINNED, "workload_outputs")
    assert sorted(os.listdir(copies)) == sorted(digests["workload_outputs"])
    for name in sorted(os.listdir(copies)):
        size, where = max_diff(os.path.join(copies, name),
                               str(tmp_path / "workload_outputs" / name))
        assert size <= TOLERANCE, (name, size, where)
    print(f"artifact digests not checked: pinned in {pinned['environment']}, run in {here}; "
          f"workload outputs within {TOLERANCE} of their pinned copies")
