"""Print the largest absolute difference per file between two output directories.

    python tools/compare_outputs.py DIR_A DIR_B

Meant for the directories that `tools/cli_artifacts.py` and
`tools/workload_outputs.py` write for two checkouts. Each file in either
directory gets one line: `identical` when the bytes match, otherwise the
largest absolute difference over its numbers and where it occurs (`.npy`
arrays, numbers anywhere in `.json`, numeric cells in `.csv`). A file found in
only one directory, or whose non-numeric content or shape differs, is named as
such, and the exit code is then 1.
"""
from __future__ import annotations

import csv
import json
import os
import sys

import numpy as np


def _walk(a, b, where, diffs):
    """Collect (|a - b|, where) over the numbers of two parsed JSON values; raise
    ValueError where their structure or non-numeric content differs."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        if a != b:
            raise ValueError(f"differs at {where or 'top'}")
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        diffs.append((abs(a - b), where))
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise ValueError(f"keys differ at {where or 'top'}")
        for key in a:
            _walk(a[key], b[key], f"{where}.{key}" if where else key, diffs)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise ValueError(f"lengths differ at {where or 'top'}")
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{where}[{i}]", diffs)
    elif a != b:
        raise ValueError(f"differs at {where or 'top'}")


def _csv_diffs(path_a, path_b):
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        raise ValueError("header or row count differs")
    header, diffs = rows_a[0], []
    for r, (row_a, row_b) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        if len(row_a) != len(row_b):
            raise ValueError(f"row {r} length differs")
        for col, x, y in zip(header, row_a, row_b):
            try:
                diffs.append((abs(complex(x) - complex(y)), f"row {r} {col}"))
            except ValueError:
                if x != y:
                    raise ValueError(f"row {r} {col} differs") from None
    return diffs


def max_diff(path_a: str, path_b: str) -> tuple[float, str]:
    """The largest absolute difference over the numbers of two .npy, .json or
    .csv files of one kind, and where it occurs ((0.0, "") when they hold no
    numbers); ValueError where their shape or non-numeric content differs."""
    if path_a.endswith(".npy"):
        x, y = np.load(path_a), np.load(path_b)
        if x.shape != y.shape:
            raise ValueError(f"shape {x.shape} against {y.shape}")
        err = np.abs(x - y)
        pos = np.unravel_index(int(np.argmax(err)), err.shape) if err.size else ()
        diffs = [(float(err[pos]), f"index {tuple(int(i) for i in pos)}")] if err.size else []
    elif path_a.endswith(".json"):
        with open(path_a) as fa, open(path_b) as fb:
            diffs = []
            _walk(json.load(fa), json.load(fb), "", diffs)
    else:
        diffs = _csv_diffs(path_a, path_b)
    return max(diffs, default=(0.0, ""))


def compare(path_a: str, path_b: str) -> tuple[str, bool]:
    """One line describing how the file at path_b differs from the one at path_a,
    and whether the two are comparable number for number."""
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        if fa.read() == fb.read():
            return "identical", True
    if not path_a.endswith((".npy", ".json", ".csv")):
        return "bytes differ (not compared)", False
    try:
        size, where = max_diff(path_a, path_b)
    except ValueError as ex:
        return f"not comparable: {ex}", False
    if size == 0.0:
        return "bytes differ, numbers equal", True
    return f"max |diff| {size:.3g} at {where}", True


def main(dir_a: str, dir_b: str) -> int:
    names = sorted(set(os.listdir(dir_a)) | set(os.listdir(dir_b)))
    ok = True
    for name in names:
        path_a, path_b = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if not os.path.isfile(path_a) or not os.path.isfile(path_b):
            line, same = f"only in {dir_a if os.path.isfile(path_a) else dir_b}", False
        else:
            line, same = compare(path_a, path_b)
        print(f"{name}: {line}")
        ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
