"""JSON model files: parsing, serialization, and conversion to simulators.

Schema: {"n_qubits": n, "hamiltonian": MAT, "jumps": [MAT, ...],
"alphas": {"hamiltonian": a0, "jumps": [a1, ...]} (optional),
"time_dependence": {"times": [...], "hamiltonian": [MAT per time],
"jumps": [[MAT per time] per jump], "jdot_bound": x} (optional)}.

MAT is either a row-major nested list of [re, im] pairs or
{"pauli_sum": "expression"}. Time dependence is piecewise-linear
interpolation between the tabulated matrices, held constant outside the
table, and a table model's sampler is batched (TimeTable.sampler). Omitted bounds are derived: sup norms from the table knots (linear
interpolation cannot exceed endpoint norms) and the generator derivative
bound from per-panel slopes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .models import Lindbladian, _stack
from .pauli import PauliSumExpr, materialize, parse_pauli_sum, serialize_pauli_sum
from .series import MAX_SUPEROP_BYTES
from .timedep import TimeDependentLindbladian, from_static


def _float(x, what: str) -> float:
    """float(x) for a number read from a file; ModelError naming what when x is
    not a number (strings and booleans included) or, like a huge JSON integer,
    does not fit in a float."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:
            pass
    raise ModelError(f"{what} must be a number within the float range")


def matrix_from_json(obj, dim: int, what: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise ModelError(f"{what}: expected {dim} rows")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise ModelError(f"{what}: row {i} must have {dim} entries")
        for j, cell in enumerate(row):
            if (not isinstance(cell, list) or len(cell) != 2
                    or not all(isinstance(x, (int, float)) for x in cell)):
                raise ModelError(f"{what}: entry ({i},{j}) must be a [re, im] pair")
            re_im = [_float(x, f"{what}: entry ({i},{j})") for x in cell]
            if not all(math.isfinite(x) for x in re_im):
                raise ModelError(f"{what}: entry ({i},{j}) is not finite, got {cell}")
            out[i, j] = complex(*re_im)
    return out


def matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(mat, complex)]


def check_register(n_qubits: int) -> None:
    """ModelError unless one dense operator on n_qubits, 16 * 4^n bytes, fits
    MAX_SUPEROP_BYTES."""
    size = 16 * 4 ** n_qubits
    if size > MAX_SUPEROP_BYTES:
        raise ModelError(f"a dense operator on {n_qubits} qubits would take {size} > "
                         f"{MAX_SUPEROP_BYTES} bytes")


@dataclass(frozen=True, eq=False)
class OperatorSpec:
    """A dense matrix or a Pauli-sum expression, as written in the file."""

    dense: np.ndarray | None
    pauli: PauliSumExpr | None

    def matrix(self) -> np.ndarray:
        """The dense matrix; a Pauli sum is materialized only when
        check_register passes on its qubits."""
        if self.dense is not None:
            return self.dense
        check_register(self.pauli.n)
        return materialize(self.pauli)

    def to_json(self):
        if self.dense is not None:
            return matrix_to_json(self.dense)
        return {"pauli_sum": serialize_pauli_sum(self.pauli)}


def _parse_operator(obj, n_qubits: int, what: str) -> OperatorSpec:
    dim = 2 ** n_qubits
    if isinstance(obj, dict):
        if set(obj.keys()) != {"pauli_sum"} or not isinstance(obj["pauli_sum"], str):
            raise ModelError(f"{what}: operator object must be {{'pauli_sum': str}}")
        return OperatorSpec(dense=None, pauli=parse_pauli_sum(obj["pauli_sum"], n_qubits))
    return OperatorSpec(dense=matrix_from_json(obj, dim, what), pauli=None)


@dataclass(frozen=True, eq=False)
class TimeTable:
    """Piecewise-linear tables for H(t) and the jumps on a shared grid of N
    times: knot stacks H (N, d, d) and L (N, m, d, d), None for an operator
    that stays constant."""

    times: tuple
    hamiltonians: np.ndarray | None
    jumps: np.ndarray | None
    jdot_bound: float | None

    def sampler(self, knots: np.ndarray):
        """Batched sampler of the knot stack knots (N, ...) on this table's times:
        at the times (B,), the (B, ...) stack knots[i] + frac (knots[i+1] - knots[i])
        with frac = (t - t_i) / (t_{i+1} - t_i) on the panel [t_i, t_{i+1}) holding
        t, and the end knots themselves at and beyond the ends of the table."""
        ts = np.array(self.times)
        slopes = np.diff(knots, axis=0)

        def sample(times: np.ndarray) -> np.ndarray:
            i = np.clip(np.searchsorted(ts, times, side="right") - 1, 0, ts.size - 2)
            frac = (times - ts[i]) / (ts[i + 1] - ts[i])
            out = knots[i] + frac.reshape(-1, *(1,) * (knots.ndim - 1)) * slopes[i]
            out[times <= ts[0]] = knots[0]
            out[times >= ts[-1]] = knots[-1]
            return out
        return sample


@dataclass(frozen=True, eq=False)
class ParsedModel:
    n_qubits: int
    hamiltonian: OperatorSpec
    jumps: tuple
    alpha0: float | None
    alphas: tuple | None
    table: TimeTable | None

    @property
    def is_time_dependent(self) -> bool:
        return self.table is not None

    def to_lindbladian(self) -> Lindbladian:
        if self.is_time_dependent:
            raise ModelError("model declares time dependence; "
                             "use td-simulate or to_time_dependent")
        return Lindbladian(self.hamiltonian.matrix(),
                           [j.matrix() for j in self.jumps],
                           alpha0=self.alpha0, alphas=self.alphas)

    def to_time_dependent(self) -> TimeDependentLindbladian:
        tb = self.table
        if tb is None:
            return from_static(self.to_lindbladian())
        # the constant operators as one-knot stacks
        H0, L0 = _stack([self.hamiltonian.matrix()], [[j.matrix() for j in self.jumps]])
        a0, alphas, jdot = _table_bounds(tb, H0, L0)

        def constant(knot):
            return lambda times: np.broadcast_to(knot, (times.size, *knot.shape))

        H = constant(H0[0]) if tb.hamiltonians is None else tb.sampler(tb.hamiltonians)
        L = constant(L0[0]) if tb.jumps is None else tb.sampler(tb.jumps)
        if self.alpha0 is not None:
            a0 = self.alpha0
        if self.alphas is not None:
            alphas = self.alphas
        if tb.jdot_bound is not None:
            jdot = tb.jdot_bound
        return TimeDependentLindbladian(lambda times: (H(times), L(times)), a0, alphas, jdot,
                                        batched=True)


def _table_bounds(tb: TimeTable, H0: np.ndarray, L0: np.ndarray):
    """Sup-norm and slope bounds from the knot stacks, a constant operator's
    being its one knot in H0 (1, d, d) or L0 (1, m, d, d); linear panels cannot
    exceed them."""
    H = H0 if tb.hamiltonians is None else tb.hamiltonians
    L = L0 if tb.jumps is None else tb.jumps

    def norms(A):  # spectral norms of a stack, one batched SVD
        return np.linalg.svd(A, compute_uv=False)[..., 0]

    knots = norms(L)  # (N, m)
    dt = np.diff(tb.times)
    # per panel, the slope norm of H, then of each jump times its larger knot norm
    slopes = [] if tb.hamiltonians is None else [norms(np.diff(H, axis=0)) / dt]
    if tb.jumps is not None:
        ldot = norms(np.diff(L, axis=0)) / dt[:, None]
        slopes.extend((ldot * np.maximum(knots[:-1], knots[1:])).T)
    jdot = np.max(sum(slopes), initial=0.0)  # added one column at a time, in that order
    return float(norms(H).max()), tuple(knots.max(axis=0).tolist()), float(jdot)


def parse_model(obj: dict) -> ParsedModel:
    if not isinstance(obj, dict):
        raise ModelError("model file must contain a JSON object")
    n = obj.get("n_qubits")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ModelError("n_qubits must be a positive integer")
    known = {"n_qubits", "hamiltonian", "jumps", "alphas", "time_dependence"}
    extra = set(obj.keys()) - known
    if extra:
        raise ModelError(f"unknown model fields: {sorted(extra)}")
    if "hamiltonian" not in obj:
        raise ModelError("model needs a hamiltonian")
    ham = _parse_operator(obj["hamiltonian"], n, "hamiltonian")
    if not isinstance(obj.get("jumps", []), list):
        raise ModelError("jumps must be a list of operators")
    jumps = tuple(_parse_operator(j, n, f"jumps[{i}]")
                  for i, j in enumerate(obj.get("jumps", [])))
    alpha0 = None
    alphas = None
    if "alphas" in obj:
        al = obj["alphas"]
        if not isinstance(al, dict) or set(al) - {"hamiltonian", "jumps"}:
            raise ModelError("alphas must be {'hamiltonian': x, 'jumps': [...]}")
        if "hamiltonian" in al:
            alpha0 = _float(al["hamiltonian"], "alphas.hamiltonian")
        if "jumps" in al:
            if not isinstance(al["jumps"], list) or len(al["jumps"]) != len(jumps):
                raise ModelError("alphas.jumps must be a list as long as jumps")
            alphas = tuple(_float(a, f"alphas.jumps[{i}]") for i, a in enumerate(al["jumps"]))
    table = None
    if "time_dependence" in obj:
        table = _parse_table(obj["time_dependence"], n, len(jumps))
    return ParsedModel(n_qubits=n, hamiltonian=ham, jumps=jumps,
                       alpha0=alpha0, alphas=alphas, table=table)


def _parse_table(obj, n_qubits: int, num_jumps: int) -> TimeTable:
    dim = 2 ** n_qubits
    if not isinstance(obj, dict):
        raise ModelError("time_dependence must be an object")
    extra = set(obj.keys()) - {"times", "hamiltonian", "jumps", "jdot_bound"}
    if extra:
        raise ModelError(f"unknown time_dependence fields: {sorted(extra)}")
    times = obj.get("times")
    if (not isinstance(times, list) or len(times) < 2
            or not all(isinstance(t, (int, float)) for t in times)):
        raise ModelError("time_dependence.times must list at least two numbers")
    times = tuple(_float(t, f"time_dependence.times[{i}]") for i, t in enumerate(times))
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ModelError("time_dependence.times must be strictly increasing")
    hams = None
    if "hamiltonian" in obj:
        rows = obj["hamiltonian"]
        if not isinstance(rows, list) or len(rows) != len(times):
            raise ModelError("time_dependence.hamiltonian must have one matrix per time")
        hams = np.array([matrix_from_json(mj, dim, f"time_dependence.hamiltonian[{i}]")
                         for i, mj in enumerate(rows)])
    jts = None
    if "jumps" in obj:
        cols = obj["jumps"]
        if not isinstance(cols, list) or len(cols) != num_jumps:
            raise ModelError("time_dependence.jumps must have one table per jump")
        jts = []
        for j, col in enumerate(cols):
            if not isinstance(col, list) or len(col) != len(times):
                raise ModelError(f"time_dependence.jumps[{j}] must have one matrix per time")
            jts.append([matrix_from_json(mj, dim, f"time_dependence.jumps[{j}][{i}]")
                        for i, mj in enumerate(col)])
        jts = np.array(jts, dtype=complex).reshape(num_jumps, len(times), dim, dim).swapaxes(0, 1)
    if hams is None and jts is None:
        raise ModelError("time_dependence declares no varying operator")
    jdot = obj.get("jdot_bound")
    if jdot is not None:
        jdot = _float(jdot, "time_dependence.jdot_bound")
        if jdot < 0:
            raise ModelError("jdot_bound must be nonnegative")
    return TimeTable(times=times, hamiltonians=hams, jumps=jts, jdot_bound=jdot)


def serialize_model(pm: ParsedModel) -> dict:
    out = {"n_qubits": pm.n_qubits, "hamiltonian": pm.hamiltonian.to_json()}
    if pm.jumps:
        out["jumps"] = [j.to_json() for j in pm.jumps]
    if pm.alpha0 is not None or pm.alphas is not None:
        al = {}
        if pm.alpha0 is not None:
            al["hamiltonian"] = pm.alpha0
        if pm.alphas is not None:
            al["jumps"] = list(pm.alphas)
        out["alphas"] = al
    if pm.table is not None:
        tb = pm.table
        td = {"times": list(tb.times)}
        if tb.hamiltonians is not None:
            td["hamiltonian"] = [matrix_to_json(H) for H in tb.hamiltonians]
        if tb.jumps is not None:
            td["jumps"] = [[matrix_to_json(L) for L in col] for col in tb.jumps.swapaxes(0, 1)]
        if tb.jdot_bound is not None:
            td["jdot_bound"] = tb.jdot_bound
        out["time_dependence"] = td
    return out


def _read_json(path):
    """The JSON value in the file at path; ModelError naming the file when its
    bytes are not UTF-8 JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as ex:
            raise ModelError(f"{path}: invalid JSON: {ex}") from None


def load_model(path) -> ParsedModel:
    return parse_model(_read_json(path))


def save_model(pm: ParsedModel, path):
    with open(path, "w") as fh:
        json.dump(serialize_model(pm), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_density(path, dim: int) -> np.ndarray:
    """Density matrix from JSON: a bare matrix or {'rho0': matrix}."""
    obj = _read_json(path)
    if isinstance(obj, dict):
        if "rho0" not in obj:
            raise ModelError(f"{path}: expected a matrix or {{'rho0': matrix}}")
        obj = obj["rho0"]
    return matrix_from_json(obj, dim, "rho0")
