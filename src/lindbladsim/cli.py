"""Batch front door: model files in, JSON/CSV artifacts out.

All outputs are deterministic given the inputs: rows are sorted before
emission, JSON keys are sorted, and runtime columns are zero unless --timing
is passed. Exit codes: 0 success, 2 validation error, 3 infeasible precision
or resource limit.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import metrics, modelio, models, primitives, series, timedep
from .errors import (ArgumentError, InfeasiblePrecisionError, LindbladSimError,
                     ResourceLimitError, check_count, check_time)
from .quadrature import MAX_ORDER, canonical_rule


@contextlib.contextmanager
def _sink(path):
    """sys.stdout when path is None, else the file at path opened for writing."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _write_csv(path, header, rows):
    # csv writes each cell with str, which for a float is its round-trip repr
    with _sink(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, obj):
    with _sink(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_rho0(args, dim: int) -> np.ndarray:
    if args.rho0 is not None:
        return modelio.load_density(args.rho0, dim)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def _elapsed_ms(timing: bool, t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0 if timing else 0.0


def _evolve(args, model, run) -> int:
    """simulate and td-simulate: load --rho0 at the model's dimension, time
    run(rho0), which returns rho, the report and any extra output blocks, and
    write them with the runtime."""
    rho0 = _load_rho0(args, model.dim)
    t0 = time.perf_counter()
    rho, report, extra = run(rho0)
    _write_json(args.out, {"report": report.as_dict(), "rho": modelio.matrix_to_json(rho),
                           "runtime_ms": _elapsed_ms(args.timing, t0), **extra})
    return 0


def _check_order_zero(n_qubits: int) -> None:
    """The series engine holds at least the order-0 term's 16 d^4 bytes, which
    the register fixes, so its byte limit is checked before any operator is
    built and its spectrum taken; a register too wide for one dense operator
    fails on that first, as building it would."""
    modelio.check_register(n_qubits)
    series._check_engine(1, 0, 0, 2 ** n_qubits)


def _run_model(args) -> modelio.ParsedModel:
    """The parsed --model of simulate and td-simulate, checked by
    _check_order_zero at a finite t > 0, where the engine runs."""
    pm = modelio.load_model(args.model)
    if 0 < args.time < math.inf:
        _check_order_zero(pm.n_qubits)
    return pm


def _cmd_simulate(args) -> int:
    lind = _run_model(args).to_lindbladian()

    def run(rho0):
        if args.verify and lind.dim > 16:
            raise ArgumentError("--verify builds Choi matrices; limited to n_qubits <= 4")
        return *series.simulate(lind, rho0, args.time, args.eps, verify=args.verify), {}

    return _evolve(args, lind, run)


def _cmd_td_simulate(args) -> int:
    tl = _run_model(args).to_time_dependent()

    def run(rho0):
        if (args.order is None) != (args.grid is None):
            raise ArgumentError("--order and --grid must be given together")
        cfg = None if args.order is None else timedep.DysonConfig(args.order, args.grid)
        rho, report, used = timedep.td_simulate(tl, rho0, args.time, args.eps,
                                                cfg=cfg, segments=args.segments)
        contract = timedep.dyson_contract(tl, report.segment_time, used)
        return rho, report, {"dyson": {"order": used.order, "grid_points": used.grid_points,
                                       "declared_contract": contract}}

    return _evolve(args, tl, run)


def _sweep_models(args):
    """The sweep's named models, each checked by _check_order_zero before it is
    built: every row builds a superoperator and the exact channel, at any time."""
    named = []
    for path in args.model or []:
        stem = path.rsplit("/", 1)[-1]
        stem = stem[:-5] if stem.endswith(".json") else stem
        pm = modelio.load_model(path)
        _check_order_zero(pm.n_qubits)
        named.append((stem, pm.to_lindbladian()))
    for i in range(args.random_models):
        _check_order_zero(args.n_qubits)
        name = f"random-{args.n_qubits}q-{args.seed}-{i}"
        named.append((name, models.random_lindbladian(
            args.n_qubits, num_jumps=1, seed=args.seed + i)))
    if not named:
        raise ArgumentError("need --model and/or --random-models")
    return named


def _analyze_row(name, lind, E, beta, t, K, Kp, q, timing):
    """One sweep row of lind against its exact channel E at time t, be-norm beta."""
    t0 = time.perf_counter()
    cfg = series.TruncationConfig(series_order=K, taylor_order=Kp,
                                  quadrature_order=q, segment_time=t)
    S = series.CPMapApprox(lind, t, cfg).as_superoperator()
    lower, upper = metrics.diamond_sandwich(E, S)
    runtime = _elapsed_ms(timing, t0)
    return (name, t, K, Kp, q, series.bound_duhamel(K, t, beta),
            series.quadrature_total_bound(K, q, t, beta),
            series.taylor_total_bound(Kp, t, beta), lower, upper, runtime)


def _cmd_analyze_error(args) -> int:
    check_time(args.time)
    check_count(args.max_order, "--max-order", 1, series.MAX_SEARCH_ORDER)
    check_count(args.random_models, "--random-models", 0)
    if args.workers < 1:
        raise ArgumentError(f"--workers must be at least 1, got {args.workers}")
    named = _sweep_models(args)
    orders = [(K, max(1, math.ceil(K / 2)) + extra) for K in range(1, args.max_order + 1)
              for extra in (0, 2)]
    # every row's engine limits, as series_superop checks them, before any
    # exact channel or row is built
    for _, lind in named:
        for K, q in orders:
            series._check_engine(q, K if args.time else 0, lind.num_jumps, lind.dim)
    jobs = []
    for name, lind in named:
        E, beta = models.exact_channel(lind, args.time), models.be_norm(lind)
        for K, q in orders:
            for Kp in (K, 2 * K):
                jobs.append((name, lind, E, beta, args.time, K, Kp, q, args.timing))
    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        rows = list(pool.map(lambda j: _analyze_row(*j), jobs))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3], r[4]))
    _write_csv(args.out,
               ["model", "t", "K", "Kp", "q", "bound_duhamel", "bound_quadrature",
                "bound_taylor", "choi_lower", "choi_upper", "runtime_ms"],
               rows)
    return 0


def _cmd_quadrature(args) -> int:
    check_count(args.max_q, "--max-q", 1, MAX_ORDER)
    rows = []
    for q in range(1, args.max_q + 1):
        for t in args.times:
            rule = canonical_rule(q, t)
            for ell in range(2 * q):
                try:
                    rhs = t ** (ell + 1) / (ell + 1)
                except OverflowError:
                    rhs = math.inf
                if not 0 < rhs < math.inf:
                    raise ArgumentError(
                        f"time {t}: the moment t^{ell + 1} / {ell + 1} is outside the float range")
                lhs = math.fsum(w * s ** ell for w, s in zip(rule.weights, rule.nodes))
                rows.append((q, t, ell, lhs, rhs, abs(lhs - rhs) / abs(rhs)))
    _write_csv(args.out,
               ["q", "t", "ell", "moment_lhs", "moment_rhs", "residual"], rows)
    return 0


def _cmd_primitives_verify(args) -> int:
    matrix = primitives.verification_matrix(seed=args.seed)
    ok = all(v["pass"] for v in matrix.values())
    _write_json(args.out, {"checks": matrix, "all_pass": ok})
    return 0 if ok else 1


def _cmd_kraus_dump(args) -> int:
    lind = modelio.load_model(args.model).to_lindbladian()
    cfg = series._plan(lind, args.time, args.eps)
    blocks = series.CPMapApprox(lind, cfg.segment_time, cfg).term_blocks()
    # Every field is an int, a digit-dash string or a float repr, none of which
    # csv would quote, so each block goes out as one write of ready-made lines.
    # A row's "node_path,coefficient,normalizer\n" tail depends only on its
    # depth, its chunk and the chunk's normalizer bytes, and jump paths whose
    # alpha products are bitwise equal share those bytes. So with more than one
    # jump, each distinct tail list is formed once and kept until the depth
    # ends (one string per grid row for each distinct normalizer array), and
    # only the "term,k,jump_path," head is formed per row.
    digits = [str(j) for j in range(cfg.quadrature_order)]
    term = 0
    with _sink(args.out) as fh:
        fh.write("term,k,jump_path,node_path,coefficient,normalizer\n")
        for k, depth in itertools.groupby(blocks, key=lambda b: b[0]):
            shared = {}
            for path, chunks in itertools.groupby(depth, key=lambda b: b[1]):
                head = f",{k},{'-'.join(map(str, path))},"
                for pos, (_, _, idx, _, coeff, norms) in enumerate(chunks):
                    key = (pos, norms.tobytes())
                    tails = shared.get(key)
                    if tails is None:
                        tails = [f"{'-'.join([digits[j] for j in js])},{c!r},{s!r}\n"
                                 for js, c, s in zip(idx[:, ::-1].tolist(), coeff.tolist(),
                                                     norms.tolist())]
                        if lind.num_jumps > 1:
                            shared[key] = tails
                    fh.write("".join([f"{i}{head}{tail}" for i, tail in
                                      zip(range(term, term + len(tails)), tails)]))
                    term += len(tails)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lindbladsim",
        description="Desk-scale Lindblad simulation via a completely positive "
                    "series approximant with nested Gaussian quadrature.")
    sub = p.add_subparsers(dest="command", required=True)
    # options shared by the model-file commands, and by the two that evolve a state
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--model", required=True)
    run.add_argument("--time", type=float, required=True)
    run.add_argument("--eps", type=float, required=True)
    run.add_argument("--out", default=None)
    state = argparse.ArgumentParser(add_help=False)
    state.add_argument("--rho0", default=None)
    state.add_argument("--timing", action="store_true")

    sp = sub.add_parser("simulate", parents=[run, state], help="evolve a density matrix")
    sp.add_argument("--verify", action="store_true",
                    help="compare against the exact channel (n_qubits <= 4)")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("td-simulate", parents=[run, state],
                        help="evolve under a time-dependent model")
    sp.add_argument("--order", type=int, default=None)
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument("--segments", type=int, default=None)
    sp.set_defaults(func=_cmd_td_simulate)

    sp = sub.add_parser("analyze-error", help="sweep truncation orders, emit CSV")
    sp.add_argument("--model", action="append", default=None)
    sp.add_argument("--random-models", type=int, default=0)
    sp.add_argument("--n-qubits", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--time", type=float, default=0.3)
    sp.add_argument("--max-order", type=int, default=4)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out", default=None)
    sp.add_argument("--timing", action="store_true")
    sp.set_defaults(func=_cmd_analyze_error)

    sp = sub.add_parser("quadrature", help="moment identity table")
    sp.add_argument("--max-q", type=int, default=8)
    sp.add_argument("--times", type=float, nargs="+", default=[0.1, 1.0, 7.0])
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_quadrature)

    sp = sub.add_parser("primitives-verify", help="JSON pass/fail matrix")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_primitives_verify)

    sp = sub.add_parser("kraus-dump", parents=[run], help="per-term coefficient table")
    sp.set_defaults(func=_cmd_kraus_dump)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InfeasiblePrecisionError, ResourceLimitError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 3
    except (LindbladSimError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
