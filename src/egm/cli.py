"""Command-line front end.

Subcommands: ``fit``, ``test``, ``search``, ``are-table``, ``study``.
JSON (sorted keys) is the canonical output; text rendering is for human
eyes only.  Exit codes: 0 success, 1 usage or input error, 2 numerical
non-convergence.  The environment variable ``EGM_SEED`` supplies the
seed when no ``--seed`` flag is given.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from . import graphs, inference, mest, simulate
from .errors import ConvergenceError, _results

_INPUT_ERRORS = (ValueError, OSError)

DEFAULT_P_LIST = [4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 20, 30, 50]
DEFAULT_C_LIST = [0.0, -0.05, -0.1, -0.2, -0.3, -0.4, -0.49]


def read_data(path, header: bool = False) -> np.ndarray:
    """Read a comma-separated matrix of finite numbers; errors name the bad row.

    The file is parsed by ``np.loadtxt``.  A file it refuses, or one with a
    non-finite cell, is scanned by :func:`_scan_data`, which either names
    the bad row and column or reads the forms ``loadtxt`` refuses: blank and
    white-space lines, quoted cells.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            if header:
                next(csv.reader(fh), None)  # one record, as the scan skips it
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                X = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        with open(path, "rb") as fh:
            raw = fh.read()
        # loadtxt strips the separators \x1c-\x1f as white space; float() does not
        stray = any(c in raw for c in b"\x1c\x1d\x1e\x1f")
    except (ValueError, OSError, csv.Error):
        X, stray = None, True
    if stray or not X.size or not np.isfinite(X).all():
        return _scan_data(path, header)
    return X


def _scan_data(path, header: bool) -> np.ndarray:
    """The row-by-row ``csv.reader`` scan behind :func:`read_data`."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        width = None
        for lineno, row in enumerate(reader, start=1):
            if header and lineno == 1:
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                values = [float(x) for x in row]
            except ValueError:
                raise ValueError(f"{path}: row {lineno}: could not parse {row!r} as numbers")
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ValueError(
                    f"{path}: row {lineno}: expected {width} columns, got {len(values)}")
            if not all(map(math.isfinite, values)):
                col = next(c for c, v in enumerate(values, 1) if not math.isfinite(v))
                raise ValueError(f"{path}: row {lineno}, column {col}: {row[col - 1]!r} is not finite")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def matrix_json(A, null_diagonal: bool = False) -> dict:
    """Row-major nested-array encoding with a ``p`` field."""
    A = np.asarray(A, dtype=float)
    rows = []
    for i in range(A.shape[0]):
        row = [float(x) for x in A[i]]
        if null_diagonal:
            row[i] = None
        rows.append(row)
    return {"p": int(A.shape[0]), "rows": rows}


def _emit(payload, args) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("EGM_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ValueError(f"EGM_SEED must be an integer, got {env!r}") from None


def _fit_payload(fit) -> dict:
    K = np.linalg.inv(fit.scatter)
    return {
        "mu": [float(x) for x in fit.mu],
        "scatter": matrix_json(fit.scatter),
        "partial_correlations": matrix_json(inference.partial_correlation(K),
                                            null_diagonal=True),
        "iterations": fit.iterations,
        "converged": fit.converged,
        "residual": fit.residual,
    }


def cmd_fit(args) -> int:
    X = read_data(args.data, header=args.header)
    G = graphs.read_graph(args.graph)
    n, p = X.shape
    if p != G.p:
        raise ValueError(f"data has {p} columns but graph file declares p={G.p}")
    index = graphs.build_index(G)
    spec = mest.make_spec(args.estimator, p)
    payload = {"command": "fit", "estimator": args.estimator, "method": args.method,
               "n": n, "p": p}
    if args.family:
        s = mest.scalars_for(spec, args.family, p)
        payload["scalars"] = {"sigma1": s.sigma1, "sigma2": s.sigma2, "eta": s.eta}
    if args.method == "plugin":
        payload["plugin"] = _fit_payload(mest.plug_in_estimate(X, index, spec, tol=args.tol))
    elif args.method == "graphical":
        payload["graphical"] = _fit_payload(
            mest.graphical_m_estimate(X, index, spec, tol=args.tol))
    else:
        # one data check and one unconstrained fit serve both methods
        (plug, fit), = _results(mest._plug_in_and_graphical(
            mest._one(X, spec, index), index, spec, args.tol))
        payload["plugin"], payload["graphical"] = _fit_payload(plug), _fit_payload(fit)
    _emit(payload, args)
    return 0


def cmd_test(args) -> int:
    X = read_data(args.data, header=args.header)
    G0 = graphs.read_graph(args.graph0)
    G1 = graphs.read_graph(args.graph1)
    n, p = X.shape
    if p != G0.p or p != G1.p:
        raise ValueError(f"data has {p} columns but graphs declare p={G0.p} and p={G1.p}")
    spec = mest.make_spec(args.estimator, p)
    fit = mest.m_estimate(X, spec, tol=args.tol)
    sigma1 = inference.resolve_sigma1(spec, p, args.sigma1, args.family)
    report = inference.deviance(fit.scatter, graphs.build_index(G0),
                                graphs.build_index(G1), n, sigma1)
    payload = {"command": "test", "estimator": args.estimator}
    payload.update(report.to_dict())
    _emit(payload, args)
    return 0


def cmd_search(args) -> int:
    X = read_data(args.data, header=args.header)
    n, p = X.shape
    spec = mest.make_spec(args.estimator, p)
    sigma1 = inference.resolve_sigma1(spec, p, args.sigma1, args.family)
    try:
        final, steps = inference.backward_elimination(
            X, spec, args.alpha, sigma1=sigma1, tol=args.tol)
    except ConvergenceError as exc:
        # keep the partial audit trail available to the caller
        _emit({
            "command": "search",
            "error": str(exc),
            "final_graph": graphs.format_graph(getattr(exc, "graph", graphs.Graph.complete(p))),
            "steps": getattr(exc, "steps", []),
        }, args)
        sys.stderr.write(f"egm: {exc}\n")
        return 2
    payload = {
        "command": "search",
        "estimator": args.estimator,
        "alpha": args.alpha,
        "sigma1": sigma1,
        "n": n,
        "final_graph": graphs.format_graph(final),
        "edges": [list(e) for e in final.sorted_edges()],
        "steps": steps,
    }
    if args.graph_out:
        graphs.write_graph(final, args.graph_out)
    _emit(payload, args)
    return 0


def _round2(x: float) -> float:
    """Round half-up to two decimals, so that boundary cells such as
    ARE(4, -0.05) = 1.005 do not depend on the last bit of ``x``."""
    return float(Decimal(f"{x:.9f}").quantize(Decimal("0.01"), ROUND_HALF_UP))


def cmd_are_table(args) -> int:
    p_list = args.p_list or DEFAULT_P_LIST
    c_list = args.c_list or DEFAULT_C_LIST
    inference._check_cycles(p_list, c_list)  # the first bad cell in row order raises
    columns = [inference._are_cycle_table(p, c_list) for p in p_list]
    table = [[_round2(r.are) for r in row] for row in zip(*columns)]
    if args.format == "json" or args.output:
        _emit({"command": "are-table", "p": p_list, "c": c_list, "are": table}, args)
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["c"] + [str(p) for p in p_list])
        for c, row in zip(c_list, table):
            writer.writerow([c] + [f"{v:.2f}" for v in row])
    elif args.format == "text":
        head = "c\\p " + " ".join(f"{p:>6d}" for p in p_list)
        sys.stdout.write(head + "\n")
        for c, row in zip(c_list, table):
            sys.stdout.write(f"{c:>5.2f} " + " ".join(f"{v:6.2f}" for v in row) + "\n")
    return 0


def _load_shape(args, p: int) -> np.ndarray:
    if args.shape_csv:
        S = read_data(args.shape_csv)
        if S.shape != (p, p):
            raise ValueError(f"shape matrix is {S.shape}, expected ({p}, {p})")
        return S
    return np.eye(p)


def cmd_study(args) -> int:
    G = graphs.read_graph(args.graph)
    index = graphs.build_index(G)
    p = G.p
    spec = mest.make_spec(args.estimator, p)
    model = simulate.EllipticalModel(np.zeros(p), _load_shape(args, p), args.family)
    seed = _seed(args)
    if args.kind == "equivalence":
        n_grid = args.n_grid or ([args.n] if args.n else None)
        if not n_grid:
            raise ValueError("equivalence study needs --n or --n-grid")
        report = simulate.equivalence_study(index, model, spec, n_grid,
                                            args.replicates, seed, tol=args.tol)
    else:
        if not args.graph1:
            raise ValueError("deviance-null study needs --graph1 (the larger model)")
        if not args.n:
            raise ValueError("deviance-null study needs --n")
        index1 = graphs.build_index(graphs.read_graph(args.graph1))
        report = simulate.deviance_null_study(index, index1, model, spec,
                                              args.n, args.replicates, seed,
                                              tol=args.tol)
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(report.csv_rows())
    _emit(report.to_dict(), args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egm",
        description="Robust estimation and testing in elliptical graphical models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, data=True):
        if data:
            sp.add_argument("--data", required=True, help="CSV data file, n rows x p columns")
            sp.add_argument("--header", action="store_true",
                            help="skip the first CSV row")
        sp.add_argument("--estimator", required=True,
                        help="estimator spec: gaussian, t:NU, or huber:K")
        sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--output", help="write JSON here instead of stdout")

    sp = sub.add_parser("fit", help="fit constrained location/scatter")
    common(sp)
    sp.add_argument("--graph", required=True, help="graph file")
    sp.add_argument("--method", choices=["plugin", "graphical", "both"], default="plugin")
    sp.add_argument("--family", help="data family for asymptotic scalars (gaussian, t:NU)")
    sp.set_defaults(handler=cmd_fit)

    sp = sub.add_parser("test", help="deviance test of nested graphs")
    common(sp)
    sp.add_argument("--graph0", required=True, help="null (smaller) graph file")
    sp.add_argument("--graph1", required=True, help="alternative (larger) graph file")
    sp.add_argument("--sigma1", type=float, help="explicit sigma1 rescaling")
    sp.add_argument("--family", help="derive sigma1 from this data family")
    sp.set_defaults(handler=cmd_test)

    sp = sub.add_parser("search", help="backward elimination model search")
    common(sp)
    sp.add_argument("--alpha", type=float, required=True, help="significance level")
    sp.add_argument("--sigma1", type=float)
    sp.add_argument("--family")
    sp.add_argument("--graph-out", help="also write the final graph file here")
    sp.set_defaults(handler=cmd_search)

    sp = sub.add_parser("are-table", help="asymptotic relative efficiency grid")
    sp.add_argument("--p-list", type=int, nargs="+")
    sp.add_argument("--c-list", type=float, nargs="+")
    sp.add_argument("--format", choices=["text", "csv", "json"], default="text")
    sp.add_argument("--output", help="write JSON here (in addition to stdout rendering)")
    sp.set_defaults(handler=cmd_are_table)

    sp = sub.add_parser("study", help="seeded Monte Carlo study")
    sp.add_argument("--kind", choices=["equivalence", "deviance-null"], required=True)
    sp.add_argument("--graph", required=True, help="graph file (null graph for deviance-null)")
    sp.add_argument("--graph1", help="larger-model graph file (deviance-null only)")
    sp.add_argument("--family", required=True, help="data family: gaussian or t:NU")
    sp.add_argument("--estimator", required=True)
    sp.add_argument("--shape-csv", help="model shape matrix as CSV (default identity)")
    sp.add_argument("--n", type=int)
    sp.add_argument("--n-grid", type=int, nargs="+")
    sp.add_argument("--replicates", type=int, required=True)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--csv-out", help="write per-replicate metrics as CSV here")
    sp.add_argument("--output", help="write JSON here instead of stdout")
    sp.set_defaults(handler=cmd_study)

    for name, sp in sub.choices.items():
        if name != "study":
            sp.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; 2 is reserved for
        # non-convergence here, so usage problems map to 1.
        return 0 if not exc.code else 1
    try:
        return args.handler(args)
    except ConvergenceError as exc:
        sys.stderr.write(f"egm: {exc}\n")
        return 2
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"egm: {exc}\n")
        return 1


def entry_point() -> None:
    sys.exit(main())
