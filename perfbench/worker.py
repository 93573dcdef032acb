"""Run one benchmark workload in a fresh process and record what it measured.

Started by ``run.py`` with the manifest of pre-generated inputs.  The
workload is a closed loop with one caller: cycle after cycle, each cycle
runs the workload's operations one after another through the public CLI
(``egm.cli.main(argv)``, in-process) or the library, times each one, and
checks its output outside the timed region.  Cycles start until
``--seconds`` have passed.  With ``--trace 1`` every cycle runs twice on
the same inputs, untraced and then traced, and the two outputs must be
bit-identical.  The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stderr
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from egm import cli

import checks
from tracer import Tracer, layer_metrics, self_by_key


@dataclass
class Op:
    """One timed operation of a cycle.

    ``run(tag)`` performs it and returns the raw result (a CLI exit code
    or an array); ``tag`` keeps the output files of the untraced and the
    traced pass apart.  ``output`` turns the raw result into the bytes
    compared between the passes, ``check`` into (failed units, problems).
    """

    name: str
    meta: dict
    units: int
    run: Callable[[str], object]
    output: Callable[[object, str], bytes]
    check: Callable[[bytes], tuple]


def cli_op(name, meta, argv, out_stem: Path, check, units=1) -> Op:
    def path(tag):
        return out_stem.with_name(f"{out_stem.name}{tag}.json")

    def run(tag):
        return cli.main(argv + ["--output", str(path(tag))])

    def output(rc, tag):
        if rc != 0:
            raise OpFailed(f"exit {rc}")
        return path(tag).read_bytes()

    return Op(name, meta, units, run, output, lambda data: check(json.loads(data)))


def lib_op(name, meta, fn, check) -> Op:
    def output(arr, tag):
        return np.ascontiguousarray(arr).tobytes()

    return Op(name, meta, 1, lambda tag: fn(), output, check)


class OpFailed(Exception):
    """An operation ended without output (non-zero exit)."""


def build_ops(manifest: dict, cycle: int, work: Path, inject_failure: bool) -> list:
    """The operations of one cycle of the manifest's workload."""
    size = manifest["size"]
    spec = manifest["cycles"][cycle]
    wl = manifest["workload"]
    ops = []
    if wl == "null-study":
        R = size["null_replicates"]
        for est in ("gaussian", "t:5"):
            argv = ["study", "--kind", "deviance-null", "--graph", str(work / "cycle5.g"),
                    "--graph1", str(work / "cycle5_chord.g"), "--family", est,
                    "--estimator", est, "--shape-csv", str(work / "shape5.csv"),
                    "--n", "500", "--replicates", str(R), "--seed", str(spec["study_seed"])]
            ops.append(cli_op(
                f"study deviance-null {est}",
                {"p": 5, "n": 500, "graph": "cycle5 vs cycle5+(1,3)", "estimator": est,
                 "replicates": R},
                argv, work / f"null-{est.replace(':', '')}-c{cycle}",
                checks.NullStudy(work, est, spec["study_seed"], R), units=R))
    elif wl == "equiv-study":
        R, grid = size["equiv_replicates"], size["equiv_n_grid"]
        for est in ("t:5", "gaussian"):
            argv = ["study", "--kind", "equivalence", "--graph", str(work / "cycle5.g"),
                    "--family", est, "--estimator", est,
                    "--shape-csv", str(work / "shape5.csv"),
                    "--n-grid", *map(str, grid), "--replicates", str(R),
                    "--seed", str(spec["study_seed"])]
            ops.append(cli_op(
                f"study equivalence {est}",
                {"p": 5, "n": grid, "graph": "cycle5", "estimator": est, "replicates": R},
                argv, work / f"equiv-{est.replace(':', '')}-c{cycle}",
                checks.EquivStudy(work, est, spec["study_seed"], R, grid), units=R * len(grid)))
    elif wl == "model-select":
        p, n = size["search_p"], size["search_n"]
        data = work / spec["search_csv"]
        for est in ("gaussian", "t:5"):
            argv = ["search", "--data", str(data), "--estimator", est, "--alpha", "0.05",
                    "--family", "t:5"]
            ops.append(cli_op(
                f"search {est}", {"p": p, "n": n, "graph": f"complete({p}) backward",
                                  "estimator": est},
                argv, work / f"search-{est.replace(':', '')}-c{cycle}",
                checks.Search(data, est, 0.05)))
        argv = ["are-table", "--format", "json"]
        if size["are_p"]:
            argv += ["--p-list", *map(str, size["are_p"]), "--c-list", *map(str, size["are_c"])]
        ops.append(cli_op("are-table", {"p": size["are_p"] or "4..50", "n": None,
                                        "graph": "cycles", "estimator": None},
                          argv, work / f"are-c{cycle}", checks.AreTable()))
        q = size["acov_p"]
        acov = checks.Acov(work / "acov_v.npy", work / f"cycle{q}.g")
        ops.append(lib_op("constrained_scatter_acov general",
                          {"p": q, "n": None, "graph": f"cycle{q}", "estimator": None},
                          acov.compute, acov))
    elif wl == "fit-large":
        p = size["large_p"]
        graph = work / f"cycle{p}.g"
        big, small = work / "large.csv", work / "huber.csv"
        argv = ["fit", "--data", str(big), "--graph", str(graph), "--method", "both",
                "--estimator", "t:5", "--family", "t:5"]
        ops.append(cli_op("fit both t:5", {"p": p, "n": size["large_n"], "graph": f"cycle{p}",
                                           "estimator": "t:5"},
                          argv, work / f"fit-t5-c{cycle}", checks.Fit(big, graph, "t:5", "both")))
        argv = ["fit", "--data", str(small), "--graph", str(graph), "--estimator", "huber:1.345"]
        ops.append(cli_op("fit plugin huber:1.345",
                          {"p": p, "n": size["huber_n"], "graph": f"cycle{p}",
                           "estimator": "huber:1.345"},
                          argv, work / f"fit-huber-c{cycle}",
                          checks.Fit(small, graph, "huber:1.345", "plugin")))
    else:
        raise ValueError(f"unknown workload {wl!r}")
    if inject_failure:
        argv = ["fit", "--data", str(work / "missing.csv"), "--graph", str(work / "missing.g"),
                "--estimator", "gaussian"]
        ops.append(cli_op("injected failure", {"p": None, "n": None, "graph": None,
                                               "estimator": "gaussian"},
                          argv, work / f"injected-c{cycle}", lambda payload: (0, [])))
    return ops


def run_pass(ops, tag: str, cycle: int, tracer=None) -> list:
    """Run every op once; time it; collect its output outside the timing."""
    records = []
    for op in ops:
        err = io.StringIO()
        raw, error = None, None
        with redirect_stderr(err), tracer or nullcontext():
            t0 = time.perf_counter()
            try:
                raw = op.run(tag)
            except Exception as exc:  # a crash is a failed op, not a benchmark error
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        data = None
        if error is None:
            try:
                data = op.output(raw, tag)
            except OpFailed as exc:
                error = str(exc)
        records.append({"op": op, "cycle": cycle, "traced": tracer is not None,
                        "seconds": t1 - t0, "data": data, "error": error,
                        "stderr": err.getvalue()[-300:].strip()})
    return records


def account(rec) -> dict:
    """Check one record's output: units attempted and failed, problems."""
    op = rec["op"]
    if rec["error"] is not None:
        return {"units": op.units, "failed": op.units, "problems": [], "status": rec["error"]}
    try:
        failed, problems = op.check(rec["data"])
    except Exception as exc:  # a check that cannot run is a failed check
        failed, problems = op.units, [f"check raised {type(exc).__name__}: {exc}"]
    if problems:
        failed = op.units
    return {"units": op.units, "failed": failed, "problems": problems,
            "status": "ok" if not problems else "check failed"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--inject-failure", action="store_true")
    ap.add_argument("--src", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    if Path(cli.__file__).resolve().parent != (Path(args.src) / "egm").resolve():
        sys.stderr.write(f"perfbench: egm imported from {cli.__file__}, not {args.src}\n")
        return 2

    manifest_path = Path(args.manifest)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    work = manifest_path.parent
    tracer = Tracer() if args.trace else None

    cycles, ops_log, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    for cycle in range(len(manifest["cycles"])):
        ops = build_ops(manifest, cycle, work, args.inject_failure)
        plain = run_pass(ops, "", cycle)
        traced = []
        if tracer is not None:
            tracer.cycle = cycle
            traced = run_pass(ops, "-traced", cycle, tracer)
        entry = {"untraced_s": sum(r["seconds"] for r in plain), "completed": 0,
                 "traced_s": sum(r["seconds"] for r in traced)}
        accs = [account(r) for r in plain]
        for rec, acc in zip(plain, accs):
            attempted += acc["units"]
            failed += acc["failed"]
            entry["completed"] += acc["units"] - acc["failed"]
            problems += [f"cycle {cycle} {rec['op'].name}: {p}" for p in acc["problems"]]
            ops_log.append({"cycle": cycle, "traced": False, "op": rec["op"].name,
                            **rec["op"].meta, "seconds": rec["seconds"],
                            "units": acc["units"], "failed": acc["failed"],
                            "status": acc["status"], "stderr": rec["stderr"]})
        for t, u, acc in zip(traced, plain, accs):
            attempted += acc["units"]
            failed += acc["failed"]
            if t["data"] != u["data"] or t["error"] != u["error"]:
                problems.append(f"cycle {cycle} {t['op'].name}: traced output differs")
            ops_log.append({"cycle": cycle, "traced": True, "op": t["op"].name,
                            **t["op"].meta, "seconds": t["seconds"],
                            "status": t["error"] or "ok"})
        cycles.append(entry)
        if time.perf_counter() - start >= args.seconds:
            break

    untraced = [c["untraced_s"] for c in cycles]
    # per-operation medians, so a burst of host noise that hits one
    # operation of one cycle does not move the cycle's figure
    by_op = {}
    for o in ops_log:
        if not o["traced"]:
            by_op.setdefault(o["op"], []).append(o["seconds"])
    wall = sum(statistics.median(v) for v in by_op.values())
    result = {
        "cycles": len(cycles),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "ops": ops_log,
        "end_to_end": {
            "wall_s": wall,
            "replicates_per_s": statistics.median(c["completed"] for c in cycles) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    if tracer is not None:
        traced_wall = statistics.fmean(c["traced_s"] for c in cycles)
        layers = layer_metrics(tracer.spans, len(cycles), traced_wall)
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - statistics.fmean(untraced)
        layers["failed_ops_frac"] = failed / attempted
        result["per_layer"] = layers
        result["spans"] = len(tracer.spans)
        top = sorted(self_by_key(tracer.spans).items(), key=lambda kv: -kv[1])[:12]
        result["self_s_by_function"] = {k: v / len(cycles) for k, v in top}
        if args.spans:
            tracer.write(args.spans)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
