"""egm benchmark: one seeded workload per run, checked outputs, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload null-study --seed 1 --seconds 18 --trace 0

Workloads are listed in BENCHMARK.json and described in perfbench/README.md.
A run generates the workload's inputs from ``--seed`` into a scratch
directory of the checkout, measures ``setup_s`` (a fresh process that
imports egm and builds the CLI parser, several times), then runs the
workload in one more fresh process (``worker.py``) for ``--seconds``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``,
each named and with its unit as in BENCHMARK.json.  ``--workload all``
runs every workload, each in its own process.

Exit codes: 0 with a result line; 1 when the run could not produce one
(no ``src/egm`` to benchmark, a worker that crashed or timed out).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

SETUP_RUNS = 3
SETUP_CODE = "import egm.cli; egm.cli.build_parser()"
#: a run must end within 180 s; the worker gets what is left after set-up
WORKER_TIMEOUT = 150


def fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 1


def threads() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def child_env() -> dict:
    """Environment of every child: the checkout's egm first, BLAS threads pinned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    n = str(threads())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = n
    return env


def environment() -> dict:
    import numpy
    import scipy
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((ROOT / "src" / "egm").glob("*.py")))
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "blas_threads": threads(),
            "src_egm_lines": lines}


def measure_setup(env: dict) -> list:
    """Wall time of fresh processes that import egm and build the parser."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=20)
        times.append(time.perf_counter() - t0)
    return times


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def run_one(args) -> int:
    declared = declared_metrics()[str(args.trace)]
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = child_env()
    try:
        manifest = inputs.generate(args.workload, args.seed, args.scale, work)
        setup = measure_setup(env)
        result_path = work / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--manifest", str(work / "manifest.json"),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--src", str(ROOT / "src"), "--out", str(result_path)]
        if args.trace:
            cmd += ["--spans", str(OUT / f"spans-{tag}.tsv")]
        if args.inject_failure:
            cmd.append("--inject-failure")
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            return fail(f"worker exceeded {WORKER_TIMEOUT} s")
        if proc.returncode != 0 or not result_path.is_file():
            return fail(f"worker exited with {proc.returncode}")
        res = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = dict(res["per_layer"]) if args.trace else dict(res["end_to_end"], setup_s=statistics.median(setup))
    if set(values) != set(declared):
        return fail(f"metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json")
    env_info = environment()
    (OUT / f"ops-{tag}.json").write_text(json.dumps(
        {"environment": env_info, "size": manifest["size"], "setup_runs_s": setup,
         "cycles": res["cycles"], "problems": res["problems"], "ops": res["ops"]}, indent=1),
        encoding="utf-8")

    print(f"environment: {json.dumps(env_info)}")
    print(f"workload {args.workload} seed {args.seed}: {res['cycles']} cycles, "
          f"setup runs {[round(t, 4) for t in setup]} s")
    by_op = {}
    for o in res["ops"]:
        by_op.setdefault((o["op"], o["traced"]), []).append(o)
    for (name, traced), rows in by_op.items():
        meta = {k: rows[0][k] for k in ("p", "n", "graph", "estimator")}
        print(f"  {'traced ' if traced else ''}{name}: median "
              f"{statistics.median(r['seconds'] for r in rows):.4f} s over {len(rows)} "
              f"{json.dumps(meta)} status {sorted({r['status'] for r in rows})}")
    if args.trace:
        print(f"  spans: {res['spans']} written to {OUT.name}/spans-{tag}.tsv; "
              f"traced wall {values['trace.wall_s']:.4f} s per cycle, "
              f"overhead {values['trace.overhead_s']:+.4f} s; self time per cycle:")
        for key, v in res["self_s_by_function"].items():
            print(f"    {key}: {v:.4f} s")
    for p in res["problems"][:20]:
        print(f"  PROBLEM {p}")
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": declared[k]} for k in declared},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in inputs.WORKLOAD_IDS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        if args.inject_failure:
            cmd.append("--inject-failure")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return fail(f"workload {wl} exited with {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{wl}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*inputs.WORKLOAD_IDS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=sorted(inputs.SIZES), default="full",
                    help="input sizes; 'tiny' is the self-test's")
    ap.add_argument("--inject-failure", action="store_true",
                    help="add an operation that fails (self-test)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "egm" / "__init__.py").is_file():
        return fail(f"no egm sources under {ROOT / 'src'}; run from a full checkout")
    OUT.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
