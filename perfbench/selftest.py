"""Self-test of the benchmark at tiny input sizes (about a minute).

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that BENCHMARK.json keeps the benchmark contract's limits; that
every workload, traced and untraced, ends its output with one JSON line
of the declared schema, correct and with every metric non-zero where the
contract asks for it; that an injected failing operation is counted in
``failed`` and raises ``failed_ops_frac``; and that the benchmark refuses,
with a non-zero exit and no result line, to run where there is no
``src/egm``.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec: dict) -> list:
    probs = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        probs.append(f"BENCHMARK.json keys {sorted(spec)}")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        probs.append("run_seconds must be a whole number in 1..60")
    if not 2 <= len(spec["workloads"]) <= 8:
        probs.append("2 to 8 workloads")
    names = []
    for w in spec["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            probs.append(f"workload {w['name']}: needs exactly a name and a one-line why")
    for group, keys_ in (("end_to_end", {"name", "unit", "better", "bound"}),
                         ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            names.append(m["name"])
            if set(m) != keys_ or not UNIT.fullmatch(m["unit"]) or \
                    m["better"] not in ("lower", "higher"):
                probs.append(f"{group} metric {m['name']} is malformed")
            if group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                probs.append(f"bound of {m['name']} must be in (0, 0.25]")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"]):
        probs.append("setup_s (s, lower) is missing")
    bad = [n for n in names if not NAME.fullmatch(n)]
    if bad or len(names) != len(set(names)):
        probs.append(f"names invalid or repeated: {bad}")
    if len(json.dumps(spec)) > 64 * 1024:
        probs.append("BENCHMARK.json above 64 KiB")
    return probs


def run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(args, spec, group: str, probs: list):
    proc = run(args)
    label = " ".join(args)
    if proc.returncode != 0:
        probs.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return None
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        probs.append(f"{label}: result keys {sorted(res)}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]):
        probs.append(f"{label}: attempted/failed {res['attempted']}/{res['failed']}")
    declared = {m["name"]: m["unit"] for m in spec[group]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != declared:
        probs.append(f"{label}: metrics differ from BENCHMARK.json {group}")
    for k, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)) or (group == "end_to_end" and v["value"] <= 0):
            probs.append(f"{label}: {k} = {v['value']}")
    if res["correct"] is not True:
        probs.append(f"{label}: output checks failed:\n{proc.stdout[-1500:]}")
    return res


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    probs = check_spec(spec)
    tiny = ["--scale", "tiny", "--seconds", "1", "--seed", "7"]
    for w in spec["workloads"]:
        result(["--workload", w["name"], *tiny, "--trace", "0"], spec, "end_to_end", probs)
    wl = spec["workloads"][0]["name"]
    base = result(["--workload", wl, *tiny, "--trace", "1"], spec, "per_layer", probs)
    hurt = result(["--workload", wl, *tiny, "--trace", "1", "--inject-failure"],
                  spec, "per_layer", probs)
    if base and hurt:
        before = base["metrics"]["failed_ops_frac"]["value"]
        after = hurt["metrics"]["failed_ops_frac"]["value"]
        if not (after > before and hurt["failed"] > base["failed"]):
            probs.append(f"injected failure not counted: failed_ops_frac {before} -> {after}")

    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(["--workload", wl, *tiny], cwd=bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        probs.append("benchmark ran without src/egm")
    shutil.rmtree(bare, ignore_errors=True)

    for p in probs:
        print(f"FAIL {p}")
    print("selftest: " + ("ok" if not probs else f"{len(probs)} problem(s)"))
    return 1 if probs else 0


if __name__ == "__main__":
    sys.exit(main())
