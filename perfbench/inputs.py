"""Seeded input generation for the egm benchmark.

Everything the program under test receives is made here, from the
workload seed alone, with numpy and without importing ``egm``: CSV data
files, graph files, the shape CSV of the study model, the dense matrix of
the covariance operation and the integer seeds of the studies.  The same
seed gives byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: partial correlation along the chordless cycle of every generated model
CYCLE_C = -0.3
#: t degrees of freedom of the generated rows
T_NU = 5.0

WORKLOAD_IDS = {"null-study": 1, "equiv-study": 2, "model-select": 3, "fit-large": 4}

#: inputs for at most this many cycles are generated; a run stops there
MAX_CYCLES = 48

#: workload sizes; "tiny" is the self-test's scale
SIZES = {
    "full": {
        "null_replicates": 100,
        "equiv_replicates": 4,
        "equiv_n_grid": [250, 1000, 4000],
        "search_p": 8,
        "search_n": 500,
        "are_p": None,  # the CLI default grid, all 91 cells
        "are_c": None,
        "acov_p": 30,
        "large_n": 50_000,
        "huber_n": 4_000,
        "large_p": 10,
    },
    "tiny": {
        "null_replicates": 4,
        "equiv_replicates": 1,
        "equiv_n_grid": [250, 1000],
        "search_p": 5,
        "search_n": 300,
        "are_p": [5, 7],
        "are_c": [-0.3],
        "acov_p": 8,
        "large_n": 2_000,
        "huber_n": 500,
        "large_p": 10,
    },
}


def cycle_concentration(p: int, c: float = CYCLE_C) -> np.ndarray:
    """Circulant concentration with partial correlation c along the p-cycle."""
    K = np.eye(p)
    for i in range(p):
        K[i, (i + 1) % p] = K[(i + 1) % p, i] = -c
    return K


def cycle_shape(p: int, c: float = CYCLE_C) -> np.ndarray:
    return np.linalg.inv(cycle_concentration(p, c))


def t_rows(rng, S: np.ndarray, n: int, nu: float = T_NU) -> np.ndarray:
    """n rows of a centred elliptical t with shape S."""
    w, v = np.linalg.eigh(S)
    root = (v * np.sqrt(w)) @ v.T
    Z = rng.standard_normal((n, S.shape[0]))
    Z /= np.sqrt(rng.chisquare(nu, n) / nu)[:, None]
    return Z @ root


def write_csv(path: Path, X: np.ndarray) -> None:
    """Full-precision CSV, so the program reads back the generated doubles."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(",".join(repr(x) for x in row) for row in X.tolist()))
        fh.write("\n")


def write_graph(path: Path, p: int, edges) -> None:
    lines = [f"p {p}"] + [f"{a} {b}" for a, b in sorted(edges)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cycle_edges(p: int) -> list:
    return [(i, i + 1) for i in range(1, p)] + [(1, p)]


def _rng(seed: int, workload: str, *key: int):
    return np.random.default_rng(np.random.SeedSequence([seed, WORKLOAD_IDS[workload], *key]))


def _study_seed(seed: int, workload: str, cycle: int) -> int:
    return int(_rng(seed, workload, cycle, 0).integers(0, 2**31 - 1))


def generate(workload: str, seed: int, scale: str, root: Path) -> dict:
    """Write the inputs of one run into ``root`` and return its manifest.

    The manifest lists, per cycle, the files and integer seeds the worker
    hands to the program, plus the sizes every operation is labelled with.
    """
    size = SIZES[scale]
    root.mkdir(parents=True, exist_ok=True)
    m = {"workload": workload, "seed": seed, "scale": scale, "size": size, "cycles": []}

    if workload in ("null-study", "equiv-study"):
        write_graph(root / "cycle5.g", 5, cycle_edges(5))
        write_graph(root / "cycle5_chord.g", 5, cycle_edges(5) + [(1, 3)])
        write_csv(root / "shape5.csv", cycle_shape(5))
        m["cycles"] = [{"study_seed": _study_seed(seed, workload, c)} for c in range(MAX_CYCLES)]

    elif workload == "model-select":
        p, n = size["search_p"], size["search_n"]
        S = cycle_shape(p)
        for c in range(MAX_CYCLES):
            path = root / f"search_{c}.csv"
            write_csv(path, t_rows(_rng(seed, workload, c, 1), S, n))
            m["cycles"].append({"search_csv": path.name})
        q = size["acov_p"]
        # a dense SPD matrix whose inverse has mass everywhere, so the
        # general (Jacobian) form of the covariance is the one evaluated
        G = _rng(seed, workload, 0, 2).standard_normal((q, 2 * q))
        V = G @ G.T / (2 * q) + 0.5 * np.eye(q)
        np.save(root / "acov_v.npy", V)
        write_graph(root / f"cycle{q}.g", q, cycle_edges(q))

    elif workload == "fit-large":
        p = size["large_p"]
        S = cycle_shape(p)
        write_graph(root / f"cycle{p}.g", p, cycle_edges(p))
        write_csv(root / "large.csv", t_rows(_rng(seed, workload, 0, 1), S, size["large_n"]))
        write_csv(root / "huber.csv", t_rows(_rng(seed, workload, 0, 2), S, size["huber_n"]))
        m["cycles"] = [{} for _ in range(MAX_CYCLES)]
    else:
        raise ValueError(f"unknown workload {workload!r}")

    (root / "manifest.json").write_text(json.dumps(m, indent=1), encoding="utf-8")
    return m
