"""Parity set of the M-estimators: evaluations, and distance to a tight reference.

The set has 72 fits.  Data: the chordless p-cycle shapes with partial
correlation -0.3, p in {5, 10}, and rows ``sample(EllipticalModel(0, shape,
family), n, 9)`` with family t:5, t:1 or gaussian, n in {300, 4000}.
Estimators: t:5, huber:1.345 and t:1, each plain (``m_estimate``) and
graphical (``graphical_m_estimate`` on the cycle).

``run`` fits every case at ``--tol`` (1e-9) and at 1e-13, with the egm
package found on ``--src``, and writes one JSON record per fit: its map
evaluations, its estimate, and its distance to the tol-1e-13 reference,
max(|d mu|, |d S| / max(1, max|S_ref|)).  Where the reference does not
converge at 1e-13, the next of 1e-12 and 1e-11 that converges is taken, and
the record names it.  ``compare`` reads two such files and prints the
largest deviation between their estimates, their evaluation totals and the
fits that lie beyond tol of their references.

A fixed block of copies, a X + b for (a, b) in (1e-6, 0), (1e6, 0) and
(1, 1e6), of the 18 p=5, n=4000 cases is fitted the same way and summed on
its own line, so the totals of the 72 fits stay comparable.  Its distance
is taken in the estimate's units, max(|d mu_j| / max(d_j, |mu_j|), |d S_ij|
/ (d_i d_j)), d = sqrt(diag S_ref), as a and b change any absolute one.

    python tools/parity.py run --src src -o new.json
    python tools/parity.py run --src ../parent/src -o old.json
    python tools/parity.py compare old.json new.json

It needs numpy and egm only, and is not part of the test suite.
"""

import argparse
import json
import sys
import time

import numpy as np

REF_TOLS = (1e-13, 1e-12, 1e-11)
# (a, b) of the copies a X + b of the p=5, n=4000 cases
COPIES = ((1e-6, 0.0), (1e6, 0.0), (1.0, 1e6))


def cases():
    """(name, p, family, n, estimator, graphical) of every fit in the set."""
    for p in (5, 10):
        for family in ("t:5", "t:1", "gaussian"):
            for n in (300, 4000):
                for est in ("t:5", "huber:1.345", "t:1"):
                    for graphical in (False, True):
                        kind = "graphical" if graphical else "plain"
                        yield f"p{p}/{family}/n{n}/{est}/{kind}", p, family, n, est, graphical


def distance(mu, S, mu_ref, S_ref):
    """max(|d mu|, |d S| / max(1, max|S_ref|)), max-abs over the entries."""
    unit = max(1.0, float(np.max(np.abs(S_ref))))
    return max(float(np.max(np.abs(np.asarray(mu) - mu_ref))),
               float(np.max(np.abs(np.asarray(S) - S_ref))) / unit)


def unit_distance(mu, S, mu_ref, S_ref):
    """The distance in the units of the reference fit, d = sqrt(diag S_ref)."""
    d = np.sqrt(np.diag(S_ref))
    return max(float(np.max(np.abs(np.asarray(mu) - mu_ref) / np.maximum(d, np.abs(mu_ref)))),
               float(np.max(np.abs(np.asarray(S) - S_ref) / np.outer(d, d))))


def record(fit, tol: float, metric) -> dict:
    """Evaluations, estimate and ``metric`` distance to the tight reference
    of ``fit(t, max_iter)``, or its error."""
    import egm

    rec = {}
    try:
        f = fit(tol, 500)
        rec.update(evaluations=f.iterations, mu=f.mu.tolist(), scatter=f.scatter.tolist())
    except egm.ConvergenceError as exc:
        rec["error"] = str(exc)
    for t in REF_TOLS:
        try:
            ref = fit(t, 5000)
        except egm.ConvergenceError:
            continue
        rec["ref_tol"] = t
        if "mu" in rec:
            rec["distance"] = metric(rec["mu"], rec["scatter"], ref.mu, ref.scatter)
        break
    return rec


def run(src: str, tol: float, out: str) -> None:
    sys.path.insert(0, src)
    import egm
    from egm import EllipticalModel, Graph, build_index, chordless_cycle_shape, make_spec, sample

    records, copies = {}, {}
    t0 = time.perf_counter()
    for name, p, family, n, est, graphical in cases():
        X = sample(EllipticalModel(np.zeros(p), chordless_cycle_shape(p, -0.3)[1], family), n, 9)
        spec, index = make_spec(est, p), build_index(Graph.cycle(p))

        def fit(Y, t, max_iter):
            if graphical:
                return egm.graphical_m_estimate(Y, index, spec, tol=t, max_iter=max_iter)
            return egm.m_estimate(Y, spec, tol=t, max_iter=max_iter)

        records[name] = record(lambda t, m: fit(X, t, m), tol, distance)
        for a, b in COPIES if (p, n) == (5, 4000) else ():
            copies[f"{name}/{a:g}X+{b:g}"] = record(lambda t, m: fit(a * X + b, t, m), tol,
                                                    unit_distance)
    payload = {"src": src, "tol": tol, "seconds": time.perf_counter() - t0, "fits": records,
               "copies": copies}
    with open(out, "w") as fh:
        json.dump(payload, fh)
    summary(payload)


def summary(payload) -> None:
    tol = payload["tol"]
    # files written before the copies were added have no "copies" block
    for label, fits in (("fits", payload["fits"]), ("scaled or shifted copies",
                                                    payload.get("copies"))):
        if fits is None:
            continue
        ok = [r for r in fits.values() if "mu" in r]
        far = sorted((r["distance"], k) for k, r in fits.items() if r.get("distance", 0.0) > tol)
        print(f"{payload['src']}: {len(ok)} of {len(fits)} {label} converged, "
              f"{sum(r['evaluations'] for r in ok)} evaluations, "
              f"worst distance {max((r.get('distance', 0.0) for r in ok), default=0.0):.2e}, "
              f"{len(far)} beyond tol={tol:g}")
        for d, k in far:
            print(f"  {k}: {d:.2e}")
        loose = [k for k, r in fits.items() if r.get("ref_tol", REF_TOLS[0]) != REF_TOLS[0]]
        for k in loose:
            print(f"  {k}: reference at tol {fits[k].get('ref_tol', 'none')}")


def compare(old: str, new: str) -> None:
    with open(old) as fh:
        a = json.load(fh)
    with open(new) as fh:
        b = json.load(fh)
    for payload in (a, b):
        summary(payload)
    both = [k for k in a["fits"] if "mu" in a["fits"][k] and "mu" in b["fits"].get(k, {})]
    dev = [(distance(b["fits"][k]["mu"], b["fits"][k]["scatter"],
                     np.array(a["fits"][k]["mu"]), np.array(a["fits"][k]["scatter"])), k)
           for k in both]
    worst, key = max(dev)
    print(f"largest deviation between the two: {worst:.2e} ({key})")
    closer = sum(b["fits"][k]["distance"] <= a["fits"][k]["distance"] for k in both
                 if "distance" in a["fits"][k] and "distance" in b["fits"][k])
    print(f"fits at least as close to their reference in the second file: {closer} of {len(both)}")
    for k in sorted(set(a["fits"]) | set(b["fits"])):
        ea, eb = (x["fits"].get(k, {}).get("error") for x in (a, b))
        if ea or eb:
            first, second = ("fails" if e else "converges" for e in (ea, eb))
            print(f"  {k}: first {first}, second {second}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="fit the parity set and write a JSON file")
    r.add_argument("--src", required=True, help="directory that holds the egm package")
    r.add_argument("--tol", type=float, default=1e-9)
    r.add_argument("-o", "--out", required=True)
    c = sub.add_parser("compare", help="compare two files written by run")
    c.add_argument("old")
    c.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.src, args.tol, args.out)
    else:
        compare(args.old, args.new)


if __name__ == "__main__":
    main()
