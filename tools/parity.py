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


def run(src: str, tol: float, out: str) -> None:
    sys.path.insert(0, src)
    import egm
    from egm import EllipticalModel, Graph, build_index, chordless_cycle_shape, make_spec, sample

    records = {}
    t0 = time.perf_counter()
    for name, p, family, n, est, graphical in cases():
        X = sample(EllipticalModel(np.zeros(p), chordless_cycle_shape(p, -0.3)[1], family), n, 9)
        spec, index = make_spec(est, p), build_index(Graph.cycle(p))

        def fit(t, max_iter=500):
            if graphical:
                return egm.graphical_m_estimate(X, index, spec, tol=t, max_iter=max_iter)
            return egm.m_estimate(X, spec, tol=t, max_iter=max_iter)

        rec = {}
        try:
            f = fit(tol)
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
                rec["distance"] = distance(rec["mu"], rec["scatter"], ref.mu, ref.scatter)
            break
        records[name] = rec
    payload = {"src": src, "tol": tol, "seconds": time.perf_counter() - t0, "fits": records}
    with open(out, "w") as fh:
        json.dump(payload, fh)
    summary(payload)


def summary(payload) -> None:
    fits, tol = payload["fits"], payload["tol"]
    ok = [r for r in fits.values() if "mu" in r]
    far = sorted((r["distance"], k) for k, r in fits.items() if r.get("distance", 0.0) > tol)
    print(f"{payload['src']}: {len(ok)} of {len(fits)} fits converged, "
          f"{sum(r['evaluations'] for r in ok)} evaluations, "
          f"worst distance {max(r.get('distance', 0.0) for r in ok):.2e}, "
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
