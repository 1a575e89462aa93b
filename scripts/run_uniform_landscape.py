#!/usr/bin/env python3
"""Uniform folding path and the tailorable bistable landscape family.

Writes the uniform path (psi, rho_M, rho_B, rho_S) and one energy curve
per rest angle of the opposed-rest family rest_M = -rest_B, plus the
bistability report of each curve.
"""
import argparse
import json
import os

import numpy as np

import leafout as lf
from leafout import io as lio


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/uniform_landscape")
    ap.add_argument("--n-cell", type=int, default=5)
    ap.add_argument("--L1", type=float, default=70.0)
    ap.add_argument("--L2", type=float, default=30.0)
    ap.add_argument("--rest-deg", type=float, nargs="+",
                    default=[0.0, 30.0, 60.0, 90.0, 120.0, 150.0])
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    geom = lf.build_geometry(args.n_cell, args.L1, args.L2)
    lo, hi = lf.psi_motion_range(geom.alpha)
    path = lf.uniform_path(geom, (lo + 1e-4, hi - 1e-4), 721)
    lio.write_path_csv(geom, path, os.path.join(args.out, "uniform_path.csv"))

    reports = {}
    for rest in args.rest_deg:
        springs = lf.SpringModel.uniform(geom, 1.0, np.radians(rest),
                                         np.radians(-rest))
        curve = lf.landscape_over_psi(geom, springs, (lo + 1e-4, hi - 1e-4))
        fname = os.path.join(args.out, f"landscape_rest{rest:g}.csv")
        lio.write_landscape_csv(curve, fname)
        reports[f"{rest:g}"] = lf.characterize_bistability(curve).to_dict()
        print(f"rest {rest:6.1f} deg -> {reports[f'{rest:g}']['stability_class']}")

    with open(os.path.join(args.out, "bistability_reports.json"), "w") as fh:
        json.dump(reports, fh, indent=2, sort_keys=True)
    print("wrote", args.out)


if __name__ == "__main__":
    main()
