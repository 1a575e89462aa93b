#!/usr/bin/env python3
"""Energy-ratio design surface xi(rest_M, rest_B) with its xi = 0 contour."""
import argparse
import os

import numpy as np

import leafout as lf
from leafout import io as lio


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/ratio_surface")
    ap.add_argument("--step-deg", type=float, default=2.0)
    ap.add_argument("--n-cell", type=int, default=5)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    geom = lf.build_geometry(args.n_cell, 70.0, 30.0)
    step = np.radians(args.step_deg)
    gm = np.arange(np.radians(2.0), np.radians(178.0) + 1e-9, step)
    gb = np.arange(np.radians(-178.0), np.radians(-2.0) + 1e-9, step)
    surf = lf.ratio_surface(geom, gm, gb)

    lio.write_surface_csv(surf, os.path.join(args.out, "ratio_surface.csv"))
    lio.write_json(lio.contours_to_json_dict(surf),
                   os.path.join(args.out, "xi_zero_contour.json"))
    n_def = int(np.isfinite(surf.xi).sum())
    print(f"{n_def}/{surf.xi.size} bistable grid points, "
          f"{len(surf.contours)} contour polyline(s); wrote {args.out}")


if __name__ == "__main__":
    main()
