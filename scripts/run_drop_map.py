#!/usr/bin/env python3
"""Drop-test trigger map of the PET-hinged prototype.

Boundary-only springs (kappa_M = kappa_S = 0), per-width PET constant
converted through the effective comb width.  Emits the decision map over
(drop height, rest angle) and the E_gap = 0 threshold curve.
"""
import argparse
import os

import numpy as np

import leafout as lf
from leafout import io as lio


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/drop_map")
    ap.add_argument("--h-mm", type=float, nargs=2, default=[50.0, 800.0])
    ap.add_argument("--rest-deg", type=float, nargs=2, default=[40.0, 100.0])
    ap.add_argument("--n-h", type=int, default=76)
    ap.add_argument("--n-rest", type=int, default=31)
    ap.add_argument("--effective-width-mm", type=float, default=None)
    ap.add_argument("--observations", default=None,
                    help="optional CSV overlay (h_mm,outcome)")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    geom = lf.build_geometry(5, 70.0, 30.0)
    scenario = lf.DropScenario(effective_width_mm=args.effective_width_mm)
    obs = lio.read_observations_csv(args.observations) if args.observations else None
    tmap = lf.trigger_map(geom, scenario,
                          [h * 1e-3 for h in args.h_mm],
                          [np.radians(r) for r in args.rest_deg],
                          n_h=args.n_h, n_rest=args.n_rest, observations=obs)

    lio.write_trigger_map_csv(tmap, os.path.join(args.out, "trigger_map.csv"))
    lio.write_json(lio.trigger_contour_json_dict(tmap),
                   os.path.join(args.out, "egap_zero_contour.json"))
    i = int(np.argmin(np.abs(tmap.rest_angles - scenario.rest_angle)))
    print(f"threshold at rest {np.degrees(tmap.rest_angles[i]):.1f} deg: "
          f"{1000 * tmap.threshold_heights[i]:.0f} mm; wrote {args.out}")


if __name__ == "__main__":
    main()
