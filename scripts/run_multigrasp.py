#!/usr/bin/env python3
"""Multi-grasp exploration: trace the default program set and export the
configuration-space bundle plus per-program energy curves."""
import argparse
import os

import numpy as np

import leafout as lf
from leafout import io as lio


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/multigrasp")
    ap.add_argument("--rest-m-deg", type=float, default=60.0)
    ap.add_argument("--rest-b-deg", type=float, default=-120.0)
    ap.add_argument("--delta-deg", type=float, default=0.5)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    geom = lf.build_geometry(5, 70.0, 30.0)
    springs = lf.SpringModel.uniform(geom, 1.0, np.radians(args.rest_m_deg),
                                     np.radians(args.rest_b_deg))
    programs = [lf.GraspProgram(p.controlled_units,
                                delta_rho_c=np.radians(args.delta_deg))
                for p in lf.default_program_set(geom.n_cell)]
    bundle = {"geometry": geom.to_dict(), "programs": []}
    for prog, res in zip(programs, lf.run_programs(geom, programs, springs=springs)):
        lio.write_path_csv(geom, res.path,
                           os.path.join(args.out, f"trace_{prog.label()}.csv"),
                           res.trace.energy)
        k = int(np.argmin(res.trace.energy))
        print(f"{prog.label():22s} steps={len(res.path):4d} "
              f"E-min at dRho_C={np.degrees(res.trace.z[k]):6.1f} deg "
              f"end=({np.degrees(res.trace.x[-1]):7.2f},"
              f"{np.degrees(res.trace.y[-1]):7.2f}) deg "
              f"[{res.path.termination}]")
        bundle["programs"].append(lio.path_to_json_dict(
            geom, res.path, res.trace.energy,
            extra={"label": prog.label(),
                   "controlled_units": list(prog.controlled_units),
                   "config_space": {"x": [float(v) for v in res.trace.x],
                                    "y": [float(v) for v in res.trace.y],
                                    "z": [float(v) for v in res.trace.z]}}))
    lio.write_json(bundle, os.path.join(args.out, "multigrasp_bundle.json"))
    print("wrote", args.out)


if __name__ == "__main__":
    main()
