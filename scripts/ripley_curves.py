#!/usr/bin/env python3
"""Estimate Ripley K curves for a homogeneous Poisson process and a Thomas
cluster process of equal intensity on the unit torus, and write them as CSV.

Usage:
    python scripts/ripley_curves.py --lam 50 --reps 2000 --out ripley.csv
"""
import argparse

import numpy as np

from dcxsim.geometry import make_stream, make_window
from dcxsim.processes import make_poisson_batch, make_thomas_batch
from dcxsim.stats import ripley_k


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lam", type=float, default=50.0)
    ap.add_argument("--reps", type=int, default=2000)
    ap.add_argument("--cluster-size", type=float, default=5.0)
    ap.add_argument("--sigma", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", type=str, default="ripley.csv")
    args = ap.parse_args()

    w = make_window([0, 0], [1, 1])
    r_grid = np.linspace(0.01, 0.2, 20)
    stream = make_stream(args.seed)
    thomas = make_thomas_batch(args.lam / args.cluster_size, args.cluster_size, args.sigma, w)
    k_po, se_po = ripley_k(make_poisson_batch(args.lam, w), r_grid, args.lam, args.reps, stream.split(0))
    k_th, se_th = ripley_k(thomas, r_grid, args.lam, args.reps, stream.split(1))
    ref = np.pi * r_grid**2

    lines = ["r,k_poisson,stderr_poisson,k_thomas,stderr_thomas,pi_r_squared"]
    for i, r in enumerate(r_grid):
        lines.append(
            ",".join(
                format(v, ".12g")
                for v in (r, k_po[i], se_po[i], k_th[i], se_th[i], ref[i])
            )
        )
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(r_grid)} rows)")


if __name__ == "__main__":
    main()
