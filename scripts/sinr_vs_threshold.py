#!/usr/bin/env python3
"""Joint SINR success probability as a function of the threshold T for
Poisson and Thomas interferers of equal intensity (Rayleigh fading, two
links on the unit torus).

Usage:
    python scripts/sinr_vs_threshold.py --lam 5 --reps 20000 --out sinr.csv
"""
import argparse

import numpy as np

from dcxsim.distributions import exponential
from dcxsim.geometry import make_stream, make_window
from dcxsim.processes import make_poisson_batch, make_thomas_batch
from dcxsim.shotnoise import ResponseKernel
from dcxsim.wireless import LinkLayout, sinr_success_rayleigh


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lam", type=float, default=5.0)
    ap.add_argument("--beta", type=float, default=4.0)
    ap.add_argument("--noise", type=float, default=0.01)
    ap.add_argument("--reps", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", type=str, default="sinr.csv")
    args = ap.parse_args()

    w = make_window([0, 0], [1, 1])
    poisson = make_poisson_batch(args.lam, w)
    thomas = make_thomas_batch(args.lam / 5.0, 5.0, 0.05, w)
    stream = make_stream(args.seed)

    lines = ["threshold,p_poisson,stderr_poisson,p_thomas,stderr_thomas"]
    for k, t in enumerate(np.geomspace(0.1, 10.0, 9)):
        layout = LinkLayout(
            w,
            np.array([[0.3, 0.3], [0.7, 0.7]]),
            np.array([[0.3, 0.35], [0.7, 0.75]]),
            float(t),
            ResponseKernel("power_law", (args.beta,)),
            exponential(1.0),
            args.noise,
        )
        p_po, se_po = sinr_success_rayleigh(layout, poisson, args.reps, stream.split(2 * k))
        p_th, se_th = sinr_success_rayleigh(layout, thomas, args.reps, stream.split(2 * k + 1))
        lines.append(
            ",".join(format(v, ".12g") for v in (t, p_po, se_po, p_th, se_th))
        )
        print(f"T={t:.3g}: poisson {p_po:.4f}  thomas {p_th:.4f}")
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
