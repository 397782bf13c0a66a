#!/usr/bin/env python3
"""Noise/cutoff stability sweep for a full-aperture disk phantom.

Writes a CSV of (delta, alpha, error, bound) rows; every row satisfies
error <= bound = delta / beta(alpha) + truncation error.
"""

import argparse

import numpy as np

from prolate.cli import experiment_stability, write_stability
from prolate.disk_basis import compute_disk_basis
from prolate.geometry_config import setup_from_dict


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--c", type=float, default=8.0, help="bandwidth c_F")
    ap.add_argument("--k", type=float, default=1.0)
    ap.add_argument("--radius", type=float, default=0.8, help="phantom disk radius")
    ap.add_argument("--m-max", type=int, default=6)
    ap.add_argument("--n-max", type=int, default=5)
    ap.add_argument("--deltas", default="0,1e-4,1e-3,1e-2")
    ap.add_argument("--n-alphas", type=int, default=15)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("-o", "--out", default="stability.csv")
    args = ap.parse_args()

    setup = setup_from_dict({
        "regime": "full", "k": args.k, "c_param": args.c,
        "contrast": {"shapes": [{"type": "disk", "center": [0.0, 0.0],
                                 "radius": args.radius, "value": 1.0}]},
    })
    basis = compute_disk_basis(args.c, args.m_max, args.n_max).dilated(setup.h)
    chis = basis.chis
    alphas = np.geomspace(0.95 / chis.min(), 0.9 / chis.max(), args.n_alphas)
    deltas = [float(t) for t in args.deltas.split(",")]
    rows = experiment_stability(setup, basis, deltas, list(alphas), args.seed, args.seeds)
    write_stability(args.out, rows)
    print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
