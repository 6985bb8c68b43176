#!/usr/bin/env python3
"""Measure and record the fixture constants the acceptance suite asserts.

Every recorded number is reproducible bit for bit from the deterministic
generator, so the manifest doubles as a regression oracle: if a recorded
value drifts, the construction changed.
"""

import json
import math
from pathlib import Path

from irlm import approx_error, distribution_function, make_random_sign
from irlm.bounds import gamma_threshold, theorem_density_bound

MANIFEST = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "manifest.json"


def sign_error_sweep(n_dim, rank, seeds):
    return {str(seed): approx_error(make_random_sign(n_dim, rank, seed)) for seed in seeds}


def main() -> None:
    doc = {}

    # probabilistic bound fixture: ten fixed seeds at (256, 64)
    doc["random_sign_256_64"] = {
        "seeds": list(range(1, 11)),
        "errors": sign_error_sweep(256, 64, range(1, 11)),
        "bound": 2.0 * math.sqrt(math.log(256) / 64.0),
    }

    # sharpness fixture: density at gamma = 0.5 / sqrt(n) for (1024, 64)
    gamma = 0.5 / math.sqrt(64)
    doc["density_1024_64"] = {
        "gamma": gamma,
        "F_star": {
            str(seed): distribution_function(make_random_sign(1024, 64, seed), gamma).global_density
            for seed in range(1, 6)
        },
    }

    # theorem-shape sweep: measured density against the closed-form bound
    sweep = {}
    for n_dim in (256, 1024):
        base = math.ceil(math.log(n_dim))
        for mult in (2, 8):
            rank = base * mult
            gam = gamma_threshold(n_dim, rank, 0.25)
            bound = theorem_density_bound(n_dim, rank, 0.05)
            for seed in (1, 2, 3):
                mat = make_random_sign(n_dim, rank, seed)
                profile = distribution_function(mat, gam)
                sweep[f"{n_dim}_{rank}_{seed}"] = {
                    "gamma": gam,
                    "F_star": profile.global_density,
                    "bound": bound,
                    "error": profile.error,
                }
    doc["theorem_sweep"] = sweep

    # volume-argument fixtures: full-rank sign matrices with error <= 1/3
    doc["volume_fixtures"] = {
        f"256_256_{seed}": approx_error(make_random_sign(256, 256, seed)) for seed in (1, 2, 3)
    }

    MANIFEST.parent.mkdir(parents=True, exist_ok=True)
    MANIFEST.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")


if __name__ == "__main__":
    main()
