#!/usr/bin/env python3
"""Search for maximizing settings on a few reference states and report.

Shows that the optimizer recovers the GHZ-state l1 maximum of 20 and
that the best found skew value on the W state beats the value any fixed
example settings give.
"""

from __future__ import annotations

import argparse
import time

from tribell.bell import FunctionalKind, bell_skew, example1_settings, optimize
from tribell.states import ghz_state, pure_density, w_state

CASES = [
    ("GHZ state, l1 functional", pure_density(ghz_state()), FunctionalKind.L1),
    ("W state, l1 functional", pure_density(w_state()), FunctionalKind.L1),
    ("W state, skew functional", pure_density(w_state()), FunctionalKind.SKEW),
]


def run(restarts: int, iterations: int, seed: int) -> None:
    for label, rho, kind in CASES:
        start = time.perf_counter()
        value = optimize(rho, kind, restarts=restarts, iterations=iterations, seed=seed).value
        elapsed = time.perf_counter() - start
        print(f"{label}: best value {value:.12f}  ({elapsed:.1f} s)")
    axis = bell_skew(pure_density(w_state()), example1_settings())
    print(f"for reference, W-state skew under the axis-aligned settings: {axis:.12f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--restarts", type=int, default=8)
    parser.add_argument("--iterations", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run(args.restarts, args.iterations, args.seed)
