"""Shared deterministic sample generators for the test suite."""

from __future__ import annotations

import numpy as np

from tribell import DensityMatrix, Ket


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g @ g.conj().T


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    m = random_psd(rng, dim)
    return DensityMatrix(m / np.trace(m).real)


def random_ket(rng: np.random.Generator, dim: int) -> Ket:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return Ket(v / np.linalg.norm(v))


def reference_coordinate_ascent(objective, start, iterations: int, step0: float, floor: float):
    """The one-probe-per-call coordinate ascent that bell._coordinate_ascent batches.

    objective maps one point to one value.  Kept frozen as the reference
    path: the batched search must visit the same points and return the same
    point and value.
    """
    x = np.array(start, dtype=float)
    best = objective(x)
    step = step0
    for _ in range(iterations):
        improved = False
        for i in range(x.size):
            for delta in (step, -step):
                trial = x.copy()
                trial[i] += delta
                value = objective(trial)
                if value > best:
                    x, best, improved = trial, value, True
                    while True:
                        trial = x.copy()
                        trial[i] += delta
                        value = objective(trial)
                        if value > best:
                            x, best = trial, value
                        else:
                            break
                    break
        if not improved:
            step *= 0.5
            if step < floor:
                break
    return x, best
