"""Sampling helpers shared by the test modules."""

import numpy as np


def random_simplex_points(k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform (flat Dirichlet) sample of n points on the k-simplex."""
    g = rng.standard_exponential((n, k))
    return g / g.sum(axis=1, keepdims=True)
