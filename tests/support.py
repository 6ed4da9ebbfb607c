"""Builders that only the tests use: one spec per model kind, and a grid
result around a transcribed score matrix."""

import math

from fishgrad import models as mz
from fishgrad import search as sr


def zoo_specs(seed: int = 0) -> list[mz.ModelSpec]:
    """One desk-scale spec per model kind, used by gradient-check sweeps."""
    return [
        mz.ModelSpec("logreg", input_dim=6, num_classes=3, seed=seed),
        mz.ModelSpec("mlp", input_dim=5, hidden=(8,), num_classes=3, seed=seed),
        mz.ModelSpec("tiny_attention", input_dim=24, hidden=(8,), num_classes=2,
                     seed=seed, embed_dim=6, max_len=6),
        mz.ModelSpec("linear_regressor", input_dim=7, num_classes=0, seed=seed),
    ]


def grid_from_matrix(sparsity_levels, sample_levels, matrix,
                     mode: str = "fish_random") -> sr.GridResult:
    """Wrap a transcribed score matrix (NaN/None = unexplored cell)."""
    spec = sr.GridSpec(tuple(sparsity_levels), tuple(sample_levels), mode, (0,))
    cells = []
    for i, s in enumerate(spec.sparsity_levels):
        for j, n in enumerate(spec.sample_levels):
            v = matrix[i][j]
            if v is not None and math.isfinite(v):
                cells.append(sr.GridCell(s, n, 0, float(v)))
    return sr.GridResult(spec, cells)
