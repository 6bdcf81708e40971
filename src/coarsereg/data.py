"""Core immutable data containers shared by every estimator.

All containers validate eagerly at construction and freeze their arrays, so
estimator code never has to re-check inputs and instances are safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


def _frozen_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TrainingSample:
    """Paired precise predictors and responses.

    Parameters
    ----------
    w : array-like
        Precise predictor values.
    y : array-like
        Responses, aligned with ``w``.
    """

    w: np.ndarray
    y: np.ndarray

    def __init__(self, w, y):
        w = _frozen_array(w, "w")
        y = _frozen_array(y, "y")
        if len(w) != len(y):
            raise ValueError(f"w and y lengths differ: {len(w)} vs {len(y)}")
        if len(w) < 1:
            raise ValueError("sample must contain at least one pair")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return len(self.w)


@dataclass(frozen=True)
class ReplicatedSample:
    """Grouped contaminated measurements with shared latent centers.

    Each group holds repeated measurements of one latent value; within-group
    differences identify the measurement-error law. Every group needs at
    least two measurements.
    """

    groups: tuple

    def __init__(self, groups):
        frozen = []
        for i, g in enumerate(groups):
            arr = _frozen_array(g, f"group {i}")
            if len(arr) < 2:
                raise ValueError(f"group {i} has {len(arr)} measurements, need >= 2")
            frozen.append(arr)
        if not frozen:
            raise ValueError("need at least one group")
        object.__setattr__(self, "groups", tuple(frozen))

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_pairs(self) -> int:
        """Total count of within-group ordered pairs (k1 < k2)."""
        return sum(len(g) * (len(g) - 1) // 2 for g in self.groups)

    def pair_differences(self) -> np.ndarray:
        """All within-group differences u[k1] - u[k2] with k1 < k2, group by
        group in order; one gather per distinct group size."""
        sizes = np.array([len(g) for g in self.groups])
        pairs = sizes * (sizes - 1) // 2
        u = np.concatenate(self.groups)
        first, out_first = np.cumsum(sizes) - sizes, np.cumsum(pairs) - pairs
        out = np.empty(int(pairs.sum()))
        for m in np.unique(sizes):
            idx1, idx2 = np.triu_indices(m, k=1)
            at = first[sizes == m, None]
            out[out_first[sizes == m, None] + np.arange(len(idx1))] = u[at + idx1] - u[at + idx2]
        return out


@dataclass(frozen=True)
class EvalGrid:
    """Strictly increasing evaluation locations spanning a compact interval."""

    points: np.ndarray

    def __init__(self, points):
        arr = _frozen_array(points, "grid points")
        if len(arr) < 2:
            raise ValueError("grid needs at least 2 points")
        if not np.all(np.diff(arr) > 0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", arr)

    @classmethod
    def linspace(cls, lo: float, hi: float, count: int) -> "EvalGrid":
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        return cls(np.linspace(lo, hi, count))

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class RegressionCurve:
    """An evaluation grid with estimates and optional variance and bands.

    ``values`` is aligned with the grid; entries are NaN where the estimate
    is undefined (degenerate denominator). ``meta`` records the estimator
    label, its parameters, and any warning flags.
    """

    grid: EvalGrid
    values: np.ndarray
    variance: Optional[np.ndarray] = None
    band_lower: Optional[np.ndarray] = None
    band_upper: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != self.grid.points.shape:
            raise ValueError("values not aligned with grid")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        for name in ("variance", "band_lower", "band_upper"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.array(arr, dtype=float)
            if arr.shape != values.shape:
                raise ValueError(f"{name} not aligned with grid")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.variance is not None and np.nanmin(self.variance) < 0:
            raise ValueError("variance entries must be nonnegative")
        if self.band_lower is not None and self.band_upper is not None:
            ok = np.isfinite(values)
            if np.any(self.band_lower[ok] > values[ok]) or np.any(
                values[ok] > self.band_upper[ok]
            ):
                raise ValueError("bands must enclose the estimates")

    @property
    def defined(self) -> np.ndarray:
        """Boolean mask of grid points where the estimate is defined."""
        return np.isfinite(self.values)
