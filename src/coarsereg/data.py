"""Core immutable data containers shared by every estimator.

All containers validate eagerly at construction and freeze their arrays, so
estimator code never has to re-check inputs and instances are safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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

    The measurements are stored flat, group by group, in ``values``, with
    the group lengths in ``sizes``; ``groups`` gives read-only views of the
    groups, made on first access.
    """

    values: np.ndarray
    sizes: np.ndarray

    def __init__(self, groups):
        arrays = []
        for i, g in enumerate(groups):
            arr = np.asarray(g, dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"group {i} must be one-dimensional, got shape {arr.shape}")
            arrays.append(arr)
        sizes = np.array([len(a) for a in arrays], dtype=np.intp)
        self._set_flat(np.concatenate(arrays) if arrays else np.empty(0), sizes)

    @classmethod
    def _from_flat(cls, values: np.ndarray, sizes: np.ndarray) -> "ReplicatedSample":
        """The sample whose groups are ``values`` cut into runs of ``sizes``;
        it takes ownership of both arrays and freezes them."""
        rep = cls.__new__(cls)
        rep._set_flat(values, sizes)
        return rep

    def _set_flat(self, values, sizes):
        # the first faulty group is named; within one, non-finite comes first
        if not len(sizes):
            raise ValueError("need at least one group")
        ends = np.cumsum(sizes)
        nonfinite = np.flatnonzero(~np.isfinite(values))
        bad = int(np.searchsorted(ends, nonfinite[0], side="right")) if nonfinite.size else None
        small = np.flatnonzero(sizes < 2)
        if small.size and (bad is None or small[0] < bad):
            i = int(small[0])
            raise ValueError(f"group {i} has {sizes[i]} measurements, need >= 2")
        if bad is not None:
            raise ValueError(f"group {bad} contains non-finite entries")
        values.flags.writeable = sizes.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sizes", sizes)

    @cached_property
    def groups(self) -> tuple:
        """The groups, in order, as read-only views into ``values``."""
        return tuple(np.split(self.values, np.cumsum(self.sizes)[:-1]))

    @property
    def n_groups(self) -> int:
        return len(self.sizes)

    @property
    def n_pairs(self) -> int:
        """Total count of within-group ordered pairs (k1 < k2)."""
        return int(np.sum(self.sizes * (self.sizes - 1) // 2))

    def pair_differences(self) -> np.ndarray:
        """All within-group differences u[k1] - u[k2] with k1 < k2, group by
        group in order; one gather per distinct group size. Raises a
        ValueError naming the first group whose differences overflow."""
        sizes, u = self.sizes, self.values
        pairs = sizes * (sizes - 1) // 2
        first, out_first = np.cumsum(sizes) - sizes, np.cumsum(pairs) - pairs
        out = np.empty(int(pairs.sum()))
        with np.errstate(over="ignore"):
            for m in np.unique(sizes):
                idx1, idx2 = np.triu_indices(m, k=1)
                at = first[sizes == m, None]
                at_out = out_first[sizes == m, None] + np.arange(len(idx1))
                out[at_out] = u[at + idx1] - u[at + idx2]
        overflow = np.flatnonzero(~np.isfinite(out))
        if overflow.size:
            g = int(np.searchsorted(out_first + pairs, overflow[0], side="right"))
            group = u[first[g]:first[g] + sizes[g]]
            raise ValueError(f"group {g}: pair differences overflow (values from "
                             f"{float(group.min())!r} to {float(group.max())!r})")
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
