"""Dense float64 linear algebra, activations, column statistics, and the
seeded random source used everywhere else in the package.

Everything here is pure: the same inputs (and the same seed path) produce
bitwise-identical results on every platform.
"""

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError

# Columns whose population std falls below this are treated as constant and
# standardized with std = 1, so they map to exactly zero.
CONSTANT_STD_FLOOR = 1e-12

# Largest float64 strictly below 1; saturated activations are pulled onto
# this so outputs stay strictly inside their open intervals.
_ONE_BELOW = np.nextafter(1.0, 0.0)
_ZERO_ABOVE = np.nextafter(0.0, 1.0)


def as_vector(data) -> np.ndarray:
    """Coerce to a contiguous 1-D float64 array."""
    v = np.ascontiguousarray(data, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def as_matrix(data) -> np.ndarray:
    """Coerce to a contiguous 2-D float64 array (row-major)."""
    m = np.ascontiguousarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def affine(weights, x, bias) -> np.ndarray:
    """weights @ x + bias, the building block of every layer."""
    w = as_matrix(weights)
    v = as_vector(x)
    b = as_vector(bias)
    if w.shape[1] != v.shape[0]:
        raise DimensionMismatchError(
            f"weights have {w.shape[1]} columns but x has length {v.shape[0]}")
    if w.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"weights have {w.shape[0]} rows but bias has length {b.shape[0]}")
    return w @ v + b


def tanh_act(v, out=None) -> np.ndarray:
    """Componentwise hyperbolic tangent, written into out if given (out may
    be v itself).

    Saturated entries are pulled in by one ulp so results are strictly
    inside (-1, 1).
    """
    out = np.tanh(np.asarray(v, dtype=np.float64), out=out)
    return np.clip(out, -_ONE_BELOW, _ONE_BELOW, out=out)


def sigmoid_act(v, out=None) -> np.ndarray:
    """Componentwise logistic function, strictly inside (0, 1), written into
    out if given (out may be v itself).

    With e = exp(-|v|), which never exponentiates a large positive argument,
    it is 1 / (1 + e) where v >= 0 and e / (1 + e) where v < 0.
    """
    z = np.asarray(v, dtype=np.float64)
    neg = z < 0
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.add(1.0, e, out=out)
    np.divide(e, out, out=e)
    np.divide(1.0, out, out=out)
    np.copyto(out, e, where=neg)
    return np.clip(out, _ZERO_ABOVE, _ONE_BELOW, out=out)


class ColumnStats(NamedTuple):
    means: np.ndarray
    stds: np.ndarray
    constant: np.ndarray  # bool mask; True where the raw std fell below the floor


def column_stats(rows) -> ColumnStats:
    """Per-column population mean and std over equal-length rows.

    Columns with std below CONSTANT_STD_FLOOR report std = 1 and are flagged
    constant, so standardizing maps them to exactly zero instead of dividing
    by (near) zero.
    """
    seq = list(rows) if not isinstance(rows, np.ndarray) else rows
    if len(seq) == 0:
        raise ValueError("column_stats requires at least one row")
    try:
        data = np.asarray(seq, dtype=np.float64)
    except ValueError as exc:
        raise DimensionMismatchError(f"rows have differing lengths: {exc}") from None
    if data.ndim != 2:
        raise DimensionMismatchError(f"expected rows of scalars, got shape {data.shape}")
    means = data.mean(axis=0)
    stds = data.std(axis=0)
    constant = stds < CONSTANT_STD_FLOOR
    return ColumnStats(means, np.where(constant, 1.0, stds), constant)


def _generator_for(path: tuple) -> np.random.Generator:
    # Child indices go through spawn_key, not entropy: SeedSequence pads short
    # entropy with zero words, so (seed, 0) as entropy would collide with (seed,).
    seq = np.random.SeedSequence(entropy=path[0], spawn_key=path[1:])
    return np.random.Generator(np.random.PCG64(seq))


class Rng:
    """Deterministic random source (PCG64) addressed by a seed path.

    Identical seed paths yield identical streams. Concurrent code must not
    share one instance; derive independent children with child(index), whose
    stream depends only on (parent path, index).
    """

    def __init__(self, seed: int):
        self._path = (int(seed) % 2**64,)
        self._gen = _generator_for(self._path)

    @classmethod
    def _from_path(cls, path: tuple) -> "Rng":
        rng = object.__new__(cls)
        rng._path = path
        rng._gen = _generator_for(path)
        return rng

    @property
    def seed_path(self) -> tuple:
        return self._path

    def child(self, index: int) -> "Rng":
        """Independent generator keyed by (this path, index)."""
        if index < 0:
            raise ValueError(f"child index must be >= 0, got {index}")
        return Rng._from_path(self._path + (int(index),))

    def normal(self, mean=0.0, std=1.0, size=None):
        if std < 0:
            raise ValueError(f"std must be >= 0, got {std}")
        return self._gen.normal(mean, std, size)

    def uniform(self, low, high, size=None):
        if not low <= high:
            raise ValueError(f"empty uniform range [{low}, {high}]")
        return self._gen.uniform(low, high, size)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices drawn uniformly from range(n)."""
        if k > n:
            raise ValueError(f"cannot draw {k} distinct items from {n}")
        return self._gen.choice(n, size=k, replace=False)

    def shuffled_indices(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def normal_sample(rng: Rng, mean: float, std: float) -> float:
    """One draw from Normal(mean, std); std = 0 returns mean exactly."""
    return float(rng.normal(mean, std))
