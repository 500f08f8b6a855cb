"""Activations and the seeded random source used everywhere else in the
package.

Everything here is pure: the same inputs (and the same seed path) produce
bitwise-identical results on every platform.
"""

import numpy as np

from .errors import DomainError

# Largest float64 strictly below 1; saturated activations are pulled onto
# this so outputs stay strictly inside their open intervals.
_ONE_BELOW = np.nextafter(1.0, 0.0)
_ZERO_ABOVE = np.nextafter(0.0, 1.0)


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

    def child(self, index: int) -> "Rng":
        """Independent generator keyed by (this path, index)."""
        if index < 0:
            raise DomainError(f"child index must be >= 0, got {index}")
        return Rng._from_path(self._path + (int(index),))

    def normal(self, mean=0.0, std=1.0, size=None):
        if std < 0:
            raise DomainError(f"std must be >= 0, got {std}")
        return self._gen.normal(mean, std, size)

    def uniform(self, low, high, size=None):
        if not low <= high:
            raise DomainError(f"empty uniform range [{low}, {high}]")
        return self._gen.uniform(low, high, size)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices drawn uniformly from range(n)."""
        if k > n:
            raise DomainError(f"cannot draw {k} distinct items from {n}")
        return self._gen.choice(n, size=k, replace=False)

    def shuffled_indices(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
