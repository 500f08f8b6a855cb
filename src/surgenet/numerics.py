"""Activations and the seeded random source used everywhere else in the
package.

Everything here is pure, but numpy picks its exp and tanh kernels per CPU:
the same seed, the same numpy SIMD targets, and the same OpenBLAS core and
thread count give the same bytes, for any number of workers.

Each activation pulls saturated outputs inside its open interval, and
declares a radius within which its formula cannot saturate. Given a bound on
the magnitude of its inputs that lies below the radius, it skips that work,
which then could change no bit.
"""

import math

import numpy as np

from .errors import DomainError

# Largest float64 strictly below 1; saturated activations are pulled onto
# this so outputs stay strictly inside their open intervals.
_ONE_BELOW = np.nextafter(1.0, 0.0)
_ZERO_ABOVE = np.nextafter(0.0, 1.0)
# Below these input magnitudes neither formula reaches the ends of its
# interval: 1 - tanh(16) is about 2.5e-14, some 230 ulps below 1, and
# sigmoid(+-30) lies about 9.4e-14 inside (0, 1). On a Xeon with AVX-512,
# tanh first rounds to 1 near 18.99 and 1 / (1 + exp(-v)) near 36.7, so a
# bound that is a few ulps low still stays clear of both. tests/test_numerics.py
# checks both radii on the running CPU's kernels.
_TANH_RADIUS = 16.0
_SIGMOID_RADIUS = 30.0


def tanh_act(v, out=None, bound=math.inf) -> np.ndarray:
    """Componentwise hyperbolic tangent, written into out if given (out may
    be v itself).

    Saturated entries are pulled in by one ulp so results are strictly
    inside (-1, 1). bound, if given, is at least the largest |v|; below
    _TANH_RADIUS no entry can saturate, and v is not searched for one.
    """
    out = np.tanh(np.asarray(v, dtype=np.float64), out=out)
    # A NaN bound fails the comparison, so the block is searched.
    if bound < _TANH_RADIUS:
        return out
    # Clipping rewrites every entry; finding none saturated only reads them.
    # A NaN fails both comparisons and np.clip keeps it, so skipping the clip
    # when nothing reaches +-1 changes no bit. initial= lets an empty block
    # through, as np.clip does.
    if out.max(initial=0.0) >= 1.0 or out.min(initial=0.0) <= -1.0:
        np.clip(out, -_ONE_BELOW, _ONE_BELOW, out=out)
    return out


def sigmoid_act(v, out=None, bound=math.inf) -> np.ndarray:
    """Componentwise logistic function, strictly inside (0, 1), written into
    out if given (out may be v itself).

    With e = exp(-|v|), which never exponentiates a large positive argument,
    it is 1 / (1 + e) where v >= 0 and e / (1 + e) where v < 0. Saturated
    entries are pulled in to the nearest float inside (0, 1); bound, if
    given, is at least the largest |v|, and below _SIGMOID_RADIUS no entry
    can saturate, so none is clipped.
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
    if bound < _SIGMOID_RADIUS:
        return out
    return np.clip(out, _ZERO_ABOVE, _ONE_BELOW, out=out)


class Rng:
    """Deterministic random source (PCG64) addressed by a seed path.

    Identical seed paths yield identical streams. Concurrent code must not
    share one instance; derive independent children with child(index), whose
    stream depends only on (parent path, index).
    """

    def __init__(self, seed: int, *path: int):
        self._path = (int(seed) % 2**64, *path)
        # Child indices go through spawn_key, not entropy: SeedSequence pads short
        # entropy with zero words, so (seed, 0) as entropy would collide with (seed,).
        seq = np.random.SeedSequence(entropy=self._path[0], spawn_key=path)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def child(self, index: int) -> "Rng":
        """Independent generator keyed by (this path, index)."""
        if index < 0:
            raise DomainError(f"child index must be >= 0, got {index!s:.40}")
        return Rng(*self._path, int(index))

    def normal(self, mean=0.0, std=1.0, size=None):
        if std < 0:
            raise DomainError(f"std must be >= 0, got {std!s:.40}")
        return self._gen.normal(mean, std, size)

    def uniform(self, low, high, size=None):
        if not low <= high:
            raise DomainError(f"empty uniform range [{low!s:.40}, {high!s:.40}]")
        return self._gen.uniform(low, high, size)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices drawn uniformly from range(n)."""
        if k > n:
            raise DomainError(f"cannot draw {k!s:.40} distinct items from {n!s:.40}")
        return self._gen.choice(n, size=k, replace=False)

    def shuffled_indices(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
