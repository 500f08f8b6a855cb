"""Activations and the seeded random source used everywhere else in the
package. This module is the one place that knows an activation: ACTIVATIONS
maps each name to its function and SLOPES to its derivative.

Everything here is pure, but numpy picks its exp and tanh kernels per CPU:
the same seed, the same numpy SIMD targets, and the same OpenBLAS core and
thread count give the same bytes, for any number of workers.

Each activation pulls saturated outputs inside its open interval by one
rule, _pull_inside, and declares a radius within which its formula cannot
saturate. Given a bound on the magnitude of its inputs that lies below the
radius, it skips that work, which then could change no bit.
"""

import math

import numpy as np

from .errors import DomainError

# Below these input magnitudes neither formula reaches the ends of its
# interval: 1 - tanh(16) is about 2.5e-14, some 230 ulps below 1, and
# sigmoid(+-30) lies about 9.4e-14 inside (0, 1). On a Xeon with AVX-512,
# tanh first rounds to 1 near 18.99 and 1 / (1 + exp(-v)) near 36.7, so a
# bound that is a few ulps low still stays clear of both. tests/test_numerics.py
# checks both radii on the running CPU's kernels.
_TANH_RADIUS = 16.0
_SIGMOID_RADIUS = 30.0


def _pull_inside(out, low, high, bound, radius) -> np.ndarray:
    """out, an activation's values, with every entry at or beyond an end of
    (low, high) moved in place onto the nearest float inside. A bound on the
    activation's inputs below its radius means no entry can be there, and
    out is not read. Otherwise out is clipped unless its largest entry is
    below high and its smallest above low, where clipping would change no
    bit. A NaN makes max and min NaN and fails both comparisons, so a block
    holding one is clipped: np.clip keeps the NaN and pulls in the saturated
    entries beside it. initial= lets an empty block through, as np.clip
    does."""
    # A NaN bound fails the comparison too, so the block is searched.
    if bound < radius or (out.max(initial=low) < high and out.min(initial=high) > low):
        return out
    return np.clip(out, np.nextafter(low, high), np.nextafter(high, low), out=out)


def tanh_act(v, out=None, bound=math.inf) -> np.ndarray:
    """Componentwise hyperbolic tangent, strictly inside (-1, 1), written
    into out if given (out may be v itself). bound, if given, is at least the
    largest |v|; below _TANH_RADIUS no entry can saturate, and v is not
    searched for one.
    """
    out = np.tanh(np.asarray(v, dtype=np.float64), out=out)
    return _pull_inside(out, -1.0, 1.0, bound, _TANH_RADIUS)


def sigmoid_act(v, out=None, bound=math.inf) -> np.ndarray:
    """Componentwise logistic function, strictly inside (0, 1), written into
    out if given (out may be v itself).

    With e = exp(-|v|), which never exponentiates a large positive argument,
    it is 1 / (1 + e) where v >= 0 and e / (1 + e) where v < 0. bound, if
    given, is at least the largest |v|; below _SIGMOID_RADIUS no entry can
    saturate, and v is not searched for one.
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
    return _pull_inside(out, 0.0, 1.0, bound, _SIGMOID_RADIUS)


ACTIVATIONS = {"tanh": tanh_act, "sigmoid": sigmoid_act}

# Each activation's derivative, written in terms of its value h: h is
# overwritten with 1 - h^2 (tanh) or h * (1 - h) (sigmoid), and scratch, an
# array of h's shape, may be overwritten on the way.
SLOPES = {
    "tanh": lambda h, scratch: np.subtract(1.0, np.multiply(h, h, out=h), out=h),
    "sigmoid": lambda h, scratch: np.multiply(h, np.subtract(1.0, h, out=scratch), out=h),
}


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
