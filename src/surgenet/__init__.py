"""Multi-output feedforward surrogate for coastal storm-surge prediction.

Submodules: numerics (activations, RNG), network (model, normalizer and
checkpoints), training (backprop, optimizer, parallel loop), dataset (track
schema, synthetic corpus), evaluation (metrics and error densities), cli.
"""

__version__ = "0.1.0"
