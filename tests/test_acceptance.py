"""End-to-end acceptance gate for the surge surrogate.

Each test prints one "[criterion NN] PASS/FAIL ..." line (run pytest with -s
to see them live) and then asserts. The empirical learning targets run the
real pipeline on the default synthetic corpus, so this module takes several
minutes; everything is seeded and deterministic.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from surgenet.dataset import (
    default_oracle,
    generate_corpus,
    generate_track,
    load_corpus,
    load_track_csv,
    save_track_csv,
    split_sizes,
)
from surgenet.evaluation import (
    TIGHT_BOUND_M,
    evaluate_tracks,
    fit_kde,
    mse_per_location,
    pool_errors,
    predict_track,
    prob_within,
    quantile_interval,
    r_per_location,
)
from surgenet.network import (
    Architecture,
    init_network,
    layer_operands,
    load_checkpoint,
    save_checkpoint,
)
from surgenet.numerics import Rng
from surgenet.training import (
    DEFAULT_SEED,
    AdamState,
    TrainConfig,
    _batch_backprop,
    _parallel_loss_grads,
    _StepBuffers,
    _StepExecutor,
    adam_step,
    fit_normalizer,
    train,
)

CORPUS_SEED = 20170324


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="session")
def ci_corpus(tmp_path_factory):
    """The reduced 64-track corpus, with its generation time."""
    out = tmp_path_factory.mktemp("accept") / "ci_corpus"
    t0 = time.perf_counter()
    generate_corpus(64, CORPUS_SEED, default_oracle(), out)
    split = load_corpus(out)
    return SimpleNamespace(split=split, seconds=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def ci_model(ci_corpus):
    """The reduced profile trained end to end: generate + train + evaluate."""
    cfg = TrainConfig(arch=Architecture(6, (32, 64), 10), epochs=2000,
                      seed=CORPUS_SEED, validation_every=100)
    t0 = time.perf_counter()
    ckpt, _ = train(cfg, ci_corpus.split)
    result = evaluate_tracks(ckpt.net, ckpt.normalizer, ci_corpus.split.testing,
                             label="test")
    seconds = ci_corpus.seconds + (time.perf_counter() - t0)
    return SimpleNamespace(ckpt=ckpt, result=result, seconds=seconds)


@pytest.fixture(scope="session")
def full_corpus(tmp_path_factory):
    """The default 324-track corpus, with its generation time."""
    out = tmp_path_factory.mktemp("accept_full") / "corpus"
    t0 = time.perf_counter()
    generate_corpus(324, CORPUS_SEED, default_oracle(), out)
    split = load_corpus(out)
    return SimpleNamespace(split=split, seconds=time.perf_counter() - t0)


def test_01_gradient_correctness():
    """Analytic gradients match central finite differences on random nets."""
    t0 = time.perf_counter()
    dims = Rng(101)
    points = Rng(102)
    step = 1e-6
    worst = 0.0
    for i in range(50):
        n_in = 2 + int(dims.choice_without_replacement(7, 1)[0])
        n_out = 2 + int(dims.choice_without_replacement(11, 1)[0])
        h1 = 2 + int(dims.choice_without_replacement(15, 1)[0])
        h2 = 2 + int(dims.choice_without_replacement(15, 1)[0])
        hidden = (h1,) if i % 2 else (h1, h2)
        activation = "tanh" if i % 3 else "sigmoid"
        net = init_network(Architecture(n_in, hidden, n_out, activation), dims.child(i))
        # One (input, target) row through the training step's backprop.
        x = points.normal(size=(1, n_in))
        t = points.normal(size=(1, n_out))
        # Each call builds the operands from net as it is then, since the
        # loop below perturbs net's weights in place.
        buffers = _StepBuffers(net.arch, 1)
        # The perturbed calls write their gradients into scratch, not grads.
        grads = [(np.empty_like(w), np.empty_like(b)) for w, b in net.layers]
        scratch = [(np.empty_like(w), np.empty_like(b)) for w, b in net.layers]
        _, grads = _batch_backprop(net, x, t, buffers, layer_operands(net, 1), grads)
        for li, (w, b) in enumerate(net.layers):
            for arr, ga in ((w, grads[li][0]), (b, grads[li][1])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    orig = arr[ix]
                    arr[ix] = orig + step
                    up, _ = _batch_backprop(net, x, t, buffers, layer_operands(net, 1),
                                            scratch)
                    arr[ix] = orig - step
                    dn, _ = _batch_backprop(net, x, t, buffers, layer_operands(net, 1),
                                            scratch)
                    arr[ix] = orig
                    fd = (up - dn) / (2 * step)
                    # Relative error with an absolute floor: near-zero
                    # derivatives are dominated by finite-difference noise.
                    rel = abs(fd - ga[ix]) / max(abs(fd), abs(ga[ix]), 1e-3)
                    worst = max(worst, rel)
    seconds = time.perf_counter() - t0
    ok = worst < 1e-6 and seconds < 30
    verdict(1, ok, f"50 nets, worst relative error {worst:.3e} < 1e-6, "
                   f"{seconds:.1f}s < 30s")


def test_02_parallel_gradient_equivalence(ci_corpus):
    """Sharded gradients equal the single-worker gradient; training is
    reproducible across worker counts."""
    t0 = time.perf_counter()
    arch = Architecture(6, (32, 64), 10)
    net = init_network(arch, Rng(201))
    batches = Rng(202)
    rows = 32 * 193  # 13 shards, so every worker count above 1 runs a pool
    executors = {workers: _StepExecutor(arch, rows, workers) for workers in (1, 2, 3, 4, 8)}
    worst = 0.0
    try:
        for _ in range(3):
            x = batches.normal(size=(rows, 6))
            t = batches.normal(size=(rows, 10))
            _, ref = _parallel_loss_grads(net, x, t, 1, executors[1])
            for workers in (2, 3, 4, 8):
                _, got = _parallel_loss_grads(net, x, t, workers, executors[workers])
                worst = max(worst, np.abs(ref - got).max())
    finally:
        for executor in executors.values():
            executor.shutdown()

    def train_with(workers):
        cfg = TrainConfig(arch=Architecture(6, (32, 64), 10), epochs=100,
                          seed=7, workers=workers, validation_every=0)
        ckpt, _ = train(cfg, ci_corpus.split)
        return ckpt.net

    net1, net4 = train_with(1), train_with(4)
    drift = max(max(np.abs(w1 - w4).max(), np.abs(b1 - b4).max())
                for (w1, b1), (w4, b4) in zip(net1.layers, net4.layers))
    seconds = time.perf_counter() - t0
    ok = worst <= 1e-12 and drift <= 1e-9 and seconds < 60
    verdict(2, ok, f"gradient diff {worst:.2e} <= 1e-12, "
                   f"epoch-100 drift {drift:.2e} <= 1e-9, {seconds:.1f}s < 60s")


def test_03_end_to_end_learning(full_corpus, ci_model):
    """The default corpus reaches the accuracy targets within budget, and the
    reduced profile stays fast."""
    cfg = TrainConfig(arch=Architecture(6, (32, 64), 10), epochs=15000,
                      seed=CORPUS_SEED, validation_every=500)
    t0 = time.perf_counter()
    ckpt, _ = train(cfg, full_corpus.split)
    result = evaluate_tracks(ckpt.net, ckpt.normalizer, full_corpus.split.testing,
                             label="test")
    full_seconds = full_corpus.seconds + (time.perf_counter() - t0)

    min_r = min(m.r for m in result.metrics)
    mean_mse = sum(m.mse for m in result.metrics) / len(result.metrics)
    ci_min_r = min(m.r for m in ci_model.result.metrics)

    ok = (min_r >= 0.95 and mean_mse <= 0.02 and full_seconds < 900
          and ci_min_r >= 0.90 and ci_model.seconds < 120)
    verdict(3, ok,
            f"full: min R {min_r:.4f} >= 0.95, mean test MSE {mean_mse:.4f} <= 0.02, "
            f"{full_seconds:.0f}s < 900s; "
            f"reduced: min R {ci_min_r:.4f} >= 0.90, {ci_model.seconds:.0f}s < 120s")


def test_04_architecture_ordering(ci_corpus):
    """Two hidden layers beat one at a matched epoch budget (majority of seeds)."""
    wins = 0
    details = []
    for seed in (1, 2, 3):
        mses = {}
        for hidden in ((32, 64), (60,)):
            cfg = TrainConfig(arch=Architecture(6, hidden, 10), epochs=2000,
                              seed=seed, validation_every=0)
            ckpt, _ = train(cfg, ci_corpus.split)
            result = evaluate_tracks(ckpt.net, ckpt.normalizer,
                                     ci_corpus.split.testing, label="test")
            mses[hidden] = sum(m.mse for m in result.metrics) / len(result.metrics)
        wins += mses[(32, 64)] < mses[(60,)]
        details.append(f"seed {seed}: {mses[(32, 64)]:.4f} vs {mses[(60,)]:.4f}")
    ok = wins >= 2
    verdict(4, ok, f"(32,64) beats (60) on {wins}/3 seeds ({'; '.join(details)})")


def test_05_metric_identities():
    """Correlation and MSE behave like their definitions demand."""
    y = Rng(501).normal(size=(200, 10))
    r_self = r_per_location(y, y)
    r_anti = r_per_location(-y, y)
    affine = r_per_location(2.5 * y + 1.0, y)
    mse_self = mse_per_location(y, y)

    tracks = [generate_track(Rng(502).child(i), default_oracle(), f"t{i}")
              for i in range(4)]
    net = init_network(Architecture(6, (8,), 10), Rng(503))
    normalizer = fit_normalizer(np.concatenate([t.inputs for t in tracks]))
    preds = np.concatenate([predict_track(net, normalizer, t) for t in tracks])
    obs = np.concatenate([t.surge for t in tracks])
    errors = pool_errors([(t, predict_track(net, normalizer, t)) for t in tracks])
    mse_direct = mse_per_location(preds, obs)
    mse_from_errors = np.array([(e * e).mean() for e in errors])

    ok = (np.abs(r_self - 1).max() <= 1e-12
          and np.abs(r_anti + 1).max() <= 1e-12
          and np.abs(affine - 1).max() <= 1e-12
          and np.all(mse_self == 0)
          and np.abs(mse_direct - mse_from_errors).max() <= 1e-12)
    verdict(5, ok, "R(y,y)=1, R(y,-y)=-1, affine-invariant, MSE(y,y)=0, "
                   "MSE = mean squared pooled error (all within 1e-12)")


def test_06_kde_calibration():
    """Density estimate reproduces normal-distribution facts."""
    t0 = time.perf_counter()
    e = Rng(601).normal(0.0, 0.1, size=100_000)
    pdf = fit_kde(e)
    p = prob_within(pdf, TIGHT_BOUND_M)
    e_star = quantile_interval(pdf, 0.95)
    integral = float(np.trapezoid(pdf.density, pdf.grid))
    seconds = time.perf_counter() - t0
    ok = (abs(p - 0.6827) <= 0.01
          and abs(e_star - 0.196) / 0.196 <= 0.03
          and abs(integral - 1.0) <= 1e-3
          and seconds < 10)
    verdict(6, ok, f"P(|e|<=0.1) = {p:.4f} (0.6827 +/- 0.01), "
                   f"e*95 = {e_star:.4f} (0.196 +/- 3%), "
                   f"integral = {integral:.6f} (1 +/- 1e-3), {seconds:.1f}s < 10s")


def test_07_adam_sanity():
    """The optimizer solves (theta - 3)^2 from a standing start."""
    arch = Architecture(1, (1,), 1)
    net = init_network(arch, Rng(0))
    net = type(net)(arch, np.zeros_like(net.flat))
    cfg = TrainConfig(arch=arch, epochs=1, learning_rate=0.1)
    state = AdamState.zeros(net)
    steps = 0
    for steps in range(1, 2001):
        grads = 2.0 * (net.flat - 3.0)
        net, state = adam_step(net, grads, state, 0.1, cfg)
        gap = max(max(np.abs(w - 3.0).max(), np.abs(b - 3.0).max())
                  for w, b in net.layers)
        if gap < 1e-3:
            break
    ok = gap < 1e-3 and steps <= 2000
    verdict(7, ok, f"|theta - 3| = {gap:.2e} < 1e-3 after {steps} steps (<= 2000)")


def test_08_format_round_trips(ci_model, tmp_path):
    """Checkpoints, track CSVs, and corpus generation are all deterministic."""
    ckpt = ci_model.ckpt
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(ckpt.net, ckpt.normalizer, ckpt.meta, p1)
    loaded = load_checkpoint(p1)
    bitwise = all(
        np.array_equal(w, lw) and np.array_equal(b, lb)
        for (w, b), (lw, lb) in zip(ckpt.net.layers, loaded.net.layers))
    bitwise = bitwise and np.array_equal(ckpt.normalizer.means, loaded.normalizer.means)
    save_checkpoint(loaded.net, loaded.normalizer, loaded.meta, p2)
    bytes_equal = p1.read_bytes() == p2.read_bytes()

    track = generate_track(Rng(801), default_oracle(), "track_rt")
    save_track_csv(track, tmp_path / "t.csv")
    back = load_track_csv(tmp_path / "t.csv")
    csv_equal = (np.array_equal(back.inputs, track.inputs)
                 and np.array_equal(back.surge, track.surge))

    generate_corpus(6, 777, default_oracle(), tmp_path / "c1")
    generate_corpus(6, 777, default_oracle(), tmp_path / "c2")
    corpus_equal = all(
        (tmp_path / "c1" / p.name).read_bytes() == (tmp_path / "c2" / p.name).read_bytes()
        for p in sorted((tmp_path / "c1").iterdir()))

    ok = bitwise and bytes_equal and csv_equal and corpus_equal
    verdict(8, ok, f"checkpoint bitwise {bitwise}, re-save byte-identical {bytes_equal}, "
                   f"track CSV identity {csv_equal}, corpus byte-identical {corpus_equal}")


def test_09_split_exactness(full_corpus):
    """324 tracks partition into 228/48/48 with no overlap."""
    split = full_corpus.split
    sizes = (len(split.training), len(split.validation), len(split.testing))
    ids = [t.track_id for t in split.all_tracks()]
    disjoint = len(set(ids)) == len(ids) == 324
    ok = split_sizes(324) == (228, 48, 48) and sizes == (228, 48, 48) and disjoint
    verdict(9, ok, f"sizes {sizes[0]}/{sizes[1]}/{sizes[2]} == 228/48/48, "
                   f"disjoint {disjoint}")


def test_10_landfall_window_degradation(ci_model):
    """Accuracy drops (or holds) near landfall at most stations."""
    result = ci_model.result
    per_loc = []
    for full, win in zip(result.full_pdfs, result.window_pdfs):
        per_loc.append(prob_within(win, TIGHT_BOUND_M) <= prob_within(full, TIGHT_BOUND_M))
    count = sum(per_loc)
    ok = count >= 8
    verdict(10, ok, f"window P(|e|<=0.1) <= full-track P at {count}/10 locations (>= 8)")
