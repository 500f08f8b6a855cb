import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgenet import evaluation, network
from surgenet.dataset import default_oracle, generate_track
from surgenet.errors import DimensionMismatchError, DomainError
from surgenet.evaluation import (
    E_STAR_MASS,
    METRICS_HEADER,
    TIGHT_BOUND_M,
    emit_report,
    evaluate_tracks,
    fit_kde,
    location_metrics,
    mse_per_location,
    pool_errors,
    predict_track,
    prob_within,
    quantile_interval,
    r_per_location,
)
from surgenet.network import Architecture, fit_normalizer, init_network
from surgenet.numerics import Rng


def make_tracks(n, seed=0):
    root = Rng(seed)
    return [generate_track(root.child(i), default_oracle(), f"track_{i:04d}")
            for i in range(n)]


@pytest.fixture(scope="module")
def untrained():
    """An untrained model and a handful of tracks: predictions are poor but
    every metric identity must still hold exactly."""
    tracks = make_tracks(6, seed=3)
    net = init_network(Architecture(6, (8, 8), 10), Rng(50))
    normalizer = fit_normalizer(np.concatenate([t.inputs for t in tracks]))
    return net, normalizer, tracks


def predicted(net, normalizer, tracks):
    """The (track, predictions) pairs that pool_errors takes."""
    return [(t, predict_track(net, normalizer, t)) for t in tracks]


class TestPerLocationMetrics:
    def test_perfect_prediction(self):
        obs = Rng(1).normal(size=(30, 10))
        np.testing.assert_array_equal(mse_per_location(obs, obs), np.zeros(10))
        np.testing.assert_allclose(r_per_location(obs, obs), np.ones(10), atol=1e-12)

    def test_constant_offset(self):
        obs = Rng(2).normal(size=(30, 10))
        preds = obs + 0.1
        np.testing.assert_allclose(mse_per_location(preds, obs), 0.01, rtol=1e-12)
        np.testing.assert_allclose(r_per_location(preds, obs), 1.0, atol=1e-12)

    def test_hand_case(self):
        preds = np.tile([[1.0], [3.0]], (1, 10))
        obs = np.tile([[2.0], [2.0]], (1, 10))
        np.testing.assert_array_equal(mse_per_location(preds, obs), np.ones(10))

    def test_anticorrelation(self):
        obs = Rng(3).normal(size=(30, 10))
        np.testing.assert_allclose(r_per_location(-obs, obs), -1.0, atol=1e-12)

    def test_r_is_affine_invariant(self):
        obs = Rng(4).normal(size=(40, 10))
        preds = Rng(5).normal(size=(40, 10))
        r1 = r_per_location(preds, obs)
        r2 = r_per_location(3.0 * preds + 7.0, obs)
        np.testing.assert_allclose(r1, r2, atol=1e-12)

    def test_r_bounded(self):
        obs = Rng(6).normal(size=(50, 10))
        preds = Rng(7).normal(size=(50, 10))
        assert np.abs(r_per_location(preds, obs)).max() <= 1 + 1e-12

    def test_constant_series_gives_nan(self):
        obs = np.ones((20, 10))
        preds = Rng(8).normal(size=(20, 10))
        assert np.isnan(r_per_location(preds, obs)).all()

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="n, 10"):
            mse_per_location(np.ones((5, 9)), np.ones((5, 9)))
        with pytest.raises(ValueError, match="no rows"):
            mse_per_location(np.empty((0, 10)), np.empty((0, 10)))

    def test_location_metrics_numbering(self):
        obs = Rng(9).normal(size=(25, 10))
        ms = location_metrics(obs, obs)
        assert [m.location for m in ms] == list(range(1, 11))
        assert all(m.n == 25 for m in ms)


class TestCollectErrors:
    def test_two_paths_agree(self, untrained):
        net, normalizer, tracks = untrained
        errors = pool_errors(predicted(net, normalizer, tracks))
        preds = np.concatenate([predict_track(net, normalizer, t) for t in tracks])
        obs = np.concatenate([t.surge for t in tracks])
        mses = mse_per_location(preds, obs)
        for i in range(10):
            assert math.isclose(float((errors[i] ** 2).mean()), float(mses[i]),
                                rel_tol=1e-12)

    def test_error_sign_is_pred_minus_obs(self, untrained):
        net, normalizer, tracks = untrained
        errors = pool_errors(predicted(net, normalizer, tracks[:1]))
        manual = predict_track(net, normalizer, tracks[0]) - tracks[0].surge
        np.testing.assert_array_equal(errors[0], manual[:, 0])

    def test_window_restricts_row_count(self, untrained):
        net, normalizer, tracks = untrained
        series = predicted(net, normalizer, tracks)
        full = pool_errors(series)
        window = pool_errors(series, window_days=0.5)
        assert all(e.size == 193 * len(tracks) for e in full)
        assert all(e.size == 49 * len(tracks) for e in window)

    def test_no_tracks_rejected(self):
        with pytest.raises(ValueError, match="no tracks"):
            pool_errors([])

    def test_incompatible_checkpoint_rejected(self, untrained):
        _, normalizer, tracks = untrained
        wrong = init_network(Architecture(5, (4,), 10), Rng(0))
        with pytest.raises(DimensionMismatchError, match=r"\(n, 5\), got \(193, 6\)"):
            predict_track(wrong, normalizer, tracks[0])


class TestFitKde:
    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            fit_kde(np.zeros(9))

    def test_non_finite_rejected(self):
        e = np.zeros(20)
        e[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit_kde(e)

    @pytest.mark.parametrize("spread", [1e150, 1e200, 1e308])
    def test_spread_that_would_overflow_rejected(self, spread):
        # Squared deviations of errors this far apart overflow float64.
        with pytest.raises(DomainError, match="finite and below 1e150"):
            fit_kde(np.resize([spread, 0.0], 20))

    def test_degenerate_population_is_a_point_mass(self):
        pdf = fit_kde(np.full(50, 0.07))
        assert pdf.point_mass == 0.07
        assert pdf.bandwidth == 0.0
        assert prob_within(pdf, 0.1) == 1.0
        assert prob_within(pdf, 0.05) == 0.0
        assert quantile_interval(pdf, 0.95) == 0.07

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_spread_below_grid_resolution_is_a_point_mass(self, sign):
        # Two neighbouring floats: a 1024-point grid over them would repeat
        # points, and its density would hold about 0.585 of the mass.
        above = np.nextafter(0.3, 1.0)
        pdf = fit_kde(sign * np.resize([0.3, above], 40))
        assert pdf.point_mass == sign * above  # the error of largest magnitude
        assert prob_within(pdf, 0.31) == 1.0
        assert prob_within(pdf, above) == 1.0
        assert prob_within(pdf, 0.3) == 0.0
        assert quantile_interval(pdf, 0.95) == above

    def test_bandwidth_follows_scott_rule(self):
        e = Rng(10).normal(size=400)
        pdf = fit_kde(e)
        assert pdf.bandwidth == float(e.std()) * 400 ** (-0.2)

    def test_grid_spans_samples_plus_four_bandwidths(self):
        e = Rng(11).normal(size=200)
        pdf = fit_kde(e)
        h = pdf.bandwidth
        assert pdf.grid[0] == float(e.min()) - 4 * h
        assert pdf.grid[-1] == float(e.max()) + 4 * h
        assert pdf.grid.size >= 1024
        step = pdf.grid[1] - pdf.grid[0]
        assert step <= h / 4 * 1.0001

    def test_density_integrates_to_one(self):
        for sample in (Rng(12).normal(size=2000),
                       np.concatenate([Rng(13).normal(-1.0, 0.2, 1000),
                                       Rng(14).normal(1.5, 0.4, 1000)])):
            pdf = fit_kde(sample)
            total = float(np.trapezoid(pdf.density, pdf.grid))
            assert abs(total - 1.0) < 1e-3

    def test_matches_direct_kernel_sum(self):
        e = Rng(15).normal(size=300)
        pdf = fit_kde(e)
        h = pdf.bandwidth
        probe = pdf.grid[:: pdf.grid.size // 16]
        direct = np.exp(-((probe[:, None] - e[None, :]) ** 2) / (2 * h * h)).sum(axis=1)
        direct /= e.size * h * math.sqrt(2 * math.pi)
        approx = np.interp(probe, pdf.grid, pdf.density)
        np.testing.assert_allclose(approx, direct, atol=5e-3 * direct.max())

    def test_records_location_and_cdf(self):
        pdf = fit_kde(Rng(16).normal(size=64), location=4)
        assert pdf.location == 4
        assert pdf.cdf.shape == pdf.grid.shape
        assert pdf.cdf[0] == 0.0
        assert np.all(np.diff(pdf.cdf) >= 0)
        assert abs(pdf.cdf[-1] - np.trapezoid(pdf.density, pdf.grid)) < 1e-12


class TestProbWithin:
    def test_monotone_in_the_bound(self):
        pdf = fit_kde(Rng(17).normal(size=500))
        ps = [prob_within(pdf, b) for b in (0.5, 1.0, 2.0, 4.0)]
        assert ps == sorted(ps)

    def test_everything_inside_a_huge_bound(self):
        pdf = fit_kde(Rng(18).normal(size=500))
        assert prob_within(pdf, 100.0) > 0.999

    def test_bound_validated(self):
        pdf = fit_kde(Rng(19).normal(size=50))
        for bad in (0.0, -0.1):
            with pytest.raises(ValueError, match="bound"):
                prob_within(pdf, bad)

    def test_gaussian_calibration(self):
        # P(|e| <= 0.1) for N(0, 0.1^2) is erf(1/sqrt(2)) = 0.6827.
        e = Rng(20).normal(0.0, 0.1, size=100_000)
        pdf = fit_kde(e)
        assert abs(prob_within(pdf, 0.1) - 0.6827) < 0.01


class TestQuantileInterval:
    def test_gaussian_95_percent_interval(self):
        e = Rng(21).normal(size=20_000)
        pdf = fit_kde(e)
        assert abs(quantile_interval(pdf, 0.95) - 1.96) / 1.96 < 0.03

    def test_inverse_consistency(self):
        pdf = fit_kde(Rng(22).normal(size=5_000))
        e_star = quantile_interval(pdf, 0.95)
        p = prob_within(pdf, e_star)
        assert 0.95 <= p <= 0.951

    def test_median_of_symmetric_distribution(self):
        e = Rng(23).normal(size=50_000)
        pdf = fit_kde(e)
        # Half the mass of a standard normal lies within 0.6745 sigma.
        assert abs(prob_within(pdf, quantile_interval(pdf, 0.5)) - 0.5) < 1e-3

    def test_mass_validated(self):
        pdf = fit_kde(Rng(24).normal(size=50))
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError, match="mass"):
                quantile_interval(pdf, bad)

    def test_saturates_at_the_grid_edge(self):
        pdf = fit_kde(Rng(25).normal(size=100))
        hi = max(abs(pdf.grid[0]), abs(pdf.grid[-1]))
        assert quantile_interval(pdf, 0.9999999) <= hi + 1e-12

    @pytest.mark.parametrize("sample_seed,maker", [
        (26, lambda r: r.normal(size=4000)),
        (27, lambda r: r.uniform(-2.0, 2.0, size=4000)),
        (28, lambda r: np.concatenate([r.normal(-1.0, 0.3, 2000),
                                       r.normal(1.0, 0.3, 2000)])),
    ])
    def test_agrees_with_empirical_quantiles(self, sample_seed, maker):
        # Loose tolerance: kernel smoothing legitimately shifts quantiles a
        # little, most visibly for the bimodal sample.
        e = maker(Rng(sample_seed))
        pdf = fit_kde(e)
        for mass in (0.25, 0.5, 0.75):
            want = float(np.quantile(np.abs(e), mass))
            got = quantile_interval(pdf, mass)
            assert abs(got - want) <= 0.05 * max(want, 1.0)


def reference_prob_within(pdf, bound):
    """prob_within as it was before each density carried its CDF: the
    trapezoid over the interpolated density on [-bound, bound], redone from
    the grid on every call. Kept as the reference."""
    if pdf.point_mass is not None:
        return 1.0 if abs(pdf.point_mass) <= bound else 0.0
    a = max(-bound, float(pdf.grid[0]))
    b = min(bound, float(pdf.grid[-1]))
    if a >= b:
        return 0.0
    inner = pdf.grid[(pdf.grid > a) & (pdf.grid < b)]
    xs = np.concatenate([[a], inner, [b]])
    return float(np.trapezoid(np.interp(xs, pdf.grid, pdf.density), xs))


def reference_quantile(pdf, mass):
    """quantile_interval as it was: bisection on reference_prob_within down
    to a 1e-7 bracket, returning its upper end. Kept as the reference."""
    if pdf.point_mass is not None:
        return abs(pdf.point_mass)
    hi = max(abs(float(pdf.grid[0])), abs(float(pdf.grid[-1])))
    if reference_prob_within(pdf, hi) < mass:
        return hi
    lo = 0.0
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if reference_prob_within(pdf, mid) >= mass:
            hi = mid
        else:
            lo = mid
    return hi


SAMPLERS = {
    "normal": lambda r, n: r.normal(size=n),
    "uniform": lambda r, n: r.uniform(-1.0, 1.0, size=n),
    "bimodal": lambda r, n: np.concatenate([r.normal(-1.0, 0.2, n // 2),
                                            r.normal(1.5, 0.4, n - n // 2)]),
    "constant": lambda r, n: np.full(n, r.normal()),
}


class TestSummariesMatchReference:
    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(sorted(SAMPLERS)),
           n=st.integers(10, 5000),
           scale=st.floats(-3.0, 2.0).map(lambda x: 10.0 ** x),
           shift=st.floats(-2.0, 2.0),
           seed=st.integers(0, 2**32 - 1),
           bound=st.floats(1e-3, 5.0),
           mass=st.floats(1e-6, 1.0, exclude_max=True))
    def test_drawn_populations(self, kind, n, scale, shift, seed, bound, mass):
        pdf = fit_kde(scale * (SAMPLERS[kind](Rng(seed), n) + shift))
        b = bound * scale
        assert abs(prob_within(pdf, b) - reference_prob_within(pdf, b)) <= 1e-12
        for m in (mass, E_STAR_MASS, math.nextafter(1.0, 0.0)):
            e_star = quantile_interval(pdf, m)
            ref = reference_quantile(pdf, m)
            assert ref - 1e-7 <= e_star <= ref
            if pdf.point_mass is not None:
                assert e_star == abs(pdf.point_mass)
            elif prob_within(pdf, ref) < m:  # m is more than the whole grid holds
                assert e_star == ref == max(abs(pdf.grid[0]), abs(pdf.grid[-1]))
            else:
                assert prob_within(pdf, e_star) >= m


@pytest.fixture(scope="module")
def result(untrained):
    net, normalizer, tracks = untrained
    return evaluate_tracks(net, normalizer, tracks, label="test")


class TestEvaluateAndReport:

    def test_population_shape(self, result):
        assert len(result.metrics) == 10
        assert len(result.full_pdfs) == 10
        assert len(result.window_pdfs) == 10
        assert [pdf.location for pdf in result.full_pdfs] == list(range(1, 11))
        assert all(e.size == 193 * 6 for e in pool_errors(result.series))
        assert all(e.size == 49 * 6 for e in pool_errors(result.series, 0.5))

    def test_network_runs_once_per_track(self, untrained, monkeypatch):
        net, normalizer, tracks = untrained
        calls = []

        def counting(net, normalizer, track, operands=None):
            calls.append(track.track_id)
            return predict_track(net, normalizer, track, operands)

        monkeypatch.setattr(evaluation, "predict_track", counting)
        evaluate_tracks(net, normalizer, tracks, label="test")
        assert calls == [t.track_id for t in tracks]

    def test_layer_operands_built_once_per_population(self, untrained, monkeypatch):
        # Every track runs through one operand set, sized to the longest
        # track, instead of one built per track.
        net, normalizer, tracks = untrained
        build, calls = network.layer_operands, []

        def counting(net, rows, out=None):
            calls.append(rows)
            return build(net, rows, out)

        monkeypatch.setattr(network, "layer_operands", counting)
        monkeypatch.setattr(evaluation, "layer_operands", counting)
        evaluate_tracks(net, normalizer, tracks, label="test")
        assert calls == [193]

    def test_pools_match_pool_errors(self, result, untrained):
        net, normalizer, tracks = untrained
        series = predicted(net, normalizer, tracks)
        for pdfs, window_days in ((result.full_pdfs, None), (result.window_pdfs, 0.5)):
            for pdf, errors in zip(pdfs, pool_errors(series, window_days)):
                want = fit_kde(errors, location=pdf.location)
                assert pdf.bandwidth == want.bandwidth
                for field in ("grid", "density", "cdf"):
                    np.testing.assert_array_equal(getattr(pdf, field), getattr(want, field))

    def test_empty_population_rejected(self, untrained):
        net, normalizer, _ = untrained
        with pytest.raises(ValueError, match="population"):
            evaluate_tracks(net, normalizer, [], label="x")

    def test_report_files(self, result, tmp_path):
        metrics_path, series_path = emit_report(result, tmp_path)
        assert metrics_path.name == "metrics_test.csv"
        assert series_path.name == "timeseries_test.csv"

        with open(metrics_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == METRICS_HEADER
        assert len(rows) == 11
        assert [r[0] for r in rows[1:]] == [str(i) for i in range(1, 11)]
        for row in rows[1:]:
            p_full = float(row[3])
            assert 0.0 <= p_full <= 1.0
            assert float(row[4]) > 0.0

        with open(series_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["track_id", "tau_days"]
        assert len(rows[0]) == 22
        assert len(rows) == 1 + 193 * 6

    def test_report_is_byte_identical_on_rerun(self, result, tmp_path):
        emit_report(result, tmp_path / "a")
        emit_report(result, tmp_path / "b")
        for name in ("metrics_test.csv", "timeseries_test.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_metrics_match_direct_computation(self, result, untrained):
        net, normalizer, tracks = untrained
        preds = np.concatenate([predict_track(net, normalizer, t) for t in tracks])
        obs = np.concatenate([t.surge for t in tracks])
        np.testing.assert_allclose([m.mse for m in result.metrics],
                                   mse_per_location(preds, obs), rtol=1e-12)

    def test_report_columns_cover_both_bounds(self):
        assert METRICS_HEADER == ("location", "mse", "r", "p_within_0.10",
                                  "e_star_95", "p_within_0.10_landfall",
                                  "p_within_0.50_landfall")
        assert TIGHT_BOUND_M == 0.10
        assert E_STAR_MASS == 0.95
