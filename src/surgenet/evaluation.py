"""Per-location accuracy metrics, kernel-density error analysis, and report
emission for trained surge models.

Errors are always prediction minus observation, in meters, pooled per
station over whole tracks or over the landfall window only.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import N_STATIONS, atomic_write, csv_lead, format_rows, landfall_window
from .errors import DimensionMismatchError
from .network import forward_batch

# Report columns derived from the error distribution.
TIGHT_BOUND_M = 0.10
WIDE_BOUND_M = 0.50
E_STAR_MASS = 0.95

_MIN_KDE_SAMPLES = 10
_QUANTILE_TOL_M = 1e-7  # bisection stop; far tighter than the 1e-4 contract


@dataclass(frozen=True)
class LocationMetrics:
    """Accuracy at one station, 1-based to match the surge column numbers."""

    location: int
    mse: float
    r: float  # NaN when either series is constant (correlation undefined)
    n: int


def mse_per_location(preds, obs) -> np.ndarray:
    """Mean squared error per station over stacked (n, 10) arrays."""
    p, o = _stacked(preds, obs)
    d = p - o
    return (d * d).mean(axis=0)


def r_per_location(preds, obs) -> np.ndarray:
    """Pearson correlation per station; NaN where a series is constant."""
    p, o = _stacked(preds, obs)
    pc = p - p.mean(axis=0)
    oc = o - o.mean(axis=0)
    denom = np.sqrt((pc * pc).sum(axis=0) * (oc * oc).sum(axis=0))
    with np.errstate(invalid="ignore"):
        return np.where(denom > 0, (pc * oc).sum(axis=0) / denom, np.nan)


def _stacked(preds, obs) -> tuple:
    p = np.asarray(preds, dtype=np.float64)
    o = np.asarray(obs, dtype=np.float64)
    if p.shape != o.shape or p.ndim != 2 or p.shape[1] != N_STATIONS:
        raise ValueError(
            f"predictions and observations must both be (n, {N_STATIONS}), "
            f"got {p.shape} and {o.shape}")
    if p.shape[0] == 0:
        raise ValueError("no rows to score")
    return p, o


def location_metrics(preds, obs) -> list:
    """Per-station LocationMetrics over stacked predictions/observations."""
    mses = mse_per_location(preds, obs)
    rs = r_per_location(preds, obs)
    n = np.asarray(preds).shape[0]
    return [
        LocationMetrics(location=i + 1, mse=float(mses[i]), r=float(rs[i]), n=n)
        for i in range(N_STATIONS)
    ]


def predict_track(net, normalizer, track) -> np.ndarray:
    """Surge predictions (193, 10) for one track; handles normalization."""
    n_in = track.inputs.shape[1]
    if net.arch.input_dim != n_in or net.arch.output_dim != N_STATIONS:
        raise DimensionMismatchError(
            f"checkpoint maps {net.arch.input_dim} inputs to {net.arch.output_dim} "
            f"outputs, but tracks have {n_in} inputs and {N_STATIONS} stations")
    outputs, _ = forward_batch(net, normalizer.apply(track.inputs))
    return outputs


def collect_errors(net, normalizer, tracks, window_days=None) -> list:
    """Pool prediction-minus-observation errors per station.

    window_days restricts every track to its landfall window; None keeps all
    rows. Returns ten 1-D arrays, one per station.
    """
    return _pool_errors([(tr, predict_track(net, normalizer, tr)) for tr in tracks],
                        window_days)


def _pool_errors(series, window_days) -> list:
    """collect_errors over (track, predictions) pairs that are already known."""
    if not series:
        raise ValueError("no tracks to collect errors from")
    parts = [[] for _ in range(N_STATIONS)]
    for track, preds in series:
        err = preds - track.surge
        if window_days is not None:
            rows = landfall_window(track, window_days)
            err = err[rows.start:rows.stop]
        for i in range(N_STATIONS):
            parts[i].append(err[:, i])
    return [np.concatenate(p) for p in parts]


@dataclass(frozen=True)
class ErrorPdf:
    """Gaussian-kernel density estimate of one error population.

    The density lives on a uniform grid wide enough that effectively all
    kernel mass is inside. A zero-variance population is represented as a
    point mass instead (point_mass set, empty grid, bandwidth 0).
    """

    location: int | None
    samples: np.ndarray
    bandwidth: float
    grid: np.ndarray
    density: np.ndarray
    point_mass: float | None = None

    @property
    def n_samples(self) -> int:
        return self.samples.size


def fit_kde(errors, location=None) -> ErrorPdf:
    """Density estimate with Scott's-rule bandwidth sigma * n^(-1/5).

    The kernel sum is evaluated by linear binning plus discrete convolution
    on a grid spanning [min - 4h, max + 4h] with step at most h/4, which
    matches direct evaluation to well below the report's precision.
    """
    e = np.asarray(errors, dtype=np.float64).ravel()
    n = e.size
    if n < _MIN_KDE_SAMPLES:
        raise ValueError(f"need at least {_MIN_KDE_SAMPLES} samples, got {n}")
    if not np.isfinite(e).all():
        raise ValueError("error samples must be finite")

    sigma = float(e.std())
    if sigma == 0.0:
        return ErrorPdf(location, e, 0.0, np.empty(0), np.empty(0),
                        point_mass=float(e[0]))

    h = sigma * n ** (-0.2)
    lo = float(e.min()) - 4.0 * h
    hi = float(e.max()) + 4.0 * h
    n_grid = int(max(1024, min(np.ceil((hi - lo) / (h / 4.0)) + 1, 65536)))
    grid = np.linspace(lo, hi, n_grid)
    step = (hi - lo) / (n_grid - 1)

    pos = (e - lo) / step
    idx = np.clip(pos.astype(np.int64), 0, n_grid - 2)
    frac = pos - idx
    counts = np.zeros(n_grid)
    np.add.at(counts, idx, 1.0 - frac)
    np.add.at(counts, idx + 1, frac)

    radius = int(np.ceil(4.0 * h / step))
    u = np.arange(-radius, radius + 1) * step
    kernel = np.exp(-(u * u) / (2.0 * h * h))
    kernel /= kernel.sum()
    density = np.convolve(counts, kernel, mode="same") / (n * step)
    return ErrorPdf(location, e, h, grid, density)


def prob_within(pdf: ErrorPdf, bound: float) -> float:
    """P(|error| <= bound): trapezoidal integral of the density on [-b, b]."""
    if not bound > 0:
        raise ValueError(f"bound must be > 0, got {bound}")
    if pdf.point_mass is not None:
        return 1.0 if abs(pdf.point_mass) <= bound else 0.0
    a = max(-bound, float(pdf.grid[0]))
    b = min(bound, float(pdf.grid[-1]))
    if a >= b:
        return 0.0
    inner = pdf.grid[(pdf.grid > a) & (pdf.grid < b)]
    xs = np.concatenate([[a], inner, [b]])
    ys = np.interp(xs, pdf.grid, pdf.density)
    return float(np.trapezoid(ys, xs))


def quantile_interval(pdf: ErrorPdf, mass: float) -> float:
    """Smallest half-width e* with prob_within(pdf, e*) >= mass (bisection)."""
    if not 0 < mass < 1:
        raise ValueError(f"mass must be in (0, 1), got {mass}")
    if pdf.point_mass is not None:
        return abs(pdf.point_mass)
    hi = max(abs(float(pdf.grid[0])), abs(float(pdf.grid[-1])))
    if prob_within(pdf, hi) < mass:
        return hi  # mass asks for more than the grid holds; saturate
    lo = 0.0
    while hi - lo > _QUANTILE_TOL_M:
        mid = 0.5 * (lo + hi)
        if prob_within(pdf, mid) >= mass:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class EvaluationResult:
    """Everything emit_report needs for one track population."""

    label: str
    metrics: list
    full_pdfs: list
    window_pdfs: list
    series: list  # (track, predictions) pairs in evaluation order
    window_days: float


def evaluate_tracks(net, normalizer, tracks, label, window_days=0.5) -> EvaluationResult:
    """Score one population: per-station metrics plus full-track and
    landfall-window error densities."""
    tracks = list(tracks)
    if not tracks:
        raise ValueError(f"no tracks in population {label!r}")
    series = [(tr, predict_track(net, normalizer, tr)) for tr in tracks]
    preds = np.concatenate([p for _, p in series])
    obs = np.concatenate([tr.surge for tr, _ in series])
    metrics = location_metrics(preds, obs)

    full_errors = _pool_errors(series, None)
    window_errors = _pool_errors(series, window_days)
    full_pdfs = [fit_kde(full_errors[i], location=i + 1) for i in range(N_STATIONS)]
    window_pdfs = [fit_kde(window_errors[i], location=i + 1) for i in range(N_STATIONS)]
    return EvaluationResult(label, metrics, full_pdfs, window_pdfs, series, window_days)


METRICS_HEADER = (
    "location", "mse", "r",
    f"p_within_{TIGHT_BOUND_M:.2f}", f"e_star_{int(E_STAR_MASS * 100)}",
    f"p_within_{TIGHT_BOUND_M:.2f}_landfall", f"p_within_{WIDE_BOUND_M:.2f}_landfall",
)


def emit_report(result: EvaluationResult, out_dir) -> tuple:
    """Write the metrics table and the per-track time series for one
    population; output is byte-identical for identical inputs.

    Values carry 10 significant digits. Each file is written atomically, and
    the time series one track's block at a time.

    Returns (metrics_path, timeseries_path).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / f"metrics_{result.label}.csv"
    series_path = out_dir / f"timeseries_{result.label}.csv"

    # The station number goes through %.10g too, which writes 1..10 as the
    # integers they are.
    table = [
        (m.location, m.mse, m.r,
         prob_within(full, TIGHT_BOUND_M),
         quantile_interval(full, E_STAR_MASS),
         prob_within(win, TIGHT_BOUND_M),
         prob_within(win, WIDE_BOUND_M))
        for m, full, win in zip(result.metrics, result.full_pdfs, result.window_pdfs)
    ]
    with atomic_write(metrics_path) as fh:
        csv.writer(fh).writerow(METRICS_HEADER)
        fh.write(format_rows(table, 10))

    obs_cols = [f"obs_{i:02d}" for i in range(1, N_STATIONS + 1)]
    pred_cols = [f"pred_{i:02d}" for i in range(1, N_STATIONS + 1)]
    with atomic_write(series_path) as fh:
        csv.writer(fh).writerow(["track_id", "tau_days", *obs_cols, *pred_cols])
        for track, preds in result.series:
            block = np.hstack([track.inputs[:, :1], track.surge, preds])
            fh.write(format_rows(block, 10, lead=csv_lead(track.track_id)))
    return metrics_path, series_path
