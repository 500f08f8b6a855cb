"""Per-location accuracy metrics, kernel-density error analysis, and report
emission for trained surge models.

Errors are always prediction minus observation, in meters, pooled per
station over whole tracks or over the landfall window only.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import N_STATIONS, atomic_write, csv_lead, format_rows, landfall_window
from .errors import DimensionMismatchError, DomainError, TrackValidationError
from .network import forward_batch, layer_operands

# Report columns derived from the error distribution.
TIGHT_BOUND_M = 0.10
WIDE_BOUND_M = 0.50
E_STAR_MASS = 0.95

_MIN_KDE_SAMPLES = 10


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
        raise DimensionMismatchError(
            f"predictions and observations must both be (n, {N_STATIONS}), "
            f"got {p.shape!s:.18} and {o.shape!s:.18}")  # two echoed values, 18 characters each
    if p.shape[0] == 0:
        raise DimensionMismatchError("no rows to score")
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


def predict_track(net, normalizer, track, operands=None) -> np.ndarray:
    """Surge predictions (193, 10) of one track's raw inputs; operands as in forward_batch."""
    return forward_batch(net, normalizer.apply(track.inputs), operands=operands)[0]


def pool_errors(series, window_days=None) -> list:
    """Per-station prediction-minus-observation errors of (track, predictions) pairs.

    window_days restricts every track to its landfall window; None keeps all
    rows. Returns ten 1-D arrays, one per station.
    """
    if not series:
        raise TrackValidationError("no tracks to pool errors from")
    blocks = []
    for track, preds in series:
        rows = range(len(preds)) if window_days is None else landfall_window(track, window_days)
        blocks.append((preds - track.surge)[rows.start:rows.stop].T)
    return list(np.concatenate(blocks, axis=1))


@dataclass(frozen=True)
class ErrorPdf:
    """Gaussian-kernel density estimate of one error population.

    The density lives on a uniform grid wide enough that effectively all
    kernel mass is inside, and cdf integrates it up to each grid point. A
    population too narrow for such a grid to resolve is a point mass at its
    error of largest magnitude instead (point_mass set, arrays empty).
    """

    location: int | None
    bandwidth: float
    grid: np.ndarray
    density: np.ndarray
    cdf: np.ndarray
    point_mass: float | None = None


def fit_kde(errors, location=None) -> ErrorPdf:
    """Density estimate with Scott's-rule bandwidth sigma * n^(-1/5).

    The kernel sum is evaluated by linear binning plus discrete convolution
    on a grid spanning [min - 4h, max + 4h] with step at most h/4, which
    matches direct evaluation to well below the report's precision.
    """
    e = np.asarray(errors, dtype=np.float64).ravel()
    n = e.size
    if n < _MIN_KDE_SAMPLES:
        raise DomainError(f"need at least {_MIN_KDE_SAMPLES} errors, got {n}")
    if not np.abs(e).max() < 1e150:  # nan and inf fail too; beyond, e.std() overflows
        where = "" if location is None else f"location {location}: "
        raise DomainError(f"{where}errors must be finite and below 1e150 in magnitude")

    h = float(e.std()) * n ** (-0.2)
    lo = float(e.min()) - 4.0 * h
    hi = float(e.max()) + 4.0 * h
    largest = float(e[np.argmax(np.abs(e))])
    if (hi - lo) / 1023 < math.ulp(largest):  # a 1024-point grid cannot resolve e
        return ErrorPdf(location, 0.0, np.empty(0), np.empty(0), np.empty(0),
                        point_mass=largest)
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
    cdf = np.concatenate([[0.0], np.cumsum(np.diff(grid) * (density[1:] + density[:-1]) / 2)])
    return ErrorPdf(location, h, grid, density, cdf)


def _within(pdf: ErrorPdf, e):
    """P(|error| <= e) = F(e) - F(-e) for a float or array e, where F(x) is
    the cdf at the grid point below x plus the trapezoid from there to x."""
    g, d = pdf.grid, pdf.density
    x = np.clip([e, -e], g[0], g[-1])
    k = np.clip(np.searchsorted(g, x, side="right") - 1, 0, g.size - 2)
    f = pdf.cdf[k] + (x - g[k]) * (d[k] + np.interp(x, g, d)) / 2
    return f[0] - f[1]


def prob_within(pdf: ErrorPdf, bound: float) -> float:
    """P(|error| <= bound): trapezoidal integral of the density on [-b, b]."""
    if not bound > 0:
        raise DomainError(f"bound must be > 0, got {bound!s:.40}")
    if pdf.point_mass is not None:
        return 1.0 if abs(pdf.point_mass) <= bound else 0.0
    return float(_within(pdf, bound))


def quantile_interval(pdf: ErrorPdf, mass: float) -> float:
    """Smallest half-width e* with prob_within(pdf, e*) >= mass.

    Between neighbouring knots of {0} and |grid| neither e nor -e crosses a
    grid point, so the mass within e is quadratic in e there. It is solved in
    closed form on the segment where it reaches mass.
    """
    if not 0 < mass < 1:
        raise DomainError(f"mass must be in (0, 1), got {mass!s:.40}")
    if pdf.point_mass is not None:
        return abs(pdf.point_mass)
    knots = np.sort(np.abs(np.concatenate([[0.0], pdf.grid])))
    p = _within(pdf, knots)
    if p[-1] < mass:
        return float(knots[-1])  # mass asks for more than the grid holds; saturate
    j = int(np.argmax(p >= mass))  # >= 1, since p[0] == 0
    e0, e1 = float(knots[j - 1]), float(knots[j])
    # With u = (e - e0) / (e1 - e0), the mass within e is p[j - 1] + u (b + a u).
    half, full = _within(pdf, (e0 + e1) / 2) - p[j - 1], p[j] - p[j - 1]
    b, a, c = 4 * half - full, 2 * full - 4 * half, mass - p[j - 1]
    root = b + math.sqrt(max(b * b + 4 * a * c, 0.0))
    e = float(min(e0 + (e1 - e0) * (2 * c / root), e1)) if root > 0 else e1
    # If rounding left the root short, gallop up from one ulp and halve back.
    lo, step = e, math.ulp(e)
    while _within(pdf, e) < mass:
        lo, e, step = e, min(e + step, e1), 2 * step
    while lo < (mid := lo + (e - lo) / 2) < e:
        lo, e = (mid, e) if _within(pdf, mid) < mass else (lo, mid)
    return e


@dataclass(frozen=True)
class EvaluationResult:
    """Everything emit_report needs for one track population."""

    label: str
    metrics: list
    full_pdfs: list
    window_pdfs: list
    series: list  # (track, predictions) pairs in evaluation order


def evaluate_tracks(net, normalizer, tracks, label, window_days=0.5) -> EvaluationResult:
    """Score one population: per-station metrics plus full-track and
    landfall-window error densities."""
    tracks = list(tracks)
    if not tracks:
        raise TrackValidationError(f"no tracks in population {label!r:.40}")
    operands = layer_operands(net, max(len(tr.inputs) for tr in tracks))
    series = [(tr, predict_track(net, normalizer, tr, operands)) for tr in tracks]
    preds = np.concatenate([p for _, p in series])
    obs = np.concatenate([tr.surge for tr, _ in series])
    # Densities first: fit_kde names the station whose errors would overflow the metrics.
    full_pdfs, window_pdfs = (
        [fit_kde(e, location=i) for i, e in enumerate(pool_errors(series, days), start=1)]
        for days in (None, window_days))
    metrics = location_metrics(preds, obs)
    return EvaluationResult(label, metrics, full_pdfs, window_pdfs, series)


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
