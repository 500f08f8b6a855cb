"""Storm-track data model: the 16-column schema, CSV round-trip, corpus
splitting, the landfall window, and a synthetic track generator whose
analytic surge response serves as reproducible ground truth.

Each track is one landfalling storm sampled every 30 minutes from 3 days
before landfall to 1 day after (193 rows). Six input columns describe the
storm; ten output columns give the surge height at fixed coastal stations,
in meters above mean sea level, with no astronomical tide component.
"""

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ColumnSchemaError,
    ConfigError,
    FieldRangeError,
    NonFiniteValueError,
    RowCountError,
    TauGridError,
    TrackValidationError,
)
from .numerics import Rng

N_ROWS = 193
LANDFALL_ROW = 144  # tau = 0 here; 144 rows before, 48 after
TAU_STEP_DAYS = 1.0 / 48.0
N_STATIONS = 10

INPUT_COLUMNS = ("tau_days", "lon_deg", "lat_deg", "rmax_km", "vmax_ms", "fspeed_ms")
SURGE_COLUMNS = tuple(f"surge_{i:02d}" for i in range(1, N_STATIONS + 1))
CSV_COLUMNS = INPUT_COLUMNS + SURGE_COLUMNS

# Equirectangular plane fixed at the study latitude; fine for a few hundred km.
KM_PER_DEG_LAT = 111.0
REF_LAT_DEG = 35.0
KM_PER_DEG_LON = KM_PER_DEG_LAT * math.cos(math.radians(REF_LAT_DEG))

# Idealized coastline: a parabola bending north-east, lat = base + bend*(lon-west)^2.
COAST_LON_WEST = -78.6
COAST_LON_EAST = -75.0
COAST_LAT_BASE = 33.9
COAST_BEND = 0.18

# Sampling ranges for synthetic storms.
LANDFALL_LON_MIN = -78.3
LANDFALL_LON_MAX = -75.3
HEADING_CONE_DEG = 35.0  # approach direction scatter around the inland shore normal
DP_MIN_HPA = 20.0
DP_MAX_HPA = 110.0
RMAX_MIN_KM = 20.0
RMAX_MAX_KM = 80.0
FSPEED_MIN_MS = 2.0
FSPEED_MAX_MS = 10.0

# Fixed constants of the surge response (see surge_oracle).
VMAX_COEF_MS = 7.0        # vmax = coef * sqrt(dp); inverted to recover dp
BEARING_SOFTEN_KM = 25.0  # keeps the directional term smooth near zero distance
G_RMAX_REF_KM = 50.0
G_RMAX_EXP = 0.4
G_FSPEED_REF_MS = 5.0
G_FSPEED_SCALE = 20.0

SECONDS_PER_DAY = 86400.0
KM_PER_DAY_PER_MS = SECONDS_PER_DAY / 1000.0  # 1 m/s sustained for one day


def tau_grid() -> np.ndarray:
    """The fixed countdown clock: +3.0 down to -1.0 days in 1/48 steps."""
    return (LANDFALL_ROW - np.arange(N_ROWS)) / 48.0


def coast_lat(lon_deg) -> np.ndarray:
    """Latitude of the idealized coastline at the given longitude."""
    lon = np.asarray(lon_deg, dtype=np.float64)
    return COAST_LAT_BASE + COAST_BEND * (lon - COAST_LON_WEST) ** 2


def _inland_normal(lon_deg: float) -> tuple:
    """Unit vector (km plane) perpendicular to the coast, pointing inland."""
    slope_km = COAST_BEND * 2.0 * (lon_deg - COAST_LON_WEST) * KM_PER_DEG_LAT
    tx, ty = KM_PER_DEG_LON, slope_km  # tangent, pointing north-east along the coast
    norm = math.hypot(tx, ty)
    # Rotate the tangent 90 degrees counter-clockwise: the ocean lies south-east.
    return -ty / norm, tx / norm


@dataclass(frozen=True)
class StormTrack:
    """One storm: inputs (193, 6) and station surge (193, 10), both read-only."""

    track_id: str
    inputs: np.ndarray
    surge: np.ndarray

    def __post_init__(self):
        for name in ("inputs", "surge"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def tau(self) -> np.ndarray:
        return self.inputs[:, 0]


def validate_track(track: StormTrack, where: str = "") -> None:
    """Check shape, the tau grid, finiteness, and physical field ranges.

    where, if given (e.g. "track_0001.csv: "), prefixes every error message.
    """
    if track.inputs.ndim != 2 or track.inputs.shape[1] != len(INPUT_COLUMNS):
        raise ColumnSchemaError(
            f"{where}inputs must have {len(INPUT_COLUMNS)} columns, "
            f"got shape {track.inputs.shape}")
    if track.surge.ndim != 2 or track.surge.shape[1] != N_STATIONS:
        raise ColumnSchemaError(
            f"{where}surge must have {N_STATIONS} columns, got shape {track.surge.shape}")
    if track.inputs.shape[0] != N_ROWS or track.surge.shape[0] != N_ROWS:
        raise RowCountError(
            f"{where}track {track.track_id!r} has {track.inputs.shape[0]} rows, "
            f"expected {N_ROWS}")

    for block, names in ((track.inputs, INPUT_COLUMNS), (track.surge, SURGE_COLUMNS)):
        finite = np.isfinite(block)
        if not finite.all():
            r, c = np.argwhere(~finite)[0]
            raise NonFiniteValueError(f"{where}non-finite value", row=int(r), column=names[c])

    expected_tau = tau_grid()
    off = np.abs(track.tau - expected_tau) > 1e-9
    if off.any():
        r = int(np.argmax(off))
        raise TauGridError(
            f"{where}tau must count down from +3 to -1 in 1/48 steps; "
            f"got {float(track.tau[r])!r}",
            row=r, column="tau_days")

    _check_input_ranges(track.inputs, where)


def _check_input_ranges(inputs: np.ndarray, where: str = "") -> None:
    """Check the physical ranges of (n, 6) input rows: rmax_km > 0, vmax_ms >= 0
    and fspeed_ms >= 0. The first violation raises FieldRangeError naming its
    row and column; where, if given, prefixes the message."""
    for column, lo in (("rmax_km", True), ("vmax_ms", False), ("fspeed_ms", False)):
        vals = inputs[:, INPUT_COLUMNS.index(column)]
        bad = vals <= 0 if lo else vals < 0
        if bad.any():
            r = int(np.argmax(bad))
            bound = "> 0" if lo else ">= 0"
            raise FieldRangeError(f"{where}{column} must be {bound}, got {float(vals[r])!r}",
                                  row=r, column=column)


@contextlib.contextmanager
def atomic_write(path):
    """Open path for UTF-8 text writing through a temporary sibling.

    The sibling replaces path (os.replace) once the block completes. If the
    block raises, the sibling is removed and any previous file at path keeps
    its bytes, so a failed write never leaves a truncated file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "w", newline="", encoding="utf-8")
    except OSError as exc:  # name the target, not the temporary
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def csv_lead(text: str) -> str:
    """text as the leading field of a CSV line, with its trailing comma,
    quoted exactly as csv.writer quotes a field that has others after it."""
    buf = io.StringIO()
    csv.writer(buf).writerow((text, ""))
    return buf.getvalue()[:-2]  # drop the line end, keep the comma


def format_rows(block, digits: int, lead: str = "") -> str:
    """CSV lines for an (n, k) float block, each value written as
    format(v, f".{digits}g") and each line ended with CR LF, which are the
    bytes csv.writer writes for those strings.

    One %-format per row does the work: "%.17g" % v equals format(v, ".17g")
    for every float, nan, inf and -0.0 included. lead (from csv_lead) goes
    before each line outside the format, so a "%" in it is never a directive.
    """
    block = np.asarray(block, dtype=np.float64)
    line = ",".join([f"%.{digits}g"] * block.shape[1]) + "\r\n"
    return "".join([lead + line % tuple(row) for row in block.tolist()])


def _records(path: Path, lines, header=False):
    """csv.reader over lines. A record csv refuses, such as one with a field
    longer than csv.field_size_limit(), raises TrackValidationError naming
    the file and the data row (0-based), or the header if header is set."""
    r = -1  # the last record read
    try:
        for r, fields in enumerate(csv.reader(lines)):
            yield fields
    except csv.Error as exc:
        raise TrackValidationError(f"{path.name}: {'header: ' if header else ''}{exc}",
                                   row=None if header else r + 1) from None


def _read_csv(path: Path) -> tuple:
    """The header fields of a UTF-8 CSV file (None if it is empty) and its
    remaining lines, split where csv.reader splits them: at CR LF, CR or LF.
    Other bytes raise TrackValidationError naming the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            buf = io.StringIO(fh.read(), newline="")
    except UnicodeDecodeError as exc:
        raise TrackValidationError(f"{path.name}: not UTF-8 text ({exc.reason})") from None
    return next(_records(path, buf, header=True), None), buf.readlines()


def _float_rows(path: Path, lines, header, names) -> np.ndarray:
    """Parse the data lines, each len(header) fields wide, and return the
    columns called names, in that order, as floats.

    numpy's C reader parses them in one call. It accepts no number that
    float() refuses and reads the same bits for every one it accepts, but it
    lays rows out differently: it skips blank lines, reads a quote as text,
    and with usecols= it accepts rows of any width. So its result is kept
    only for lines without quotes, with one row per line and len(header)
    fields in every line.

    Otherwise each line is parsed with csv.reader and one float() per field;
    only when one fails is the row searched for the field to name. That loop
    raises every error: each names the file, the data row (0-based) and the
    column.
    """
    pick = None if tuple(header) == tuple(names) else [header.index(c) for c in names]
    # Quotes are left to csv.reader, and numpy warns on a body of blank lines only.
    if not any('"' in line for line in lines) and any(line.strip("\r\n") for line in lines):
        data = None
        with contextlib.suppress(ValueError):  # a cell or row numpy cannot read
            data = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None,
                              dtype=np.float64, ndmin=2, usecols=pick)
        if data is not None and data.shape == (len(lines), len(names)) and (
                pick is None or all(line.count(",") == len(header) - 1 for line in lines)):
            return data
    values = []
    for r, fields in enumerate(_records(path, lines)):
        if len(fields) != len(header):
            raise ColumnSchemaError(
                f"{path.name}: expected {len(header)} fields, got {len(fields)}", row=r)
        if pick is not None:
            fields = [fields[i] for i in pick]
        try:
            values.append(list(map(float, fields)))
        except ValueError:
            for field, column in zip(fields, names):
                try:
                    float(field)
                except ValueError:
                    raise TrackValidationError(
                        f"{path.name}: unparsable value {field!r}",
                        row=r, column=column) from None
    return np.array(values, dtype=np.float64).reshape(len(values), len(names))


def save_track_csv(track: StormTrack, path) -> None:
    """Write the 16-column schema; floats carry 17 significant digits so a
    load restores them bit for bit."""
    with atomic_write(path) as fh:
        csv.writer(fh).writerow(CSV_COLUMNS)
        fh.write(format_rows(np.hstack([track.inputs, track.surge]), 17))


def load_track_csv(path) -> StormTrack:
    """Parse and validate one storm-track file; track id is the file stem."""
    path = Path(path)
    header, lines = _read_csv(path)
    if header is None:
        raise ColumnSchemaError(f"{path.name}: empty file")
    if tuple(header) != CSV_COLUMNS:
        raise ColumnSchemaError(
            f"{path.name}: header {tuple(header)!r} does not match the track schema")
    data = _float_rows(path, lines, header, CSV_COLUMNS)
    track = StormTrack(path.stem, data[:, :len(INPUT_COLUMNS)], data[:, len(INPUT_COLUMNS):])
    validate_track(track, f"{path.name}: ")
    return track


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint train/validation/test partitions of a corpus."""

    training: tuple
    validation: tuple
    testing: tuple

    def all_tracks(self) -> tuple:
        return self.training + self.validation + self.testing


def split_sizes(n_tracks: int) -> tuple:
    """70/15/15 split: validation and test get floor(0.15 n) each, training
    keeps the remainder (so 324 -> 228/48/48 and 10 -> 8/1/1)."""
    part = (3 * n_tracks) // 20
    return n_tracks - 2 * part, part, part


def split_dataset(tracks, seed: int) -> DatasetSplit:
    """Shuffle deterministically by seed, then partition 70/15/15."""
    tracks = list(tracks)
    n = len(tracks)
    ids = [tr.track_id for tr in tracks]
    if len(set(ids)) != n:
        dup = next(i for i in ids if ids.count(i) > 1)
        raise TrackValidationError(f"duplicate track id {dup!r}")
    order = Rng(seed).shuffled_indices(n)
    n_train, n_val, _ = split_sizes(n)
    shuffled = [tracks[i] for i in order]
    return DatasetSplit(
        training=tuple(shuffled[:n_train]),
        validation=tuple(shuffled[n_train:n_train + n_val]),
        testing=tuple(shuffled[n_train + n_val:]),
    )


@dataclass(frozen=True)
class OracleParams:
    """Tunable constants of the analytic surge response.

    stations are (lon, lat) pairs numbered north to south along the coast.
    """

    stations: tuple
    amplitude_m_per_hpa: float = 0.025
    decay_km: float = 120.0
    time_width_days: float = 0.4
    asymmetry: float = 0.4

    def __post_init__(self):
        stations = tuple((float(lon), float(lat)) for lon, lat in self.stations)
        object.__setattr__(self, "stations", stations)
        if len(stations) != N_STATIONS:
            raise ConfigError(f"expected {N_STATIONS} stations, got {len(stations)}")
        if not (self.amplitude_m_per_hpa > 0 and self.decay_km > 0
                and self.time_width_days > 0):
            raise ConfigError("amplitude, decay_km and time_width_days must be > 0")
        if not abs(self.asymmetry) < 1:
            raise ConfigError(f"asymmetry must satisfy |a| < 1, got {self.asymmetry}")


# Station longitudes, numbered 1..10 north-east to south-west, 0.33 deg apart.
STATION_LONS = (-75.35, -75.68, -76.01, -76.34, -76.67,
                -77.00, -77.33, -77.66, -77.99, -78.32)


def default_oracle() -> OracleParams:
    """The ten stations on the idealized coast at the fixed longitudes."""
    return OracleParams(
        stations=tuple((lon, float(coast_lat(lon))) for lon in STATION_LONS))


def _station_geometry(oracle: OracleParams) -> tuple:
    lons = np.array([s[0] for s in oracle.stations])
    lats = np.array([s[1] for s in oracle.stations])
    normals = np.array([_inland_normal(lon) for lon in lons])
    return lons, lats, normals


def surge_oracle(inputs, oracle: OracleParams) -> np.ndarray:
    """Analytic surge response at the ten stations; the ground truth targets.

    For a row with inputs (tau, lon, lat, rmax, vmax, fspeed), the surge at
    station s is

        A * dp * exp(-d_s^2 / (2 L^2)) * exp(-(tau / w)^2)
          * (1 + asym * q_s) * g(rmax, fspeed)

    where dp = (vmax / 7)^2 is the pressure-deficit proxy in hPa, d_s the
    storm-to-station distance in the local km plane, L = decay_km,
    w = time_width_days, q_s a softened sine of the angle between the
    storm-to-station direction and the station's inland shore normal
    (cross product over sqrt(d_s^2 + 25^2)), and
    g = (rmax / 50)^0.4 * exp((5 - fspeed) / 20).

    Smooth in every input and a function of the six input columns only, so
    targets are exactly recomputable from the inputs. Accepts a single row
    (6,) or a block (n, 6); returns (10,) or (n, 10).
    """
    x = np.asarray(inputs, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != len(INPUT_COLUMNS):
        raise ColumnSchemaError(
            f"oracle inputs must have {len(INPUT_COLUMNS)} columns, got shape {x.shape}")
    tau, lon, lat, rmax, vmax, fspeed = x.T

    st_lons, st_lats, normals = _station_geometry(oracle)
    dx = (st_lons[None, :] - lon[:, None]) * KM_PER_DEG_LON
    dy = (st_lats[None, :] - lat[:, None]) * KM_PER_DEG_LAT
    d2 = dx * dx + dy * dy

    dp = (vmax / VMAX_COEF_MS) ** 2
    radial = np.exp(-d2 / (2.0 * oracle.decay_km ** 2))
    temporal = np.exp(-((tau / oracle.time_width_days) ** 2))
    cross = normals[None, :, 0] * dy - normals[None, :, 1] * dx
    q = cross / np.sqrt(d2 + BEARING_SOFTEN_KM ** 2)
    g = (rmax / G_RMAX_REF_KM) ** G_RMAX_EXP * np.exp(
        (G_FSPEED_REF_MS - fspeed) / G_FSPEED_SCALE)

    surge = (oracle.amplitude_m_per_hpa * dp[:, None] * radial
             * temporal[:, None] * (1.0 + oracle.asymmetry * q) * g[:, None])
    return surge[0] if single else surge


def generate_track(rng: Rng, oracle: OracleParams, track_id: str = "track") -> StormTrack:
    """Sample one straight-line landfalling storm and fill in its surge.

    Landfall longitude, approach offset, forward speed, pressure deficit and
    storm size are drawn in that fixed order, so one Rng yields one track
    reproducibly.
    """
    lf_lon = float(rng.uniform(LANDFALL_LON_MIN, LANDFALL_LON_MAX))
    offset = math.radians(float(rng.uniform(-HEADING_CONE_DEG, HEADING_CONE_DEG)))
    fspeed = float(rng.uniform(FSPEED_MIN_MS, FSPEED_MAX_MS))
    dp = float(rng.uniform(DP_MIN_HPA, DP_MAX_HPA))
    rmax = float(rng.uniform(RMAX_MIN_KM, RMAX_MAX_KM))

    lf_lat = float(coast_lat(lf_lon))
    nx, ny = _inland_normal(lf_lon)
    cos_o, sin_o = math.cos(offset), math.sin(offset)
    hx = cos_o * nx - sin_o * ny  # heading: inland normal rotated by the offset
    hy = sin_o * nx + cos_o * ny

    tau = tau_grid()
    back_km = fspeed * KM_PER_DAY_PER_MS * tau  # distance still to travel
    lon = lf_lon - hx * back_km / KM_PER_DEG_LON
    lat = lf_lat - hy * back_km / KM_PER_DEG_LAT
    vmax = VMAX_COEF_MS * math.sqrt(dp)

    inputs = np.column_stack([
        tau, lon, lat,
        np.full(N_ROWS, rmax), np.full(N_ROWS, vmax), np.full(N_ROWS, fspeed),
    ])
    track = StormTrack(track_id, inputs, surge_oracle(inputs, oracle))
    validate_track(track)
    return track


def landfall_window(track: StormTrack, half_width_days: float = 0.5) -> range:
    """Row range where |tau| <= half_width_days, clipped to the track."""
    if not 0 < half_width_days <= 1:
        raise ConfigError(f"half_width_days must be in (0, 1], got {half_width_days}")
    mask = np.abs(track.tau) <= half_width_days + 1e-12
    rows = np.nonzero(mask)[0]
    return range(int(rows[0]), int(rows[-1]) + 1)


def interpolate_to_grid(raw_inputs, where: str = "") -> np.ndarray:
    """Linearly interpolate irregular input rows onto the 30-minute tau grid.

    Rows may come in any tau order and spacing; values outside the given tau
    range hold the nearest boundary value. A single row extends as constant.
    A non-finite cell or a repeated tau is refused, naming its row (in input
    order) and column after the prefix where (e.g. "in.csv: ").
    """
    x = np.atleast_2d(np.asarray(raw_inputs, dtype=np.float64))
    if x.shape[1] != len(INPUT_COLUMNS):
        raise ColumnSchemaError(
            f"{where}expected {len(INPUT_COLUMNS)} input columns, got shape {x.shape}")
    finite = np.isfinite(x)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise NonFiniteValueError(f"{where}non-finite value", row=int(r), column=INPUT_COLUMNS[c])
    order = np.argsort(x[:, 0], kind="stable")
    repeats = order[1:][np.diff(x[order, 0]) == 0]  # rows whose tau an earlier row has
    if repeats.size:
        r = int(repeats.min())
        raise TauGridError(f"{where}duplicate tau value {float(x[r, 0])!r}",
                           row=r, column="tau_days")
    x = x[order]
    grid = tau_grid()
    cols = [grid]
    for c in range(1, len(INPUT_COLUMNS)):
        cols.append(np.interp(grid, x[:, 0], x[:, c]))
    return np.column_stack(cols)


def read_input_series(path) -> np.ndarray:
    """Read prediction inputs: a CSV with at least the six input columns by
    name; surge and other extra columns are ignored. Rows must pass
    _check_input_ranges."""
    path = Path(path)
    header, lines = _read_csv(path)
    if header is None:
        raise ColumnSchemaError(f"{path.name}: empty file")
    missing = [c for c in INPUT_COLUMNS if c not in header]
    if missing:
        raise ColumnSchemaError(f"{path.name}: missing input columns {missing}")
    rows = _float_rows(path, lines, header, INPUT_COLUMNS)
    if len(rows) == 0:
        raise RowCountError(f"{path.name}: no data rows")
    _check_input_ranges(rows, f"{path.name}: ")
    return rows


MANIFEST_NAME = "manifest.csv"
SPLIT_LABELS = ("train", "val", "test")


def write_manifest(entries, path) -> None:
    """Write (track_id, file, split) rows; file paths are relative to the
    manifest's directory."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(("track_id", "file", "split"))
        writer.writerows(entries)


def read_manifest(path) -> list:
    """Read back (track_id, file, split) entries written by write_manifest.

    Every row is checked: its field count, its split label, that neither
    its track id nor its file (compared after os.path.normpath) is already
    taken by an earlier row, so no track file sits in two splits, and that
    the track id is its file's stem, the id load_track_csv gives the track.
    """
    path = Path(path)
    header, lines = _read_csv(path)
    if header != ["track_id", "file", "split"]:
        raise ColumnSchemaError(f"{path.name}: not a corpus manifest")
    entries = []
    seen_ids, seen_files = set(), set()
    for r, fields in enumerate(_records(path, lines)):
        if len(fields) != 3:
            raise ColumnSchemaError(
                f"{path.name}: expected 3 fields, got {len(fields)}", row=r)
        track_id, file, split = fields
        if split not in SPLIT_LABELS:
            raise ColumnSchemaError(
                f"{path.name}: unknown split label {split!r}", row=r, column="split")
        if track_id in seen_ids:
            raise ColumnSchemaError(
                f"{path.name}: duplicate track id {track_id!r}", row=r, column="track_id")
        if "\0" in file:
            raise ColumnSchemaError(
                f"{path.name}: NUL character in track file name", row=r, column="file")
        if os.path.normpath(file) in seen_files:
            raise ColumnSchemaError(
                f"{path.name}: duplicate track file {file!r}", row=r, column="file")
        if Path(file).stem != track_id:
            raise ColumnSchemaError(
                f"{path.name}: track id {track_id!r} is not the stem of its file {file!r}",
                row=r, column="track_id")
        seen_ids.add(track_id)
        seen_files.add(os.path.normpath(file))
        entries.append((track_id, file, split))
    return entries


def generate_corpus(n_tracks: int, seed: int, oracle: OracleParams, out_dir) -> DatasetSplit:
    """Generate n tracks, write one CSV each plus a manifest, return the split.

    Track i is produced from an independent child generator keyed by
    (seed, i), so any subset of tracks is reproducible in isolation; the
    split shuffle draws from the root stream, which the children never touch.
    Fewer than 7 tracks leave validation and test empty (split_sizes).
    """
    if n_tracks < 1:
        raise ConfigError(f"need at least 1 track, got {n_tracks}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    root = Rng(seed)
    width = max(4, len(str(n_tracks)))
    tracks = [
        generate_track(root.child(i), oracle, track_id=f"track_{i + 1:0{width}d}")
        for i in range(n_tracks)
    ]
    split = split_dataset(tracks, seed=seed)
    label_by_id = {}
    for label, part in zip(SPLIT_LABELS, (split.training, split.validation, split.testing)):
        for tr in part:
            label_by_id[tr.track_id] = label
    entries = []
    for tr in tracks:
        name = f"{tr.track_id}.csv"
        save_track_csv(tr, out_dir / name)
        entries.append((tr.track_id, name, label_by_id[tr.track_id]))
    write_manifest(entries, out_dir / MANIFEST_NAME)
    return split


def load_corpus(corpus_dir, labels=SPLIT_LABELS) -> DatasetSplit:
    """Load the tracks a corpus manifest files under the given split labels.

    The whole manifest is read and checked (read_manifest), but a track file
    is opened only when its row's label is in labels. Partitions whose label
    is not asked for come back as empty tuples.
    """
    unknown = [label for label in labels if label not in SPLIT_LABELS]
    if unknown:
        raise ConfigError(f"unknown split labels {unknown}; expected some of {SPLIT_LABELS}")
    corpus_dir = Path(corpus_dir)
    manifest = corpus_dir / MANIFEST_NAME
    if not manifest.is_file():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {corpus_dir}")
    buckets = {label: [] for label in SPLIT_LABELS}
    for _, file, split in read_manifest(manifest):
        if split in labels:
            buckets[split].append(load_track_csv(corpus_dir / file))
    return DatasetSplit(
        training=tuple(buckets["train"]),
        validation=tuple(buckets["val"]),
        testing=tuple(buckets["test"]),
    )
