import csv
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgenet import dataset
from surgenet.dataset import (
    KM_PER_DEG_LAT,
    KM_PER_DEG_LON,
    LANDFALL_ROW,
    N_ROWS,
    SPLIT_LABELS,
    STATION_LONS,
    OracleParams,
    StormTrack,
    assign_splits,
    coast_lat,
    default_oracle,
    generate_corpus,
    generate_track,
    interpolate_to_grid,
    landfall_window,
    load_corpus,
    load_track_csv,
    read_input_series,
    read_manifest,
    save_track_csv,
    split_sizes,
    surge_oracle,
    tau_grid,
    validate_track,
    write_manifest,
)
from surgenet.errors import (
    ColumnSchemaError,
    ConfigError,
    FieldRangeError,
    NonFiniteValueError,
    RowCountError,
    TauGridError,
    TrackValidationError,
    named,
)
from surgenet.numerics import Rng

ORACLE = default_oracle()


def make_track(seed=0, track_id="track_0001"):
    return generate_track(Rng(seed), ORACLE, track_id=track_id)


class TestTauGrid:
    def test_endpoints_and_landfall(self):
        tau = tau_grid()
        assert tau.shape == (193,)
        assert tau[0] == 3.0
        assert tau[LANDFALL_ROW] == 0.0
        assert tau[192] == -1.0

    def test_every_row_is_an_exact_48th(self):
        tau = tau_grid()
        np.testing.assert_array_equal(tau, (144 - np.arange(193)) / 48.0)
        np.testing.assert_allclose(np.diff(tau), -1.0 / 48.0, rtol=0, atol=1e-15)


class TestCoast:
    def test_vertex_of_the_coast_parabola(self):
        assert coast_lat(-78.6) == 33.9

    def test_curves_north_to_the_east(self):
        lons = np.array([-78.6, -77.0, -75.35])
        lats = coast_lat(lons)
        assert lats[0] < lats[1] < lats[2]

    def test_station_latitudes_lie_on_the_coast(self):
        for lon, lat in ORACLE.stations:
            assert lat == float(coast_lat(lon))


class TestValidateTrack:
    def test_generated_track_is_valid(self):
        validate_track(make_track())

    def test_wrong_row_count(self):
        tr = make_track()
        short = StormTrack("short", tr.inputs[:192], tr.surge[:192])
        with pytest.raises(RowCountError, match="192.*193"):
            validate_track(short)

    def test_wrong_column_count(self):
        tr = make_track()
        with pytest.raises(ColumnSchemaError, match="6 columns"):
            validate_track(StormTrack("bad", tr.inputs[:, :5], tr.surge))
        with pytest.raises(ColumnSchemaError, match="10 columns"):
            validate_track(StormTrack("bad", tr.inputs, tr.surge[:, :9]))

    def test_non_finite_cell_located(self):
        tr = make_track()
        inputs = tr.inputs.copy()
        inputs[7, 2] = np.nan
        with pytest.raises(NonFiniteValueError) as err:
            validate_track(StormTrack("bad", inputs, tr.surge))
        assert err.value.row == 7
        assert err.value.column == "lat_deg"

    def test_non_finite_surge_located(self):
        tr = make_track()
        surge = tr.surge.copy()
        surge[100, 3] = np.inf
        with pytest.raises(NonFiniteValueError) as err:
            validate_track(StormTrack("bad", tr.inputs, surge))
        assert err.value.column == "surge_04"

    def test_off_grid_tau_located(self):
        tr = make_track()
        inputs = tr.inputs.copy()
        inputs[5, 0] += 0.001
        with pytest.raises(TauGridError) as err:
            validate_track(StormTrack("bad", inputs, tr.surge))
        assert err.value.row == 5

    def test_field_ranges(self):
        tr = make_track()
        for col, value, exc_match in ((3, 0.0, "rmax_km"), (4, -1.0, "vmax_ms"),
                                      (5, -0.5, "fspeed_ms")):
            inputs = tr.inputs.copy()
            inputs[0, col] = value
            with pytest.raises(FieldRangeError, match=exc_match):
                validate_track(StormTrack("bad", inputs, tr.surge))

    def test_of_two_faults_the_first_checked_is_named(self):
        # Row count, then each block's columns and finiteness, inputs first.
        tr = make_track()
        nan_inputs = tr.inputs.copy()
        nan_inputs[3, 1] = np.nan
        for inputs, surge, error in (
                (nan_inputs[:192], tr.surge[:192], RowCountError),
                (tr.inputs[:192, :5], tr.surge[:192], RowCountError),
                (nan_inputs, tr.surge[:, :9], NonFiniteValueError),
                (tr.inputs[:, :5], np.full_like(tr.surge, np.nan), ColumnSchemaError)):
            with pytest.raises(error):
                validate_track(StormTrack("bad", inputs, surge))


class TestTrackCsv:
    def test_round_trip_bitwise(self, tmp_path):
        tr = make_track(seed=4, track_id="track_0042")
        path = tmp_path / "track_0042.csv"
        save_track_csv(tr, path)
        back = load_track_csv(path)
        assert back.track_id == "track_0042"
        np.testing.assert_array_equal(back.inputs, tr.inputs)
        np.testing.assert_array_equal(back.surge, tr.surge)

    def test_header_written_exactly(self, tmp_path):
        path = tmp_path / "t.csv"
        save_track_csv(make_track(), path)
        header = path.read_text().splitlines()[0]
        assert header == ("tau_days,lon_deg,lat_deg,rmax_km,vmax_ms,fspeed_ms,"
                          "surge_01,surge_02,surge_03,surge_04,surge_05,"
                          "surge_06,surge_07,surge_08,surge_09,surge_10")

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        save_track_csv(make_track(), path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("tau_days", "tau")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ColumnSchemaError, match="header"):
            load_track_csv(path)

    def test_missing_row_names_counts(self, tmp_path):
        path = tmp_path / "t.csv"
        save_track_csv(make_track(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the final data row
        with pytest.raises(RowCountError, match="192"):
            load_track_csv(path)

    def test_unparsable_cell_located(self, tmp_path):
        path = tmp_path / "t.csv"
        save_track_csv(make_track(), path)
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[4] = "not-a-number"
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrackValidationError) as err:
            load_track_csv(path)
        assert err.value.row == 2
        assert err.value.column == "vmax_ms"

    def test_intact_file_is_parsed_by_numpy(self, tmp_path):
        path = tmp_path / "t.csv"
        save_track_csv(make_track(), path)
        with mock.patch.object(dataset.np, "loadtxt", wraps=np.loadtxt) as loadtxt, \
                mock.patch.object(dataset.csv, "reader", wraps=csv.reader) as reader:
            load_track_csv(path)
            read_input_series(path)
        assert loadtxt.call_count == 2
        assert reader.call_count == 2  # the headers only: no row went through the loop

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ColumnSchemaError, match="empty"):
            load_track_csv(path)

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "t.csv"
        save_track_csv(make_track(), path)
        path.write_bytes(path.read_bytes().replace(b"-", b"\xff", 1))
        with pytest.raises(TrackValidationError, match=r"t\.csv: not UTF-8"):
            load_track_csv(path)

    def edited_track(self, tmp_path, row, col, value):
        """track_0001.csv saved with one data cell replaced."""
        inputs = make_track().inputs.copy()
        inputs[row, col] = value
        path = tmp_path / "track_0001.csv"
        save_track_csv(StormTrack("track_0001", inputs, make_track().surge), path)
        return path

    def test_range_error_names_file(self, tmp_path):
        path = self.edited_track(tmp_path, 3, 3, -5.0)
        with pytest.raises(FieldRangeError) as err:
            load_track_csv(path)
        assert str(err.value) == ("track_0001.csv: rmax_km must be > 0, got -5.0"
                                  " | row 3 | column 'rmax_km'")

    def test_tau_error_names_file_and_prints_plain_float(self, tmp_path):
        path = self.edited_track(tmp_path, 5, 0, 2.5)
        with pytest.raises(TauGridError) as err:
            load_track_csv(path)
        assert str(err.value) == ("track_0001.csv: tau must count down from +3 to -1"
                                  " in 1/48 steps; got 2.5 | row 5 | column 'tau_days'")


class TestSplit:
    def test_sizes_from_the_70_15_15_rule(self):
        assert split_sizes(324) == (228, 48, 48)
        assert split_sizes(10) == (8, 1, 1)
        assert split_sizes(3) == (3, 0, 0)
        assert split_sizes(20) == (14, 3, 3)

    def test_partition_is_disjoint_and_complete(self):
        # One label per track: the first 14 places of the seeded shuffle
        # train, the next 3 val, the last 3 test.
        order = Rng(9).shuffled_indices(20)
        labels = assign_splits(20, seed=9)
        assert len(labels) == 20
        assert [labels[i] for i in order] == ["train"] * 14 + ["val"] * 3 + ["test"] * 3

    def test_same_seed_same_partition(self):
        assert assign_splits(12, seed=3) == assign_splits(12, seed=3)

    def test_different_seed_usually_differs(self):
        assert assign_splits(12, seed=3) != assign_splits(12, seed=4)

    def test_one_or_two_tracks_all_go_to_training(self):
        for n in (1, 2):
            assert assign_splits(n, seed=0) == ["train"] * n


class TestOracleParams:
    def test_station_count_enforced(self):
        with pytest.raises(ValueError, match="10 stations"):
            OracleParams(stations=ORACLE.stations[:9])

    def test_positive_scales_enforced(self):
        with pytest.raises(ValueError, match="^decay_km must be > 0, got 0.0$"):
            OracleParams(stations=ORACLE.stations, decay_km=0.0)

    @pytest.mark.parametrize("value", [True, math.inf])
    def test_amplitude_must_be_a_finite_number(self, value):
        with pytest.raises(ConfigError, match="amplitude_m_per_hpa must be a finite number"):
            OracleParams(stations=ORACLE.stations, amplitude_m_per_hpa=value)

    def test_string_station_refused(self):
        stations = (("-75.35", "35.2"), *ORACLE.stations[1:])
        with pytest.raises(ConfigError, match=r"stations\[0\] must be a finite number"):
            OracleParams(stations=stations)

    def test_asymmetry_bounded(self):
        with pytest.raises(ValueError, match=r"^asymmetry must be in \(-1, 1\), got 1.0$"):
            OracleParams(stations=ORACLE.stations, asymmetry=1.0)

    def test_default_station_longitudes(self):
        assert tuple(s[0] for s in ORACLE.stations) == STATION_LONS


class TestSurgeOracle:
    # dp = (56/7)^2 = 64 exactly, and 0.025 * 64 = 1.6 exactly in binary,
    # so a storm sitting on a station at landfall pins the closed form.
    def centered_row(self, station):
        lon, lat = ORACLE.stations[station]
        return np.array([0.0, lon, lat, 50.0, 56.0, 5.0])

    def surge_at(self, row):
        """The oracle's surge for one input row, run as a one-row block."""
        return surge_oracle(row[None], ORACLE)[0]

    def test_storm_on_station_at_landfall_exact(self):
        for station in (0, 4, 9):
            surge = self.surge_at(self.centered_row(station))
            assert surge[station] == 1.6

    def test_decay_along_the_shore_normal(self):
        station = 5
        row = self.centered_row(station)
        lon, lat = ORACLE.stations[station]
        from surgenet.dataset import _inland_normal
        nx, ny = _inland_normal(lon)
        L = ORACLE.decay_km
        row[1] = lon - nx * L / KM_PER_DEG_LON
        row[2] = lat - ny * L / KM_PER_DEG_LAT
        # On the normal line the directional term vanishes, leaving the
        # radial factor alone: exp(-1/2).
        center = self.surge_at(self.centered_row(station))[station]
        shifted = self.surge_at(row)[station]
        assert math.isclose(shifted / center, math.exp(-0.5), rel_tol=1e-9)

    def test_far_field_is_negligible(self):
        station = 5
        row = self.centered_row(station)
        lon, lat = ORACLE.stations[station]
        from surgenet.dataset import _inland_normal
        nx, ny = _inland_normal(lon)
        d = 5.0 * ORACLE.decay_km
        row[1] = lon - nx * d / KM_PER_DEG_LON
        row[2] = lat - ny * d / KM_PER_DEG_LAT
        center = self.surge_at(self.centered_row(station))[station]
        assert self.surge_at(row)[station] < center * 1e-5

    def test_calm_storm_produces_no_surge(self):
        row = self.centered_row(3)
        row[4] = 0.0
        np.testing.assert_array_equal(self.surge_at(row), np.zeros(10))

    def test_smooth_in_every_input(self):
        row = make_track(seed=6).inputs[100]
        base = self.surge_at(row)
        for c in range(6):
            bumped = row.copy()
            bumped[c] += 1e-6
            assert np.abs(self.surge_at(bumped) - base).max() < 1e-3

    def test_batch_matches_rows(self):
        inputs = make_track(seed=7).inputs
        block = surge_oracle(inputs, ORACLE)
        assert block.shape == (N_ROWS, 10)
        for i in (0, 50, 144, 192):
            np.testing.assert_array_equal(block[i], self.surge_at(inputs[i]))

    def test_targets_recomputable_from_inputs(self):
        tr = make_track(seed=8)
        np.testing.assert_array_equal(tr.surge, surge_oracle(tr.inputs, ORACLE))

    def test_wrong_width_rejected(self):
        with pytest.raises(ColumnSchemaError, match="6 columns"):
            surge_oracle(np.ones(5), ORACLE)

    def test_bare_row_rejected(self):
        # The oracle takes blocks only, as generate_track passes them.
        with pytest.raises(ColumnSchemaError, match=r"^oracle inputs must be a block of "
                                                    r"6 columns, got shape \(6,\)$"):
            surge_oracle(self.centered_row(0), ORACLE)


class TestGenerateTrack:
    def test_constant_storm_parameters(self):
        tr = make_track(seed=10)
        for col in (3, 4, 5):  # rmax, vmax, fspeed
            assert np.all(tr.inputs[:, col] == tr.inputs[0, col])

    def test_sampled_ranges(self):
        for i in range(25):
            tr = generate_track(Rng(0).child(i), ORACLE)
            rmax, vmax, fspeed = tr.inputs[0, 3:6]
            assert 20.0 <= rmax <= 80.0
            assert 2.0 <= fspeed <= 10.0
            dp = (vmax / 7.0) ** 2
            assert 20.0 - 1e-9 <= dp <= 110.0 + 1e-9
            lf_lon = tr.inputs[LANDFALL_ROW, 1]
            assert -78.3 <= lf_lon <= -75.3

    def test_landfall_row_sits_on_the_coast(self):
        tr = make_track(seed=11)
        lon, lat = tr.inputs[LANDFALL_ROW, 1:3]
        assert math.isclose(lat, float(coast_lat(lon)), abs_tol=1e-9)

    def test_straight_line_motion(self):
        tr = make_track(seed=12)
        lon, lat = tr.inputs[:, 1], tr.inputs[:, 2]
        np.testing.assert_allclose(np.diff(lon), np.diff(lon)[0], atol=1e-12)
        np.testing.assert_allclose(np.diff(lat), np.diff(lat)[0], atol=1e-12)

    def test_same_child_same_track(self):
        a = generate_track(Rng(5).child(3), ORACLE)
        b = generate_track(Rng(5).child(3), ORACLE)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.surge, b.surge)


class TestLandfallWindow:
    def test_default_half_day_window(self):
        assert landfall_window(make_track()) == range(120, 169)

    def test_single_step_window(self):
        assert landfall_window(make_track(), 1.0 / 48.0) == range(143, 146)

    def test_full_day_window_clips_at_the_end(self):
        assert landfall_window(make_track(), 1.0) == range(96, 193)

    def test_tau_within_the_grid_tolerance_keeps_its_window_row(self):
        # The window's edge rows carry the tolerance validate_track allows.
        track = make_track()
        for row, nudge in ((120, 5e-10), (168, -5e-10)):
            inputs = track.inputs.copy()
            inputs[row, 0] += nudge
            nudged = StormTrack(track.track_id, inputs, track.surge)
            validate_track(nudged)
            assert landfall_window(nudged) == range(120, 169)

    def test_half_width_validated(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match=rf"^half_width_days must be in \(0, 1\], got {bad}$"):
                landfall_window(make_track(), bad)


class TestInterpolateToGrid:
    def test_identity_on_grid_inputs(self):
        inputs = make_track(seed=13).inputs
        np.testing.assert_array_equal(interpolate_to_grid(inputs), inputs)

    def test_accepts_any_row_order(self):
        inputs = make_track(seed=13).inputs
        shuffled = inputs[Rng(1).shuffled_indices(N_ROWS)]
        np.testing.assert_array_equal(interpolate_to_grid(shuffled), inputs)

    def test_midpoint_averages_hourly_samples(self):
        raw = np.array([
            [0.0, 1.0, 10.0, 50.0, 30.0, 5.0],
            [2.0 / 48.0, 3.0, 14.0, 50.0, 30.0, 5.0],
        ])
        grid = interpolate_to_grid(raw)
        mid = grid[LANDFALL_ROW - 1]  # tau = 1/48, exactly between the samples
        assert math.isclose(mid[1], 2.0, rel_tol=1e-12)
        assert math.isclose(mid[2], 12.0, rel_tol=1e-12)

    def test_boundary_values_hold(self):
        raw = np.array([
            [0.0, 1.0, 10.0, 50.0, 30.0, 5.0],
            [1.0, 3.0, 14.0, 50.0, 30.0, 5.0],
        ])
        grid = interpolate_to_grid(raw)
        assert grid[0, 1] == 3.0   # tau = +3 holds the latest sample
        assert grid[192, 1] == 1.0  # tau = -1 holds the earliest

    def test_single_row_extends_as_constant(self):
        raw = np.array([[0.3, 1.0, 10.0, 50.0, 30.0, 5.0]])
        grid = interpolate_to_grid(raw)
        assert np.all(grid[:, 1] == 1.0)
        np.testing.assert_array_equal(grid[:, 0], tau_grid())

    @settings(max_examples=60, deadline=None)
    @given(taus=st.lists(st.floats(-2.0, 4.0), min_size=1, max_size=40, unique=True),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_order_invariant_and_exact_on_linear_inputs(self, taus, seed, data):
        taus = np.array(taus)
        rng = Rng(seed)
        a, b = rng.uniform(-100, 100, size=5), rng.uniform(-100, 100, size=5)
        raw = np.column_stack([taus, a + np.outer(taus, b)])  # each column linear in tau
        grid = interpolate_to_grid(raw)
        order = data.draw(st.permutations(range(len(taus))))
        np.testing.assert_array_equal(interpolate_to_grid(raw[order]), grid)

        np.testing.assert_array_equal(grid[:, 0], tau_grid())
        # Linear inside the sampled range, up to rounding; held at the ends.
        tau = np.clip(tau_grid(), taus.min(), taus.max())
        np.testing.assert_allclose(grid[:, 1:], a + np.outer(tau, b), rtol=0, atol=1e-10)
        assert (grid[tau_grid() <= taus.min(), 1:] == raw[np.argmin(taus), 1:]).all()
        assert (grid[tau_grid() >= taus.max(), 1:] == raw[np.argmax(taus), 1:]).all()

    def test_duplicate_tau_rejected(self):
        raw = np.array([
            [1.0, 1.0, 10.0, 50.0, 30.0, 5.0],
            [0.5, 2.0, 11.0, 50.0, 30.0, 5.0],
            [1.0, 1.0, 10.0, 50.0, 30.0, 5.0],
            [0.5, 2.0, 11.0, 50.0, 30.0, 5.0],
        ])
        # Rows 2 and 3 repeat an earlier tau; the first of them is named.
        with pytest.raises(ValueError, match=r"^in.csv: duplicate tau value 1.0 \| row 2 \| "
                                             r"column 'tau_days'$"):
            with named("in.csv"):
                interpolate_to_grid(raw)

    def test_non_finite_rejected(self):
        raw = np.array([[0.0, np.nan, 10.0, 50.0, 30.0, 5.0]])
        with pytest.raises(NonFiniteValueError):
            interpolate_to_grid(raw)

    @pytest.mark.parametrize("shape", [(2, 5), (2, 6, 1), (0,), (6,)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ColumnSchemaError, match=r"^expected 6 columns, got shape \("):
            interpolate_to_grid(np.zeros(shape))

    def test_empty_block_rejected(self):
        # Which is how read_input_series refuses a file with no data rows.
        with pytest.raises(RowCountError, match=r"^in.csv: no data rows$"):
            with named("in.csv"):
                interpolate_to_grid(np.zeros((0, 6)))


class TestReadInputSeries:
    def test_reads_bare_input_columns(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "tau_days,lon_deg,lat_deg,rmax_km,vmax_ms,fspeed_ms\n"
            "0.5,-76.0,34.5,50,30,5\n"
            "0.0,-76.2,34.6,50,30,5\n")
        data = read_input_series(path)
        assert data.shape == (N_ROWS, 6)
        np.testing.assert_array_equal(data[:, 0], tau_grid())
        assert data[LANDFALL_ROW - 24, 1] == -76.0  # the row at tau = 0.5

    def test_full_track_file_works_extras_ignored(self, tmp_path):
        tr = make_track(seed=14)
        path = tmp_path / "full.csv"
        save_track_csv(tr, path)
        data = read_input_series(path)
        np.testing.assert_array_equal(data, tr.inputs)

    def test_column_order_free(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "vmax_ms,tau_days,lon_deg,lat_deg,rmax_km,fspeed_ms,note\n"
            "30,0.5,-76.0,34.5,50,5,hello\n")
        data = read_input_series(path)
        np.testing.assert_array_equal(data[:, 0], tau_grid())  # tau first in the returned layout
        assert (data[:, 4] == 30.0).all()

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("tau_days,lon_deg,lat_deg,rmax_km,vmax_ms\n0.5,-76,34.5,50,30\n")
        with pytest.raises(ColumnSchemaError, match="fspeed_ms"):
            read_input_series(path)

    def test_no_rows_rejected(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("tau_days,lon_deg,lat_deg,rmax_km,vmax_ms,fspeed_ms\n")
        with pytest.raises(RowCountError, match="no data rows"):
            read_input_series(path)

    def test_unparsable_cell_located(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "vmax_ms,tau_days,lon_deg,lat_deg,rmax_km,fspeed_ms,note\n"
            "30,0.5,-76.0,34.5,50,5,x\n"
            "30,0.0,-76.2,34.6,fifty,5,y\n")
        with pytest.raises(TrackValidationError, match=r"in\.csv.*'fifty'") as err:
            read_input_series(path)
        assert err.value.row == 1
        assert err.value.column == "rmax_km"

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_bytes(b"tau_days,lon_deg,lat_deg,rmax_km,vmax_ms,fspeed_ms\n"
                         b"0.5,-76.0,34.5,50,30,5\xff\n")
        with pytest.raises(TrackValidationError, match=r"in\.csv: not UTF-8"):
            read_input_series(path)


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [("track_0001", "track_0001.csv", "train"),
                   ("track_0002", "track_0002.csv", "test")]
        path = tmp_path / "manifest.csv"
        write_manifest(entries, path)
        assert read_manifest(path) == entries

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("id,path,part\na,b,train\n")
        with pytest.raises(ColumnSchemaError, match="manifest"):
            read_manifest(path)

    def test_short_row_names_file_and_row(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("track_id,file,split\n"
                        "track_0001,track_0001.csv,train\n"
                        "track_0002,test\n")
        with pytest.raises(ColumnSchemaError, match=r"manifest\.csv.*3 fields.*row 1"):
            read_manifest(path)

    def test_empty_file_named(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("")
        with pytest.raises(ColumnSchemaError, match=r"^manifest\.csv: empty file$"):
            read_manifest(path)

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_bytes(b"track_id,file,split\ntrack_\xe9,track_0001.csv,train\n")
        with pytest.raises(TrackValidationError, match=r"manifest\.csv: not UTF-8"):
            read_manifest(path)

    def test_unknown_split_label_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("track_id,file,split\n"
                        "track_0001,track_0001.csv,train\n"
                        "track_0002,track_0002.csv,holdout\n")
        with pytest.raises(ColumnSchemaError,
                           match=r"manifest\.csv: unknown split label 'holdout'.*row 1"):
            read_manifest(path)

    def test_duplicate_id_names_file_row_and_column(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("track_id,file,split\n"
                        "track_0001,track_0001.csv,train\n"
                        "track_0002,track_0002.csv,val\n"
                        "track_0001,track_0003.csv,test\n")
        with pytest.raises(ColumnSchemaError, match=r"manifest\.csv: duplicate track id "
                                                    r"'track_0001' \| row 2 \| column 'track_id'"):
            read_manifest(path)

    def test_duplicate_file_names_file_row_and_column(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("track_id,file,split\n"
                        "track_0001,track_0001.csv,train\n"
                        "track_0002,track_0002.csv,val\n"
                        "track_0003,./sub/../track_0001.csv,test\n")
        with pytest.raises(ColumnSchemaError, match=r"manifest\.csv: duplicate track file "
                                                    r"'\./sub/\.\./track_0001\.csv' \| row 2 "
                                                    r"\| column 'file'"):
            read_manifest(path)

    def test_id_that_is_not_the_file_stem_named(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("track_id,file,split\n"
                        "track_0001,sub/track_0001.csv,train\n"
                        "track_0002,track_0003.csv,val\n")
        with pytest.raises(ColumnSchemaError, match=r"manifest\.csv: track id 'track_0002' is "
                                                    r"not the stem of its file 'track_0003\.csv' "
                                                    r"\| row 1 \| column 'track_id'"):
            read_manifest(path)


class TestCorpus:
    def test_files_and_split(self, tmp_path):
        split = generate_corpus(10, 42, ORACLE, tmp_path / "c")
        files = sorted(p.name for p in (tmp_path / "c").iterdir())
        assert "manifest.csv" in files
        assert len(files) == 11
        assert (len(split.training), len(split.validation), len(split.testing)) == (8, 1, 1)

    def test_rerun_is_byte_identical(self, tmp_path):
        generate_corpus(5, 7, ORACLE, tmp_path / "a")
        generate_corpus(5, 7, ORACLE, tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_single_track_goes_to_training(self, tmp_path):
        split = generate_corpus(1, 1, ORACLE, tmp_path / "c")
        assert len(split.training) == 1
        assert split.validation == () and split.testing == ()
        loaded = load_corpus(tmp_path / "c")
        assert len(loaded.training) == 1

    @pytest.mark.parametrize("seed", [3, 7])
    def test_load_matches_generated_split(self, tmp_path, seed):
        # The same ids in the same order in every partition, bit for bit.
        split = generate_corpus(20, seed, ORACLE, tmp_path / "c")
        loaded = load_corpus(tmp_path / "c")
        for part in ("training", "validation", "testing"):
            want, got = getattr(split, part), getattr(loaded, part)
            assert [t.track_id for t in want] == [t.track_id for t in got]
            for a, b in zip(want, got):
                assert a.inputs.tobytes() == b.inputs.tobytes()
                assert a.surge.tobytes() == b.surge.tobytes()

    def test_load_of_one_label_leaves_the_others_empty(self, tmp_path):
        generate_corpus(20, 3, ORACLE, tmp_path / "c")
        full = load_corpus(tmp_path / "c")
        only = load_corpus(tmp_path / "c", ("test",))
        assert only.training == () and only.validation == ()
        assert [t.track_id for t in only.testing] == [t.track_id for t in full.testing]
        for a, b in zip(only.testing, full.testing):
            assert a.inputs.tobytes() == b.inputs.tobytes()
            assert a.surge.tobytes() == b.surge.tobytes()

    def test_files_of_unloaded_labels_are_never_opened(self, tmp_path):
        generate_corpus(12, 3, ORACLE, tmp_path / "c")
        entries = read_manifest(tmp_path / "c" / "manifest.csv")
        test_file = next(file for _, file, label in entries if label == "test")
        (tmp_path / "c" / test_file).write_text("not a track\n")
        loaded = load_corpus(tmp_path / "c", ("train", "val"))
        assert (len(loaded.training), len(loaded.validation), loaded.testing) == (10, 1, ())
        with pytest.raises(ColumnSchemaError, match=test_file):
            load_corpus(tmp_path / "c")

    def test_duplicate_id_in_an_unloaded_label_still_fails(self, tmp_path):
        generate_corpus(12, 3, ORACLE, tmp_path / "c")
        manifest = tmp_path / "c" / "manifest.csv"
        entries = read_manifest(manifest)
        train_id = next(tid for tid, _, label in entries if label == "train")
        r = next(r for r, (_, _, label) in enumerate(entries) if label == "test")
        entries[r] = (train_id, *entries[r][1:])
        write_manifest(entries, manifest)
        with pytest.raises(ColumnSchemaError, match=rf"duplicate track id '{train_id}' "
                                                    rf"\| row {r} \| column 'track_id'"):
            load_corpus(tmp_path / "c", ("train",))

    @pytest.mark.parametrize("labels", [
        labels for n in range(4) for labels in itertools.combinations(SPLIT_LABELS, n)],
        ids=lambda labels: "+".join(labels) or "none")
    def test_file_named_by_two_rows_fails_for_every_label_choice(self, tmp_path, labels):
        generate_corpus(12, 3, ORACLE, tmp_path / "c")
        manifest = tmp_path / "c" / "manifest.csv"
        assert len(load_corpus(tmp_path / "c", labels).all_tracks()) == sum(
            (10, 1, 1)[SPLIT_LABELS.index(label)] for label in labels)
        entries = read_manifest(manifest)
        train_file = next(file for _, file, label in entries if label == "train")
        r = next(r for r, (_, _, label) in enumerate(entries) if label == "test")
        entries[r] = ("renamed_id", train_file, "test")
        write_manifest(entries, manifest)
        with pytest.raises(ColumnSchemaError, match=rf"duplicate track file '{train_file}' "
                                                    rf"\| row {r} \| column 'file'"):
            load_corpus(tmp_path / "c", labels)

    def test_unknown_label_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown split labels \\['tset'\\]"):
            load_corpus(tmp_path, ("train", "tset"))

    def test_missing_manifest_reported(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest.csv"):
            load_corpus(tmp_path)

    def test_zero_tracks_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^n_tracks must be >= 1, got 0$"):
            generate_corpus(0, 1, ORACLE, tmp_path / "c")
