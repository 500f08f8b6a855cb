"""surgenet benchmark: run one workload for one corpus seed, print one result.

    python3 benchmark/run.py --workload train-default --seed 1 --seconds 50 --trace 0

Run it from anywhere inside a surgenet checkout: it imports the package from
the checkout's src/ and works in the checkout's .bench_work/, which it
removes again. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
README.md next to this file lists the workloads and every metric.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy is imported, so the only compute
# threads are the training workers (at most 2). With OpenBLAS's default of one
# thread per core, workers=2 on two cores would run four compute threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import ctypes
import glob
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "surgenet" / "__init__.py").is_file():
    sys.exit(f"benchmark: no surgenet package under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from surgenet import cli, dataset, network, training  # noqa: E402
from surgenet.network import Architecture  # noqa: E402

import spans  # noqa: E402  (benchmark/spans.py; the script directory is on sys.path)

N_TRACKS = 324                  # the default corpus
MIN_SETUPS = 3                  # setup_s is the median of at least this many corpus set-ups
CHECK_EPOCHS = 100              # length of each cross-check run: criterion 2's epoch count
DRIFT_TOL = 1e-9                # acceptance criterion 2's parameter drift bound
PREDICT_TRACKS = 50             # predict runs cycle over the first this-many corpus tracks
ARCH = Architecture(len(dataset.INPUT_COLUMNS), (32, 64), dataset.N_STATIONS, "tanh")
PROBE_EVERY_S = 0.1             # reference-kernel period (taken at operation boundaries)
PROBE_WINDOW_S = 0.3            # probes this close to a sample's interval scale it
REF_NOMINAL_S = 0.005           # the reference kernel's duration that defines 1 nominal second


@dataclass(frozen=True)
class Workload:
    """A run is a sequence of rounds: a corpus set-up (generate + load) every
    setup_every rounds, one training run, one evaluate run and some predict
    runs. Rounds repeat for the run's time budget, so every metric is sampled
    across the whole run rather than in one stretch."""

    workers: int
    batch_tracks: int
    epochs: int                # per training run
    validation_every: int      # progress interval; epoch_ms samples are taken per interval
    eval_split: str            # population of each evaluate run: "test" or "all"
    predicts: int              # predict runs per round
    setup_every: int           # rounds per corpus set-up


WORKLOADS = {
    "train-default": Workload(workers=1, batch_tracks=32, epochs=200, validation_every=10,
                              eval_split="test", predicts=20, setup_every=2),
    "pipeline": Workload(workers=1, batch_tracks=32, epochs=100, validation_every=5,
                         eval_split="all", predicts=34, setup_every=1),
}

# Timings are nominal seconds and milliseconds: measured time scaled to the
# reference kernel's nominal speed (see Speed).
END_TO_END_UNITS = {
    "setup_s": "s",
    "train_rows_per_s": "rows/s",
    "epoch_ms_p50": "ms",
    "epoch_ms_p90": "ms",
    "final_val_nmse": "ratio",
    "evaluate_s": "s",
    "predict_ms_p50": "ms",
    "predict_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def _files_digest(paths) -> tuple:
    """(sha256 over the files' names and bytes, total bytes)."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(paths):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        total += len(data)
    return digest.hexdigest(), total


def _same_split(a, b) -> bool:
    """Same tracks, bit for bit, in the same partitions (order within a
    partition is not part of the corpus: the manifest lists tracks by id)."""
    def by_id(part):
        return {tr.track_id: (tr.inputs.tobytes(), tr.surge.tobytes()) for tr in part}
    return all(by_id(pa) == by_id(pb) for pa, pb in (
        (a.training, b.training), (a.validation, b.validation), (a.testing, b.testing)))


class Speed:
    """The machine's speed over a run, read from a fixed reference kernel.

    On a shared host the speed of a vCPU drifts between a fast and a slow
    state (about 1.5x apart on the 2-vCPU Xeon VM the readings in README.md
    come from) over seconds to minutes, so raw wall times of the same work
    differed by 20-50% between runs there. Every timing sample is therefore
    reported scaled to nominal speed: raw time x REF_NOMINAL_S / the median
    duration of the reference probes taken within PROBE_WINDOW_S of the
    sample. The reference is benchmark code, so no change to surgenet can
    move it: Python float formatting and parsing, like CSV work. It holds no
    numpy kernel on purpose: a fixed numpy matmul + tanh ran at one of two
    speeds, about 2x apart, fixed for the life of a process and unrelated to
    the machine's speed, and scaling by it made the spread between runs wider.
    """

    def __init__(self):
        self._rows = np.random.default_rng(0).normal(size=(160, 16))
        self.probes = []       # (end time, seconds)
        self.probe_total = 0.0

    def probe(self) -> None:
        """Run the reference kernel if the last probe is PROBE_EVERY_S old."""
        t0 = perf_counter()
        if self.probes and t0 - self.probes[-1][0] < PROBE_EVERY_S:
            return
        text = "\n".join(",".join(format(v, ".17g") for v in row) for row in self._rows)
        [float(v) for v in text.replace("\n", ",").split(",")]
        t1 = perf_counter()
        self.probes.append((t1, t1 - t0))
        self.probe_total += t1 - t0

    def scale(self, start: float, end: float) -> float:
        """Nominal seconds per measured second over [start, end]."""
        near = [d for t, d in self.probes if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        if not near:
            mid = 0.5 * (start + end)
            near = [min(self.probes, key=lambda p: abs(p[0] - mid))[1]]
        return REF_NOMINAL_S / statistics.median(near)


class Run:
    """One workload run: its rounds, the cross-check, and the output checks."""

    def __init__(self, workload: Workload, seed: int, seconds: float, work: Path, tracer,
                 allowed_cpus: set, pinned_cpu: int):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.tracer = tracer
        self.corpus = work / "corpus"
        self.checkpoint = work / "out" / "checkpoint.json"
        self.samples = defaultdict(list)    # exact or deterministic values
        self.timings = defaultdict(list)    # metric -> [(start, end, raw value)]
        self.speed = Speed()
        self.predicted = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.train_rows = 0
        self.evaluated_tracks = 0
        self.split = None
        self._first = {}           # check name -> value every repeat must equal
        self._predict_refs = {}    # track path -> expected prediction bytes
        self._reference_ckpt = None
        self.allowed_cpus = allowed_cpus
        self.pinned_cpu = pinned_cpu

    # -- bookkeeping ---------------------------------------------------------

    @contextlib.contextmanager
    def stage(self, name):
        """Attribute spans to a stage; the stage span's self time is the part
        of the stage not covered by a traced call."""
        if self.tracer is None:
            yield
            return
        previous = self.tracer.stage
        self.tracer.stage = name
        try:
            with self.tracer.span(f"stage.{name}"):
                yield
        finally:
            self.tracer.stage = previous

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def check_repeat(self, key: str, value, what: str) -> None:
        """The first value seen under key is the one every later repeat must equal."""
        first = self._first.setdefault(key, value)
        self.check(first == value, f"{what} differs between repeats")

    @contextlib.contextmanager
    def operation(self):
        """Count one attempted operation; it fails when a check inside fails.

        An exception is a crash of the program or the benchmark and ends the run.
        """
        self.attempted += 1
        before = len(self.failures)
        self.probe()
        yield
        self.probe()
        if len(self.failures) > before:
            self.failed += 1

    def probe(self) -> None:
        if self.tracer is None:
            self.speed.probe()
        else:
            with self.tracer.span("benchmark.probe"):
                self.speed.probe()

    def timed(self, metric: str, start: float, end: float, value: float = None) -> None:
        """A timing sample; value defaults to the interval's length."""
        self.timings[metric].append((start, end, end - start if value is None else value))

    @contextlib.contextmanager
    def cpus_for(self, workers: int):
        """Widen the pinned main thread to every allowed CPU while a sharded
        training run creates its pool threads, which inherit the mask."""
        if workers <= 1:
            yield
            return
        os.sched_setaffinity(0, self.allowed_cpus)
        try:
            yield
        finally:
            os.sched_setaffinity(0, {self.pinned_cpu})

    def cli(self, *argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([str(a) for a in argv])

    # -- operations ----------------------------------------------------------

    def corpus_setup(self) -> None:
        """generate_corpus (the one call cmd_generate makes; its split is the
        reference for the load check), then load_corpus."""
        with self.operation():
            t0 = perf_counter()
            with self.stage("generate"):
                split = dataset.generate_corpus(N_TRACKS, self.seed, dataset.default_oracle(),
                                                self.corpus)
            with self.stage("load"):
                loaded = dataset.load_corpus(self.corpus)
            self.timed("setup_s", t0, perf_counter())
            self.check(_same_split(split, loaded), "loaded corpus differs from the generated one")
            if self.split is None:
                self.split = split
            self.check(_same_split(self.split, loaded), "corpus differs between repeats")
            digest, size = _files_digest(self.corpus.glob("*.csv"))
            self.check_repeat("corpus", digest, "corpus files")
            self.samples["corpus_bytes"].append(size)

    def train_config(self, workers, epochs, validation_every) -> training.TrainConfig:
        return training.TrainConfig(arch=ARCH, epochs=epochs, batch_tracks=self.w.batch_tracks,
                                    workers=workers, seed=self.seed,
                                    validation_every=validation_every)

    def train(self) -> None:
        """The calls cmd_train makes: train, save_checkpoint, write_history."""
        w = self.w
        cfg = self.train_config(w.workers, w.epochs, w.validation_every)
        ticks = []  # (progress callback entered, training resumed)

        def progress(row):
            entered = perf_counter()
            self.probe()
            ticks.append((entered, perf_counter()))

        with self.operation():
            probed = self.speed.probe_total
            t0 = perf_counter()
            with self.stage("train"), self.cpus_for(w.workers):
                ckpt, history = training.train(cfg, self.split, progress=progress)
                self.checkpoint.parent.mkdir(parents=True, exist_ok=True)
                network.save_checkpoint(ckpt.net, ckpt.normalizer, ckpt.meta, self.checkpoint)
                training.write_history(
                    history, self.checkpoint.with_name("checkpoint_history.csv"))
            t1 = perf_counter()
            self.timed("train_s", t0, t1, t1 - t0 - (self.speed.probe_total - probed))
            self.train_rows += w.epochs * w.batch_tracks * dataset.N_ROWS
            for (_, resumed), (entered, _) in zip(ticks, ticks[1:]):
                self.timed("epoch_ms", resumed, entered,
                           1000.0 * (entered - resumed) / w.validation_every)
            # Validation MSE of the saved (best) checkpoint over the variance
            # of the validation targets: raw MSE differs ~15% between corpus
            # seeds, this ratio ~4%.
            val = min(row.val_mse for row in history if row.val_mse is not None)
            targets = np.concatenate([tr.surge for tr in self.split.validation])
            self.samples["final_val_nmse"].append(float(val / targets.var()))
            self.check_repeat("final_val_mse", val, "final_val_mse")
            self.check_repeat("checkpoint", self.checkpoint.read_bytes(), "checkpoint file")

    def cross_check(self) -> None:
        """Sharded and single-worker training agree within criterion 2's drift."""
        with self.operation():
            nets = []
            with self.stage("check"):
                for workers in (1, 2):
                    cfg = self.train_config(workers, CHECK_EPOCHS, 0)
                    with self.cpus_for(workers):
                        nets.append(training.train(cfg, self.split)[0].net)
            drift = max(max(np.abs(w1 - w2).max(), np.abs(b1 - b2).max())
                        for (w1, b1), (w2, b2) in zip(nets[0].layers, nets[1].layers))
            self.check(drift <= DRIFT_TOL, f"worker drift {drift:.3e} > {DRIFT_TOL:g}")

    def evaluate(self) -> None:
        label = self.w.eval_split
        reports = self.work / "reports"
        with self.operation():
            t0 = perf_counter()
            with self.stage("evaluate"):
                rc = self.cli("evaluate", "--seed", self.seed, "--corpus", self.corpus,
                              "--checkpoint", self.checkpoint, "--split", label, "--out", reports)
            self.timed("evaluate_s", t0, perf_counter())
            self.check(rc == 0, f"evaluate exited {rc}")
            digest, size = _files_digest(reports.glob(f"*_{label}.csv"))
            self.check_repeat("reports", digest, "report files")
            self.samples["report_bytes"].append(size)
            population = self.split.all_tracks() if label == "all" else self.split.testing
            self.evaluated_tracks += len(population)

    def predict(self, track: Path) -> None:
        out = self.work / "prediction.csv"
        with self.operation():
            t0 = perf_counter()
            with self.stage("predict"):
                rc = self.cli("predict", "--checkpoint", self.checkpoint, "--track", track,
                              "--out", out)
            t1 = perf_counter()
            self.timed("predict_ms", t0, t1, 1000.0 * (t1 - t0))
            self.check(rc == 0, f"predict exited {rc}")
            data = out.read_bytes()
            expected = self._predict_refs.get(track)
            if expected is None:
                self.check_prediction(track, data)
                self._predict_refs[track] = data
            else:
                self.check(data == expected, f"prediction for {track.name} differs between repeats")

    def check_prediction(self, track: Path, data: bytes) -> None:
        """The predict CSV equals forward_batch on the same interpolated inputs."""
        with self.stage("verify"):
            if self._reference_ckpt is None:
                self._reference_ckpt = network.load_checkpoint(self.checkpoint)
            ckpt = self._reference_ckpt
            inputs = dataset.interpolate_to_grid(dataset.read_input_series(track))
            expected, _ = network.forward_batch(ckpt.net, ckpt.normalizer.apply(inputs))
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        got = np.array([[float(v) for v in row] for row in rows[1:]])
        ok = (rows[0] == ["tau_days", *dataset.SURGE_COLUMNS]
              and got.shape == (len(inputs), 1 + expected.shape[1])
              and got[:, 0].tobytes() == inputs[:, 0].tobytes()
              and np.ascontiguousarray(got[:, 1:]).tobytes() == expected.tobytes())
        self.check(ok, f"prediction for {track.name} differs from forward_batch")

    # -- the run -------------------------------------------------------------

    def execute(self) -> None:
        """Rounds until another average round would overrun the time budget
        (and at least MIN_SETUPS set-ups were made), then the worker
        cross-check."""
        start = perf_counter()
        rounds = 0
        while True:
            if rounds % self.w.setup_every == 0:
                self.corpus_setup()
            self.train()
            self.evaluate()
            tracks = sorted(self.corpus.glob("track_*.csv"))[:PREDICT_TRACKS]
            for _ in range(self.w.predicts):
                self.predict(tracks[self.predicted % len(tracks)])
                self.predicted += 1
            rounds += 1
            elapsed = perf_counter() - start
            if (len(self.timings["setup_s"]) >= MIN_SETUPS
                    and elapsed + elapsed / rounds > self.seconds):
                break
        self.cross_check()

    # -- results -------------------------------------------------------------

    def values(self, metric: str, nominal: bool) -> list:
        samples = self.timings[metric]
        if not nominal:
            return [v for _, _, v in samples]
        return [v * self.speed.scale(a, b) for a, b, v in samples]

    def end_to_end(self, nominal: bool = True) -> dict:
        """End-to-end metrics, timings scaled to nominal speed (see Speed)
        or, with nominal=False, as measured."""
        def pick(metric, q=50):
            return float(np.percentile(self.values(metric, nominal), q))

        return {
            "setup_s": pick("setup_s"),
            "train_rows_per_s": self.train_rows / sum(self.values("train_s", nominal)),
            "epoch_ms_p50": pick("epoch_ms"),
            "epoch_ms_p90": pick("epoch_ms", 90),
            "final_val_nmse": statistics.median(self.samples["final_val_nmse"]),
            "evaluate_s": pick("evaluate_s"),
            "predict_ms_p50": pick("predict_ms"),
            "predict_ms_p90": pick("predict_ms", 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def forward_flops(rows: int) -> int:
    """Matmul flops of a forward pass over rows, computed from the layer shapes."""
    return 2 * rows * sum(r * c for r, c in ARCH.layer_dims())


def step_flops(rows: int) -> int:
    """Matmul flops of one training step: the forward pass, the weight
    gradients (as many as forward) and the delta propagation below the
    output layer."""
    delta = 2 * rows * sum(r * c for r, c in ARCH.layer_dims()[1:])
    return 2 * forward_flops(rows) + delta


def per_layer(run: Run, e2e: dict) -> dict:
    """Per-layer metrics from the traced run; see README.md for each one."""
    totals = run.tracer.totals()

    def calls(stage, name):
        return totals[(stage, name)][0] if (stage, name) in totals else 0

    def ms(stage, name, kind=1):  # kind 1: inclusive, 2: self
        return 1000.0 * totals[(stage, name)][kind] if (stage, name) in totals else 0.0

    def everywhere(name, kind=1):
        return sum(1000.0 * v[kind] for (_, n), v in totals.items() if n == name)

    epochs = calls("train", "training.adam_step")
    n_gen = calls("generate", "stage.generate")
    n_load = calls("load", "stage.load")
    n_eval = calls("evaluate", "stage.evaluate")
    n_pred = calls("predict", "stage.predict")

    sharded = [s for s in run.tracer.spans if s.name == "training.loss_grads" and s.tag > 1]
    shard_busy = sum(s.duration for s in run.tracer.spans
                     if s.name == "training.backprop" and s.thread != run.tracer.main_thread)
    shard_capacity = sum(s.tag * s.duration for s in sharded)

    # Kernel self times sum over threads (the pool's shards run on two), so
    # kernel_share divides them by the workers' capacity: workers x the
    # inclusive train() time per epoch, taken from the same spans and epochs.
    # The reference probes that progress callbacks make inside train() are
    # left out of it.
    fwd = ms("train", "network.forward_batch", 2) / epochs
    tanh = ms("train", "numerics.tanh_act", 2) / epochs
    backprop = ms("train", "training.backprop", 2) / epochs
    train_ms = (ms("train", "training.train") - ms("train", "benchmark.probe")) / epochs
    batch_rows = run.w.batch_tracks * dataset.N_ROWS
    val_rows = len(run.split.validation) * dataset.N_ROWS
    flops = (epochs * step_flops(batch_rows)
             + calls("train", "training.validation") * forward_flops(val_rows))

    m = {
        # training layers, per epoch of the measured training
        "network.forward_batch.self_ms": (fwd, "ms"),
        "numerics.tanh_act.self_ms": (tanh, "ms"),
        "training.backprop.self_ms": (backprop, "ms"),
        "training.kernel_share": ((fwd + tanh + backprop) / (run.w.workers * train_ms),
                                  "ratio"),
        "training.gflops": (flops / epochs / (fwd + tanh + backprop) / 1e6, "GFLOP/s"),
        "training.flops_per_epoch": (step_flops(batch_rows), "flop"),
        "training.adam_step.ms": (ms("train", "training.adam_step") / epochs, "ms"),
        "numerics.Rng.choice.ms": (ms("train", "numerics.Rng.choice") / epochs, "ms"),
        "training.loop.self_ms": (ms("train", "training.train", 2) / epochs, "ms"),
        "training.loss_grads.ms": (ms("train", "training.loss_grads") / epochs, "ms"),
        "training.validation.ms": (ms("train", "training.validation") / epochs, "ms"),
        # thread-pool layers, per sharded epoch (every workload shards in the cross-check)
        "training.reduce.ms": (everywhere("training.reduce") / len(sharded), "ms"),
        "training.parallel_efficiency": (shard_busy / shard_capacity, "ratio"),
        # dataset layers, per corpus generation and per corpus load
        "dataset.generate_track.ms": (ms("generate", "dataset.generate_track") / n_gen, "ms"),
        "dataset.save_track_csv.ms": (ms("generate", "dataset.save_track_csv") / n_gen, "ms"),
        "dataset.corpus_bytes": (statistics.median(run.samples["corpus_bytes"]), "bytes"),
        "dataset.load_track_csv.self_ms": (ms("load", "dataset.load_track_csv", 2) / n_load,
                                           "ms"),
        "dataset.validate_track.ms": (ms("load", "dataset.validate_track") / n_load, "ms"),
        # evaluation layers, per evaluate run
        "evaluation.emit_report.self_ms": (ms("evaluate", "evaluation.emit_report", 2) / n_eval,
                                           "ms"),
        "evaluation.fit_kde.ms": (ms("evaluate", "evaluation.fit_kde") / n_eval, "ms"),
        "evaluation.quantile_interval.ms": (
            ms("evaluate", "evaluation.quantile_interval") / n_eval, "ms"),
        "evaluation.prob_within.ms": (ms("evaluate", "evaluation.prob_within") / n_eval, "ms"),
        "evaluation.predict_track.calls_per_track": (
            calls("evaluate", "evaluation.predict_track") / run.evaluated_tracks, "count"),
        "evaluation.report_bytes": (statistics.median(run.samples["report_bytes"]), "bytes"),
        # predict layers, per predict run
        "network.load_checkpoint.ms": (ms("predict", "network.load_checkpoint") / n_pred, "ms"),
        "dataset.read_input_series.ms": (ms("predict", "dataset.read_input_series") / n_pred,
                                         "ms"),
        "dataset.interpolate_to_grid.ms": (
            ms("predict", "dataset.interpolate_to_grid") / n_pred, "ms"),
        "network.forward_batch.predict_ms": (ms("predict", "network.forward_batch") / n_pred,
                                             "ms"),
        "cli.predict.other_ms": (ms("predict", "stage.predict", 2) / n_pred, "ms"),
    }
    # Call counts per unit of work; these repeat exactly between runs.
    for stage, unit, n, names in (
            ("train", "per_epoch", epochs, (
                "network.forward_batch", "numerics.tanh_act", "training.backprop",
                "training.adam_step", "numerics.Rng.choice", "training.loss_grads",
                "training.reduce", "training.validation")),
            ("generate", "per_generate", n_gen, ("dataset.generate_track",
                                                  "dataset.save_track_csv")),
            ("load", "per_load", n_load, ("dataset.load_track_csv", "dataset.validate_track")),
            ("evaluate", "per_evaluate", n_eval, (
                "evaluation.emit_report", "evaluation.fit_kde", "evaluation.quantile_interval",
                "evaluation.prob_within", "network.load_checkpoint")),
            ("predict", "per_predict", n_pred, (
                "network.load_checkpoint", "dataset.read_input_series",
                "dataset.interpolate_to_grid", "network.forward_batch"))):
        for name in names:
            m[f"{name}.calls_{unit}"] = (calls(stage, name) / n, "count")
    # The traced run's own end-to-end figures; minus an untraced run's they
    # give the tracing overhead. Layer times above are as measured.
    for name in ("epoch_ms_p50", "setup_s", "evaluate_s", "predict_ms_p50"):
        m[f"traced.{name}"] = (e2e[name], END_TO_END_UNITS[name])
    return m


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "loadavg_1m": os.getloadavg()[0],
    }


def _blas_threads():
    """The thread count OpenBLAS reports, or None when it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="corpus and training seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for everything single-threaded: on a shared host, which vCPU a
    # process lands on can change its speed (by up to 30% on the 2-vCPU VM of
    # README.md). Sharded training widens the mask.
    allowed = os.sched_getaffinity(0)
    pinned = max(allowed)
    os.sched_setaffinity(0, {pinned})
    print("env " + json.dumps({**environment(), "pinned_cpu": pinned}), flush=True)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, work, tracer, allowed, pinned)
    if tracer is not None:
        tracer.install()
    try:
        run.execute()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    e2e = run.end_to_end()
    raw = run.end_to_end(nominal=False)
    metrics = per_layer(run, e2e) if tracer else {k: (v, END_TO_END_UNITS[k])
                                                  for k, v in e2e.items()}
    for message in run.failures:
        print(f"check failed: {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    speeds = [REF_NOMINAL_S / d for _, d in run.speed.probes]
    print(f"as measured: {json.dumps(raw)}; machine speed over {len(speeds)} probes: "
          f"min {min(speeds):.3f}, median {statistics.median(speeds):.3f}, "
          f"max {max(speeds):.3f} x nominal")
    print(f"fail_ratio {run.failed / run.attempted!r} ({run.failed}/{run.attempted})")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
