"""Run the benchmark over workloads and seeds, save the results, summarise them.

    python3 benchmark/sweep.py --seeds 1-10 --side . runs.jsonl
    python3 benchmark/sweep.py --seeds 1-10 --side ../parent parent.jsonl --side . change.jsonl
    python3 benchmark/sweep.py --seeds 1-3 --workloads pipeline --trace 1 --side . traced.jsonl
    python3 benchmark/sweep.py --summarise runs.jsonl traced.jsonl

A side is a checkout and the file its runs are appended to, one JSON line
(workload, seed, trace, env, result) per run. Each run is one process of the
benchmark command, started in the side's root, so it runs that checkout's
own benchmark code, and awaited before the next starts. The command, the
workloads and the run length are those of the BENCHMARK.json next to this
directory. With two sides every (seed, workload) runs on both, back to
back, and the side that runs first alternates from seed to seed, so
compare.py's seed pairs were taken at the same time. The summary prints,
per workload and metric, the median, the quartiles and the spread (quartile
distance over median) against the metric's bound, the failed/attempted
operations, and, where both an untraced and a traced run set are given, the
tracing overhead.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list:
    """"1-10" or "1,4,9" -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def read_runs(paths) -> list:
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            runs.extend(json.loads(line) for line in fh if line.strip())
    return runs


def run_one(root: Path, spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{root}: {workload} seed {seed}: exited {proc.returncode}")
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall, "env": env,
            "result": json.loads(lines[-1])}


def summarise(runs: list, spec: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    by_key = defaultdict(list)
    ops = defaultdict(lambda: [0, 0])
    for r in runs:
        res = r["result"]
        ops[(r["workload"], r["trace"])][0] += res["failed"]
        ops[(r["workload"], r["trace"])][1] += res["attempted"]
        for name, m in res["metrics"].items():
            by_key[(r["workload"], r["trace"], name)].append((m["value"], m["unit"]))

    print(f"{'workload':<18} {'metric':<42} {'n':>3} {'median':>13} {'q1':>13} {'q3':>13} "
          f"{'spread':>7} {'bound':>6}")
    for (workload, trace, name), vals in sorted(by_key.items()):
        values = [v for v, _ in vals]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name) if not trace else None
        flag = "" if bound is None else ("  OVER" if spread > bound else "")
        print(f"{workload:<18} {name + ' [' + vals[0][1] + ']':<42} {len(values):>3} "
              f"{med:>13.6g} {q1:>13.6g} {q3:>13.6g} {spread:>7.3f} "
              f"{'' if bound is None else f'{bound:.2f}':>6}{flag}")
    for (workload, trace), (failed, attempted) in sorted(ops.items()):
        print(f"{workload:<18} fail_ratio (trace {trace}) {failed / attempted:.4g} "
              f"({failed}/{attempted})")

    for (workload, trace, name), vals in sorted(by_key.items()):
        if trace and name.startswith("traced."):
            base = by_key.get((workload, 0, name[len("traced."):]))
            if base:
                traced = statistics.median(v for v, _ in vals)
                untraced = statistics.median(v for v, _ in base)
                print(f"{workload:<18} tracing overhead {name[7:]}: {traced - untraced:+.6g} "
                      f"{vals[0][1]} ({(traced - untraced) / untraced:+.1%} of untraced)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="all", help="comma list or 'all'")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--side", nargs=2, action="append", default=[], metavar=("ROOT", "OUT"),
                        help="a checkout to run and the file to append its runs to; "
                             "give one side, or two (parent first, then change)")
    parser.add_argument("--summarise", nargs="+", type=Path, metavar="RUNS",
                        help="only summarise these saved run files")
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.summarise:
        summarise(read_runs(args.summarise), spec)
        return 0
    if not 1 <= len(args.side) <= 2:
        parser.error("give --side once or twice")
    sides = [(Path(root).resolve(), Path(out)) for root, out in args.side]
    workloads = ([w["name"] for w in spec["workloads"]] if args.workloads == "all"
                 else args.workloads.split(","))
    runs = {out: [] for _, out in sides}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for workload in workloads:
            for root, out in (sides if i % 2 == 0 else sides[::-1]):
                run = run_one(root, spec, workload, seed, args.trace)
                runs[out].append(run)
                with open(out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(run) + "\n")
                res = run["result"]
                print(f"{out}: {workload} seed {seed}: correct={res['correct']} "
                      f"failed {res['failed']}/{res['attempted']}, {run['wall_s']:.1f} s",
                      flush=True)
    for out, side_runs in runs.items():
        print(f"== {out}")
        summarise(side_runs, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
