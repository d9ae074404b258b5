"""Benchmark of the idealspin command line, end to end and layer by layer.

  python3 perfbench/run.py --workload cubic-scan --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  Each run builds the workload's argv from
the seed, calls ``idealspin.cli.run(argv, out, err)`` in process, again and
again for --seconds seconds, and checks every output against the frozen
reference in perfbench/reference.

--trace 0 reports the end-to-end metrics, with tracing off.
--trace 1 reports the per-layer metrics: it times untraced and traced runs
at --workers 1 (the overhead is their ratio), takes layer counts and self
times from the traced runs, and the cli.* numbers from one run at the
workload's own worker count.

A readable table goes to stdout first.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the metric
names and units are those of BENCHMARK.json.
"""

import argparse
import gc
import io
import json
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_BATCH_S = 0.4  # timed set-up per batch; one batch after each CLI run
MIN_REPS = 3        # CLI runs per timed phase, even past --seconds
CHILD_TIMEOUT_S = 150


def import_cli():
    """idealspin.cli from this checkout's src/, or exit non-zero."""
    if not (SRC / "idealspin" / "__init__.py").is_file():
        raise SystemExit(f"error: no idealspin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import idealspin.cli

    if Path(idealspin.__file__).resolve().parent != SRC / "idealspin":
        raise SystemExit(f"error: imported idealspin from {idealspin.__file__}")
    return idealspin.cli


def declared_metrics() -> dict[str, dict[str, str]]:
    """{"end_to_end" | "per_layer": {name: unit}} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


class Tally:
    """Row verdicts summed over every CLI run of a benchmark run."""

    def __init__(self, reference: str):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.identical = True

    def add(self, verdict):
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.identical = self.identical and verdict.identical


def run_once(cli, case, tally) -> float:
    """One CLI call, timed from entry to return, with its output checked."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        rc = cli.run(list(case.argv), out, err)
    except (Exception, SystemExit):
        traceback.print_exc(file=sys.stderr)
        rc = None
    wall = time.perf_counter() - start
    if rc == 0:
        tally.add(workloads.check_output(case, out.getvalue(), tally.reference))
    else:
        sys.stderr.write(f"{' '.join(case.argv)} exited {rc}: {err.getvalue()}\n")
        tally.add(workloads.crash_verdict(tally.reference))
    return wall


def timed_phase(cli, case, tally, seconds: float, trace_runs=None) -> list[float]:
    """Wall times of repeated CLI runs for about `seconds` seconds.  With
    trace_runs given, each run is traced and its layer metrics appended."""
    walls: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_REPS or time.perf_counter() < deadline:
        if trace_runs is None:
            walls.append(run_once(cli, case, tally))
            continue
        tr = tracer.Tracer()
        with tr.installed():
            walls.append(run_once(cli, case, tally))
        trace_runs.append(tr.layer_metrics())
    return walls


def setup_batch(case) -> float:
    """Mean time of construct_field + build_domain for the case's field, over
    as many set-ups as fill SETUP_BATCH_S.  A single quadratic set-up takes
    a few ms, and the host's speed flips between two levels about every few
    hundred ms, so one short set-up lands wholly in one of them; a batch
    averages over them the way one CLI call does."""
    from idealspin.fields import construct_field
    from idealspin.units import build_domain

    total, reps = 0.0, 0
    while reps < 1 or total < SETUP_BATCH_S:
        gc.collect()
        start = time.perf_counter()
        build_domain(construct_field(case.family, case.param))
        total += time.perf_counter() - start
        reps += 1
    return total / reps


def peak_rss_mb(case) -> float | None:
    """Peak RSS of a fresh process that runs the case once; None on failure."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "rss_child.py"), *case.argv],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("peak RSS child timed out\n")
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])["maxrss_kb"] / 1024


def end_to_end(cli, case, tally, seconds: int):
    """End-to-end metrics and table lines, tracing off."""
    walls, setups = [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_REPS or time.perf_counter() < deadline:
        walls.append(run_once(cli, case, tally))
        setups.append(setup_batch(case))
    rss = peak_rss_mb(case)
    units = workloads.work_units(case, tally.reference)
    metrics = {
        "wall_s": median(walls),
        "work_per_s": median(units / w for w in walls),
        "setup_s": median(setups),
        "peak_rss_mb": rss if rss is not None else 0.0,
    }
    notes = {
        "wall_s": f"median of {len(walls)} (min {min(walls):.4f}, max {max(walls):.4f})",
        "work_per_s": f"median of {len(walls)}, {units} units per run",
        "setup_s": f"median of {len(setups)} batch means "
                   f"(min {min(setups):.4f}, max {max(setups):.4f})",
        "peak_rss_mb": "one fresh process" if rss is not None else "child failed",
    }
    return metrics, notes, rss is not None


def per_layer(cli, case, tally, seconds: int):
    """Per-layer metrics and table lines, from traced runs."""
    single = case.with_workers(1)
    plain = timed_phase(cli, single, tally, seconds / 2)
    runs: list[dict] = []
    traced = timed_phase(cli, single, tally, seconds / 2, trace_runs=runs)
    with tracer.probe_blocks() as blocks:
        run_once(cli, case, tally)
    metrics = tracer.merge_runs(runs)
    metrics.update(blocks)
    metrics["trace.overhead_frac"] = median(traced) / median(plain) - 1
    repeat = all(r[k] == runs[0][k] for r in runs for k in r if not k.endswith("_s"))
    notes = {"trace.overhead_frac":
             f"traced median {median(traced):.4f} s (n={len(traced)}) over "
             f"untraced {median(plain):.4f} s (n={len(plain)})"}
    if not repeat:
        notes["trace.overhead_frac"] += "; call counts differ between traced runs"
    return metrics, notes, repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    cli = import_cli()
    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    case = workloads.make_case(args.workload, args.seed)
    reference = workloads.load_reference(case)
    if reference is None:
        raise SystemExit(f"error: no reference output {workloads.reference_path(case)}")
    tally = Tally(reference)

    measure = per_layer if args.trace else end_to_end
    metrics, notes, ok = measure(cli, case, tally, args.seconds)
    if set(metrics) != set(declared):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(declared))} "
                         "do not match BENCHMARK.json")

    print(f"# {args.workload} seed {args.seed}: idealspin {' '.join(case.argv)}")
    for name in declared:
        print(f"{name:48s} {metrics[name]:>14.6g} {declared[name]:14s} {notes.get(name, '')}")
    print(f"{'failed_frac':48s} {tally.failed / tally.attempted:>14.6g} {'1':14s} "
          f"{tally.failed} of {tally.attempted} rows, "
          f"{'byte-identical' if tally.identical else 'NOT byte-identical'} to the reference")
    correct = ok and tally.failed == 0 and tally.identical
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
