#!/usr/bin/env python3
"""End-to-end benchmark of the transaction simulator.

Run from the repository root::

    python3 e2eperf/run.py --workload hot-drive --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
traced run, which alternates an untraced and a traced copy of each unit
and prints the per-layer table.  Both print every metric by name with
its unit, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every check passed.

Timed figures are divided by a CPU-speed probe (see :func:`probe`) run
between units, because the speed of a shared virtual machine drifts by
up to 2x over tens of seconds.  Normalised times are milliseconds
(``ref_ms``) or seconds (``txn/ref_s``, and ``setup_s``, whose unit the
benchmark format fixes as ``s``) on a CPU where the probe takes
``REF_PROBE_S``.  The raw wall-clock figures and the probe times are
printed beside them.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: probe time on the reference CPU that normalised times are quoted for.
REF_PROBE_S = 0.0125
PROBE_ITERATIONS = 100_000
#: unit time between two probes.
PROBE_EVERY_S = 0.5
#: set-up is measured this many times, in fresh processes after the first.
SETUP_SAMPLES = 5
#: nearest-rank percentiles ``unit_ms_tail`` chooses from, up to the
#: workload's ``tail_pct``.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0)
#: the traced run writes its spans here, relative to the repository root.
OUT_DIR = ".e2eperf_out"


def probe() -> float:
    """Time a fixed pure-Python loop: the CPU speed the units ran at.

    It imports nothing from the program and keeps nothing after it
    returns, so no change to ``src/`` can move it.
    """
    begin = time.perf_counter()
    acc = 0
    table = {}
    for i in range(PROBE_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + (i ^ acc) % 7
        acc = (acc * 31 + key) & 0xFFFFFF
    del table
    return time.perf_counter() - begin


def import_workloads():
    """Import the benchmark's modules against this checkout's ``src/``;
    exit 2 with a message when the program is not there."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print("e2eperf: no program at %s" % (src / "repro"), file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import layers
    import workloads

    return workloads, layers


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def timed_setup(workload, seed: int) -> dict:
    """Plan the run and warm the caches with one untimed unit; the time
    it takes, raw and normalised by the probes around it."""
    gc.collect()
    before = probe()
    begin = time.perf_counter()
    workload.plan(seed)
    workload.warmup()
    raw = time.perf_counter() - begin
    after = probe()
    speed = (before + after) / 2
    return {"raw_s": raw, "probe_s": speed, "norm_s": raw * REF_PROBE_S / speed}


def setup_samples(workload, args) -> list:
    """The in-process set-up (which the run then uses) plus fresh-process
    samples, each with the program imported before its clock starts."""
    samples = [timed_setup(workload, args.seed)]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-sample",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError("set-up sample failed:\n" + done.stderr)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark, so the next reading is this
    unit's own peak (Linux; elsewhere the reading stays the process
    peak)."""
    try:
        with open("/proc/self/clear_refs", "w") as fp:
            fp.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_unit(workload, unit) -> bool:
    """The only timed call: run the unit once, and record the process's
    peak RSS during it."""
    reset_peak_rss()
    begin = time.perf_counter()
    try:
        unit.result = workload.run(unit.spec)
        return True
    except Exception:
        unit.problems.append("unit raised:\n" + traceback.format_exc())
        return False
    finally:
        unit.wall_s = time.perf_counter() - begin
        unit.peak_rss_mb = peak_rss_mb()


def run_unit(workload, unit) -> None:
    """Time one unit, then record its row and check it (untimed)."""
    if time_unit(workload, unit):
        unit.row = workload.row(unit.spec, unit.result)
        unit.committed = workload.committed(unit.result)
        unit.problems.extend(workload.check(unit))


def settle(workloads, workload, units) -> None:
    """Re-run traced the first unit and every unit that reports fewer
    commits than it offered, after the timed loop so that the re-runs
    take no measuring time.  A unit that fails a check fails every
    transaction it offered; otherwise the offered transactions that
    never committed fail."""
    for unit in units:
        if unit.row is not None and (unit.index == 0 or unit.committed < unit.offered):
            problems, committed = workloads.rerun_traced(workload, unit)
            unit.problems.extend(problems)
            unit.committed = max(unit.committed, committed)
        unit.failed = unit.offered if unit.problems else unit.offered - unit.committed


class Clock:
    """Probes between units and the normalisation of unit times."""

    def __init__(self) -> None:
        gc.collect()
        self.probes = [probe()]
        self._block = []
        self._block_s = 0.0

    def add(self, unit) -> None:
        self._block.append(unit)
        self._block_s += unit.wall_s
        if self._block_s >= PROBE_EVERY_S:
            self.close()

    def close(self) -> None:
        if not self._block:
            return
        gc.collect()
        self.probes.append(probe())
        speed = (self.probes[-2] + self.probes[-1]) / 2
        for unit in self._block:
            unit.norm_s = unit.wall_s * REF_PROBE_S / speed
        self._block = []
        self._block_s = 0.0


def measure(workloads, layers, workload, seconds: float, tracer=None):
    """Run units back to back for ``seconds``.  Returns the untraced
    units and, with a tracer, the traced twin of each."""
    clock = Clock()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        layers.assert_unwrapped()
        unit = workload.prepare(index)
        run_unit(workload, unit)
        untraced.append(unit)
        clock.add(unit)
        if tracer is not None:
            # The twin's wall time includes the wrappers; it is kept
            # only for the tracing-overhead ratio.
            twin = workload.prepare(index)
            with tracer.root(layers.UNIT):
                ran = time_unit(workload, twin)
            traced.append(twin)
            twin_row = workload.row(twin.spec, twin.result) if ran else None
            if twin.problems or twin_row != unit.row:
                unit.problems.extend(twin.problems)
                unit.problems.append("traced twin row %s != %s" % (twin_row, unit.row))
        index += 1
        if time.perf_counter() >= deadline:
            break
    clock.close()
    return untraced, traced, clock.probes


def digest(workload, units):
    """SHA-256 over the rows of the run's first ``workload.digest_units``
    units, whatever the run length: units the timed loop did not reach
    run untimed."""
    wanted = workload.digest_units
    extra = []
    for index in range(len(units), wanted):
        unit = workload.prepare(index)
        run_unit(workload, unit)
        extra.append(unit)
    rows = [u.row for u in (units + extra)[:wanted]]
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16], extra


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int, cap: float) -> float:
    """The highest ladder percentile up to ``cap`` with at least 10 of
    ``n`` units beyond it."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if pct <= cap and n - math.ceil(pct / 100.0 * n) >= 10:
            best = pct
    return best


def end_to_end(workload, units, setups, probes) -> dict:
    norm = [u.norm_s for u in units]
    raw = [u.wall_s for u in units]
    pct = tail_percentile(len(units), workload.tail_pct)

    def throughput(chosen, attr):
        committed = sum(u.committed for u in chosen if not u.problems)
        return committed / sum(getattr(u, attr) for u in chosen)

    def rate(attr):
        if not workload.geometric_rate:
            return throughput(units, attr)
        logs = [math.log(u.committed / getattr(u, attr))
                for u in units if u.committed and not u.problems]
        return math.exp(sum(logs) / len(logs))

    metrics = {
        "committed_txn_per_s": (
            rate("norm_s"), "txn/ref_s",
            "raw %.2f txn/s; all committed over all unit time %.2f txn/ref_s, raw %.2f txn/s" % (
                rate("wall_s"), throughput(units, "norm_s"),
                throughput(units, "wall_s"))),
        "unit_ms_p50": (1000 * statistics.median(norm), "ref_ms",
                        "raw %.3f ms, n=%d" % (1000 * statistics.median(raw), len(units))),
        "unit_ms_tail": (1000 * nearest_rank(norm, pct), "ref_ms",
                         "p%g of n=%d, raw %.3f ms" % (
                             pct, len(units), 1000 * nearest_rank(raw, pct))),
    }
    metrics["setup_s"] = (
        statistics.median(s["norm_s"] for s in setups), "s",
        "reference-CPU seconds, median of %d; raw %s s; probes %s ms" % (
            len(setups),
            " ".join("%.4f" % s["raw_s"] for s in setups),
            " ".join("%.2f" % (1000 * s["probe_s"]) for s in setups),
        ),
    )
    metrics["peak_rss_mb"] = (
        statistics.median(u.peak_rss_mb for u in units), "MB",
        "median over units of the process peak RSS during the unit; max %.1f MB" % max(
            u.peak_rss_mb for u in units))
    print("probe            : n=%d min %.2f median %.2f max %.2f ms (reference %.2f ms)" % (
        len(probes), 1000 * min(probes), 1000 * statistics.median(probes),
        1000 * max(probes), 1000 * REF_PROBE_S))
    return metrics


def per_layer(layers, tracer, untraced, traced) -> dict:
    stats, roots = tracer.aggregate()
    n = len(traced)
    traced_s = sum(roots.values())
    metrics = {}
    for name, _owner, _attr in layers.TARGETS:
        calls, incl, self_s = stats.get(name, (0, 0.0, 0.0))
        metrics[name + ".calls"] = (calls / n, "count/unit", "")
        metrics[name + ".s"] = (incl / n, "s/unit", "")
        metrics[name + ".self_s"] = (self_s / n, "s/unit", "")
        metrics[name + ".share"] = (self_s / traced_s, "share", "")
    results = [u.result for u in traced if u.result is not None]
    drive_metrics = [r.metrics for r in results if hasattr(r, "metrics")]
    operations = sum(m.operations for m in drive_metrics)
    blocked = sum(m.blocked_attempts for m in drive_metrics)
    appends = stats.get("wal.append", (0,))[0]
    forces = stats.get("wal.force", (0,))[0]
    metrics["trace.events"] = (stats.get("trace.emit", (0,))[0] / n, "count/unit", "emit calls")
    metrics["system.blocked_share"] = (
        blocked / (operations + blocked) if operations + blocked else 0.0, "share",
        "blocked_attempts / (operations + blocked_attempts), drives only")
    metrics["wal.records_per_force"] = (
        appends / forces if forces else 0.0, "ratio", "wal.append calls per wal.force call")
    metrics["scheduler.ticks"] = (
        sum(m.ticks for m in drive_metrics) / n, "count/unit", "drives only")
    metrics["scheduler.dead_ticks_elided"] = (
        sum(m.dead_ticks_elided for m in drive_metrics) / n, "count/unit", "drives only")
    metrics["atomicity.unchecked"] = (
        tracer.errors["atomicity.is_dynamic_atomic", "TooManyOrdersError"], "count",
        "TooManyOrdersError raised by the audit (total)")
    metrics["faults.fired"] = (
        sum(getattr(r, "faults_fired", 0) for r in results) / n, "count/unit", "torture only")
    metrics["bench.trace_overhead"] = (
        sum(u.wall_s for u in traced) / sum(u.wall_s for u in untraced), "ratio",
        "traced unit time / untraced unit time, %d pairs" % n)
    return metrics


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, note) in metrics.items():
        print("  %-44s %14.6g %-11s %s" % (name, value, unit, note))


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one fresh-process set-up sample, printed as JSON.
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads, layers = import_workloads()
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print("e2eperf: unknown workload %r (choose from: %s)" % (
            args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    if args.setup_sample:
        print(json.dumps(timed_setup(workload, args.seed)))
        return 0

    print("workload         : %s (seed %d, %gs, trace %d)" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("why              : %s" % workload.why)
    setups = setup_samples(workload, args)
    tracer = layers.Tracer() if args.trace else None
    if tracer is not None:
        with tracer.root(layers.SETUP):
            workload.plan(args.seed)
    untraced, traced, probes = measure(workloads, layers, workload, args.seconds, tracer)
    layers.assert_unwrapped()
    outcome, extra = digest(workload, untraced)
    units = untraced + extra
    settle(workloads, workload, units)

    problems = [(u.index, p) for u in units for p in u.problems]
    attempted = sum(u.offered for u in units)
    failed = sum(u.failed for u in units)
    print("units            : %d timed, %d digest-only, %d traced" % (
        len(untraced), len(extra), len(traced)))
    print("digest           : %s over the first %d units" % (
        outcome, workload.digest_units))
    print("outcome          : %d offered, %d failed, %d problems" % (
        attempted, failed, len(problems)))
    for index, problem in problems[:20]:
        print("PROBLEM unit %d: %s" % (index, problem))

    e2e = end_to_end(workload, untraced, setups, probes)
    print_table("end-to-end metrics (untraced units)", e2e)
    chosen = e2e
    if tracer is not None:
        layer_metrics = per_layer(layers, tracer, untraced, traced)
        print_table("per-layer metrics (traced run)", layer_metrics)
        out = ROOT / OUT_DIR
        out.mkdir(exist_ok=True)
        path = out / ("%s-seed%d-spans.tsv.gz" % (args.workload, args.seed))
        count = tracer.dump(path)
        print("spans            : %d -> %s" % (count, path.relative_to(ROOT)))
        chosen = layer_metrics

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
