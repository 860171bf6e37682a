#!/usr/bin/env python3
"""Benchmark of the sfm toolkit: end-to-end metrics per workload, per-layer spans.

Run from the root of a checkout (the program is taken from its ``src/``):

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads: ``cli_session`` (one fresh ``sfm`` process per op), ``calibrate``
(in-process solves and manifold traces) and ``mc_oracle`` (in-process Monte
Carlo). ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run; ``--workload all`` runs every workload
both ways and prints the tracing overhead. Timings are reported at the
reference machine's speed: each is scaled by a speed probe, a fixed piece of
work that calls nothing of sfm, timed around it. The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/DESIGN.md`` for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("cli_session", "calibrate", "mc_oracle")
SETUP_REPEATS = 15
# A run stops early once its ops have taken this many times --seconds, so a
# program that much slower than the reference still exits in time.
MAX_SLOWDOWN = 4.0
DETAILS_TAG = "perfbench-details "

# name -> (unit, better); the gated end-to-end metrics of every workload.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> (unit, better); per-layer metrics of the traced run. "/op" values
# are means over the workload's timed ops.
PER_LAYER = {
    "dataset.load_series.calls": ("count/op", "lower"),
    "dataset.load_series.busy_ms": ("ms/op", "lower"),
    "dataset.rows_loaded": ("count/op", "lower"),
    "dataset.growth_series.busy_ms": ("ms/op", "lower"),
    "moments.estimate_moments.calls": ("count/op", "lower"),
    "moments.estimate_moments.busy_ms": ("ms/op", "lower"),
    "model.residual_array.calls": ("count/op", "lower"),
    "model.residual_array.busy_ms": ("ms/op", "lower"),
    "model.jacobian_array.calls": ("count/op", "lower"),
    "model.jacobian_array.busy_ms": ("ms/op", "lower"),
    "solver.solve.calls": ("count/op", "lower"),
    "solver.solve.self_ms": ("ms/op", "lower"),
    "solver.iterations": ("count/solve", "lower"),
    "solver.step_accept_ratio": ("ratio", "higher"),
    "solver.floor_hit_ratio": ("ratio", "higher"),
    "solver.trace_manifold.self_ms": ("ms/op", "lower"),
    "solver.manifold_points": ("count/op", "higher"),
    "solver.us_per_point": ("us", "lower"),
    "solver.rank_diagnostics.busy_ms": ("ms/op", "lower"),
    "mc.validate_identities.busy_ms": ("ms/op", "lower"),
    "mc.sample_pairs.calls": ("count/op", "lower"),
    "mc.sample_pairs.busy_ms": ("ms/op", "lower"),
    "mc.draws_requested": ("count/op", "lower"),
    "mc.unique_stream_ratio": ("ratio", "higher"),
    "mc.ns_per_pair_draw": ("ns", "lower"),
    "classify.build_reports.calls": ("count/op", "lower"),
    "classify.build_reports.busy_ms": ("ms/op", "lower"),
    "cli.process_wall_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.run_command.busy_ms": ("ms/op", "lower"),
    "cli.to_json.busy_ms": ("ms/op", "lower"),
    "cli.stdout_bytes": ("bytes/op", "lower"),
    "cli.exit_code_mismatches": ("count/op", "lower"),
}

SETUP_CODE = """\
import sfm
series = sfm.load_series({path!r})
sfm.estimate_moments(sfm.growth_series(series))
print("ready", flush=True)
"""


class BenchError(Exception):
    """The benchmark cannot run here (no program, or set-up failed)."""


# -- statistics ----------------------------------------------------------------

def tail_percentile(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile): the sample with exactly ten larger ranks
    above it, and the share of samples at or below it, in percent. With ten
    samples or fewer no such percentile exists; the minimum is returned as
    the 0th percentile.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    index = max(len(ordered) - 11, 0)
    percentile = 100.0 * (index + 1) / len(ordered) if len(ordered) > 10 else 0.0
    return ordered[index], percentile


class Tally:
    """Attempted and failed ops per kind.

    Known-defect kinds (documented behaviour the program does not meet yet)
    count in ``fail_ratio`` but not in ``failed``, the count of unexpected
    failures that makes a run incorrect.
    """

    def __init__(self):
        self.kinds: dict[str, dict] = {}

    def record(self, op, reason: str | None) -> None:
        row = self.kinds.setdefault(op.kind, {"attempted": 0, "failed": 0,
                                              "known_defect": op.known_defect,
                                              "first_failure": None})
        row["attempted"] += 1
        if reason is not None:
            row["failed"] += 1
            row["first_failure"] = row["first_failure"] or reason

    @property
    def attempted(self) -> int:
        return sum(r["attempted"] for r in self.kinds.values())

    @property
    def failed(self) -> int:
        return sum(r["failed"] for r in self.kinds.values() if not r["known_defect"])

    @property
    def fail_ratio(self) -> float:
        return sum(r["failed"] for r in self.kinds.values()) / max(self.attempted, 1)


# -- environment ---------------------------------------------------------------

class Context:
    """Where the program lives and how its processes are started."""

    def __init__(self, root: Path, traced: bool):
        self.root = root
        self.traced = traced
        self.python = sys.executable
        self.bench_dir = BENCH_DIR.relative_to(root) if BENCH_DIR.is_relative_to(root) else BENCH_DIR
        src = root / "src"
        self.child_env = dict(os.environ)
        self.child_env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        work_root = root / self.bench_dir / "_work"
        work_root.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=work_root)).relative_to(root)
        self.child_traces: list[dict] = []

    def close(self) -> None:
        shutil.rmtree(self.root / self.workdir, ignore_errors=True)


def _import_program(root: Path):
    """Import sfm from the checkout's src/, refusing any other copy."""
    src = root / "src"
    if not (src / "sfm" / "__init__.py").is_file() or not (root / "pyproject.toml").is_file():
        raise BenchError(f"no sfm program under {root} (src/sfm, pyproject.toml)")
    sys.path.insert(0, str(src))
    import sfm

    if not Path(sfm.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"imported sfm from {sfm.__file__}, not from {src}")


def measure_setup(ctx: Context) -> float:
    """One fresh interpreter to ready: import sfm, load and estimate the bundled CSV."""
    code = SETUP_CODE.format(path="data/mp_1889_1978.csv")
    start = time.perf_counter()
    with subprocess.Popen([ctx.python, "-c", code], stdout=subprocess.PIPE,
                          env=ctx.child_env) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"set-up process failed (exit {proc.returncode})")
    return elapsed


# -- machine speed -------------------------------------------------------------

# Seconds one speed probe takes on the reference machine (see DESIGN.md), without
# and with its bare interpreter start. Timings are reported at that speed.
PROBE_REFERENCE_S = {False: 0.0065, True: 0.019}
_PROBE_VECTOR = None


def speed_probe(spawn: bool) -> float:
    """Seconds for a fixed piece of work that calls nothing of sfm.

    It does what the workloads spend their time on: interpreted bytecode,
    small numpy calls, passes over an array and, with ``spawn``, a bare
    interpreter start. Taken in this process between ops, on the core the
    ops run on, it measures how fast the shared machine runs at the time.
    """
    import numpy as np

    global _PROBE_VECTOR
    if _PROBE_VECTOR is None:
        _PROBE_VECTOR = np.linspace(-1.0, 1.0, 1 << 16)
    small = np.eye(3) + 0.1
    start = time.perf_counter()
    total = 0.0
    for i in range(18000):
        total += (i % 7) * 0.5
    for _ in range(450):
        total += float(np.linalg.norm(small @ small))
    for _ in range(4):
        total += float(np.exp(_PROBE_VECTOR).sum()) + float(np.sort(_PROBE_VECTOR[::-1])[0])
    if spawn:
        subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
    return time.perf_counter() - start


def at_reference_speed(seconds: float, probe_s: float, spawn: bool) -> float:
    """A timing scaled by the probe seconds measured around it."""
    return seconds * PROBE_REFERENCE_S[spawn] / probe_s


def provenance(root: Path) -> dict:
    """Machine and program facts recorded beside every result (not gated)."""
    import numpy

    info = {"cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    fields = dict(line.split(":", 1) for line in lscpu.splitlines() if ":" in line)
    for key, name in (("cpu_model", "Model name"), ("l2", "L2 cache"), ("l3", "L3 cache")):
        info[key] = fields.get(name, "").strip() or None
    info["blas_threads"] = {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
        info["git_commit"] = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        info["git_commit"] = None
    info["src_lines"] = sum(len(p.read_text().splitlines())
                            for p in sorted((root / "src").rglob("*.py")))
    return info


# -- metrics -------------------------------------------------------------------

def end_to_end_metrics(setup: list[float], latencies: list[float], rss_kb: int) -> dict:
    """``setup`` and ``latencies`` in seconds, as measured or at reference speed."""
    lat_ms = [s * 1e3 for s in latencies]
    tail, _ = tail_percentile(lat_ms)
    return {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail,
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def throughputs(works: list[dict]) -> dict:
    """Work per second of time spent on it, where the workload does that work."""
    total: dict[str, float] = {}
    for work in works:
        for key, value in work.items():
            total[key] = total.get(key, 0.0) + value
    out = {}
    for name, count, seconds in (("solves_per_s", "solves", "solve_s"),
                                 ("manifold_points_per_s", "points", "manifold_s"),
                                 ("mc_draws_per_s", "pairs", "mc_s")):
        if total.get(seconds):
            out[name] = total[count] / total[seconds]
    return out


def layer_metrics(snap: dict, ops: int, children: list[dict], mismatches: int) -> dict:
    calls, busy, self_ns, counts = (snap.get(k, {}) for k in ("calls", "busy_ns", "self_ns", "counts"))

    def per_op(value):
        return value / ops

    def ratio(num, den):
        return num / den if den else 0.0

    def ms(table, name):
        return per_op(table.get(name, 0)) / 1e6

    solves = calls.get("solver.solve", 0)
    points = counts.get("solver.manifold_points", 0)
    draws = counts.get("mc.draws_requested", 0)
    metrics = {
        "dataset.load_series.calls": per_op(calls.get("dataset.load_series", 0)),
        "dataset.load_series.busy_ms": ms(busy, "dataset.load_series"),
        "dataset.rows_loaded": per_op(counts.get("dataset.rows_loaded", 0)),
        "dataset.growth_series.busy_ms": ms(busy, "dataset.growth_series"),
        "moments.estimate_moments.calls": per_op(calls.get("moments.estimate_moments", 0)),
        "moments.estimate_moments.busy_ms": ms(busy, "moments.estimate_moments"),
        "model.residual_array.calls": per_op(calls.get("model.residual_array", 0)),
        "model.residual_array.busy_ms": ms(busy, "model.residual_array"),
        "model.jacobian_array.calls": per_op(calls.get("model.jacobian_array", 0)),
        "model.jacobian_array.busy_ms": ms(busy, "model.jacobian_array"),
        "solver.solve.calls": per_op(solves),
        "solver.solve.self_ms": ms(self_ns, "solver.solve"),
        "solver.iterations": ratio(counts.get("solver.iterations", 0), solves),
        "solver.step_accept_ratio": ratio(counts.get("solver.accepted_steps", 0),
                                          counts.get("solver.residual_evals", 0)),
        "solver.floor_hit_ratio": ratio(counts.get("solver.floor_hits", 0), solves),
        "solver.trace_manifold.self_ms": ms(self_ns, "solver.trace_manifold"),
        "solver.manifold_points": per_op(points),
        "solver.us_per_point": ratio(busy.get("solver.trace_manifold", 0) / 1e3, points),
        "solver.rank_diagnostics.busy_ms": ms(busy, "solver.rank_diagnostics"),
        "mc.validate_identities.busy_ms": ms(busy, "mc.validate_identities"),
        "mc.sample_pairs.calls": per_op(calls.get("mc.sample_pairs", 0)),
        "mc.sample_pairs.busy_ms": ms(busy, "mc.sample_pairs"),
        "mc.draws_requested": per_op(draws),
        "mc.unique_stream_ratio": ratio(len(snap.get("streams", ())), calls.get("mc.sample_pairs", 0)),
        "mc.ns_per_pair_draw": ratio(busy.get("mc.sample_pairs", 0), draws),
        "classify.build_reports.calls": per_op(calls.get("classify.build_reports", 0)),
        "classify.build_reports.busy_ms": ms(busy, "classify.build_reports"),
        "cli.process_wall_ms": ratio(sum(c["wall_ms"] for c in children), len(children)),
        "cli.import_ms": ratio(sum(c["import_ns"] for c in children) / 1e6, len(children)),
        "cli.run_command.busy_ms": ms(busy, "cli.run_command"),
        "cli.to_json.busy_ms": ms(busy, "cli.to_json"),
        "cli.stdout_bytes": ratio(sum(c["stdout_bytes"] for c in children), len(children)),
        "cli.exit_code_mismatches": per_op(mismatches),
    }
    return metrics


# -- driving a workload ----------------------------------------------------------

def _checked(workload, op, result) -> str | None:
    try:
        return workload.check(op, result)
    except Exception as exc:  # a malformed output is a failed op, not a crash
        return f"output check raised {exc!r}"


def block_count(workload, seconds: float) -> int:
    """Blocks that take ``seconds`` of op time on the reference machine.

    The count depends on ``--seconds`` only, never on how fast the program
    runs, so every commit times the same ops and the tail keeps its rank.
    """
    return max(1, round(seconds / workload.block_seconds))


def run_ops(workload, blocks: int, seconds: float, tally: Tally, setups: int, take_setup, probe):
    """The closed loop: ``blocks`` whole blocks of ops, checked as they complete.

    ``take_setup`` is called ``setups`` times, spread evenly between the
    blocks, so the set-up median sees the same machine as the ops. ``probe``
    is taken before the first op and after each op; an op's speed is the
    mean of the probes on either side of it. Returns the op seconds, the
    ops' work counts and their speeds.
    """
    latencies, works, speeds = [], [], []
    due = [i * blocks // setups for i in range(setups)]     # block index of each sample
    taken = 0
    before = probe()
    for index, block in zip(range(blocks), workload.blocks()):
        if sum(latencies) >= MAX_SLOWDOWN * seconds:
            break
        while taken < setups and due[taken] <= index:
            take_setup()
            taken += 1
            before = probe()
        for op in block:
            result = workload.execute(op)
            after = probe()
            latencies.append(result.seconds)
            speeds.append(0.5 * (before + after))
            works.append(result.work)
            tally.record(op, _checked(workload, op, result))
            before = after
    for _ in range(setups - taken):
        take_setup()
    return latencies, works, speeds


def run_workload(name: str, seed: int, seconds: float, traced: bool, root: Path) -> dict:
    _import_program(root)
    import tracing
    import workloads

    ctx = Context(root, traced)
    setup, setup_raw = [], []

    def take_setup():
        before = speed_probe(True)
        elapsed = measure_setup(ctx)
        setup.append(at_reference_speed(elapsed, 0.5 * (before + speed_probe(True)), True))
        setup_raw.append(elapsed)

    try:
        take_setup()
        workload = workloads.WORKLOADS[name](ctx, seed)
        tally = Tally()
        warm = workload.warmup_op()
        tally.record(warm, _checked(workload, warm, workload.execute(warm)))
        ctx.child_traces.clear()
        warm_mismatches = getattr(workload, "exit_code_mismatches", 0)
        blocks = block_count(workload, seconds)
        tracer = tracing.Tracer()
        if traced and not workload.runs_in_children:
            tracer.install()
        try:
            spawn = workload.runs_in_children
            latencies, works, speeds = run_ops(workload, blocks, seconds, tally, SETUP_REPEATS - 1,
                                               take_setup, lambda: speed_probe(spawn))
        finally:
            tracer.uninstall()
        who = resource.RUSAGE_CHILDREN if workload.runs_in_children else resource.RUSAGE_SELF
        rss_kb = resource.getrusage(who).ru_maxrss
        scaled = [at_reference_speed(s, v, spawn) for s, v in zip(latencies, speeds)]
        e2e = end_to_end_metrics(setup, scaled, rss_kb)
        e2e_raw = end_to_end_metrics(setup_raw, latencies, rss_kb)
        layers = None
        if traced:
            snap = tracing.merge(ctx.child_traces) if workload.runs_in_children else tracer.snapshot()
            layers = layer_metrics(snap, len(latencies), ctx.child_traces,
                                   getattr(workload, "exit_code_mismatches", 0) - warm_mismatches)
        _, tail_pct = tail_percentile(latencies)
        return {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
            "blocks": blocks, "ops_timed": len(latencies), "measured_s": sum(latencies),
            "tail_percentile": tail_pct, "setup_samples_s": setup_raw,
            "probe_median_s": statistics.median(speeds), "end_to_end_as_measured": e2e_raw,
            "end_to_end": e2e, "throughput": throughputs(works), "per_layer": layers,
            "attempted": tally.attempted, "failed": tally.failed,
            "fail_ratio": tally.fail_ratio, "by_kind": tally.kinds,
            "provenance": provenance(root),
        }
    finally:
        ctx.close()


def result_line(details: dict) -> dict:
    traced = details["trace"] == 1
    values = details["per_layer"] if traced else details["end_to_end"]
    units = PER_LAYER if traced else END_TO_END
    return {
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k][0]} for k in units},
    }


def report(details: dict) -> list[str]:
    lines = [f"perfbench {details['workload']} seed={details['seed']} trace={details['trace']} "
             f"blocks={details['blocks']} ops={details['ops_timed']} "
             f"measured={details['measured_s']:.2f}s "
             f"probe={1e3 * details['probe_median_s']:.3f}ms",
             f"  {'at reference speed':>49}  as measured"]
    for name, value in details["end_to_end"].items():
        note = f"  (p{details['tail_percentile']:.1f} of {details['ops_timed']} ops)" \
            if name == "op_tail_ms" else ""
        measured = details["end_to_end_as_measured"][name]
        lines.append(f"  {name:<34} {value:>14.6g} {measured:>12.6g} {END_TO_END[name][0]}{note}")
    for name, value in details["throughput"].items():
        lines.append(f"  {name:<34} {value:>14.6g} 1/s")
    lines.append(f"  {'fail_ratio':<34} {details['fail_ratio']:>14.6g} "
                 f"(unexpected failures {details['failed']} of {details['attempted']})")
    for kind, row in sorted(details["by_kind"].items()):
        flag = "  known defect" if row["known_defect"] else ""
        why = f"  first: {row['first_failure']}" if row["first_failure"] else ""
        lines.append(f"    {kind:<22} {row['failed']:>4} failed of {row['attempted']:>5}{flag}{why}")
    for name, value in (details["per_layer"] or {}).items():
        lines.append(f"  {name:<34} {value:>14.6g} {PER_LAYER[name][0]}")
    return lines


# -- all workloads, traced and untraced ------------------------------------------

def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced; prints the tracing overhead."""
    ok = True
    for name in WORKLOAD_NAMES:
        runs = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            details = [json.loads(line[len(DETAILS_TAG):]) for line in lines
                       if line.startswith(DETAILS_TAG)]
            if proc.returncode != 0 or not details:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            runs.append(details[0])
            print("\n".join(report(details[0])))
            ok = ok and details[0]["failed"] == 0
        print(f"tracing overhead on {name}:")
        for metric, (unit, _) in END_TO_END.items():
            plain, traced = runs[0]["end_to_end"][metric], runs[1]["end_to_end"][metric]
            print(f"  {metric:<20} untraced {plain:>12.6g}  traced {traced:>12.6g} {unit:<4}"
                  f"  difference {100.0 * (traced - plain) / plain:+.1f}%")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if args.workload == "all":
            _import_program(root)
            return run_all(args.seed, args.seconds)
        details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report(details)))
    print(DETAILS_TAG + json.dumps(details))
    print(json.dumps(result_line(details)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
