"""Self-tests of the benchmark (not of sfm). Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run._import_program(ROOT)

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def in_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _context(traced=False):
    return run.Context(ROOT, traced)


# -- tail percentile -------------------------------------------------------------

def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct = run.tail_percentile(range(1, 101))
    assert (value, pct) == (90, 90.0)          # 91..100 lie beyond it
    value, pct = run.tail_percentile(list(range(1, 21))[::-1])
    assert (value, pct) == (10, 50.0)          # order of the input is irrelevant
    value, pct = run.tail_percentile(range(11))
    assert (value, pct) == (0, 100.0 / 11)


def test_tail_counts_ties_by_rank_and_degrades_below_eleven_samples():
    assert run.tail_percentile([5.0] * 30) == (5.0, 100.0 * 20 / 30)
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (1.0, 0.0)
    with pytest.raises(ValueError):
        run.tail_percentile([])


# -- the schedule does not depend on the program's speed ------------------------

def _modelled_seconds(op) -> float:
    """A rough op cost on the reference machine, from the op's sizes."""
    if op.kind == "calibrate":
        return 0.07 + 2.5e-5 * op.args[2][2]
    if op.kind == "sample_pairs":
        return 2e-8 * op.args[0] * (4 + len(op.args[2]))
    if isinstance(op.args[0], int):             # mc_oracle validate_identities(n, seed)
        return 9 * 1.2e-7 * op.args[0]
    steps = int(op.args[op.args.index("--steps") + 1]) if "--steps" in op.args else 0
    return 0.25 + 1e-4 * steps                  # one sfm process


class _Modelled:
    """A workload's real schedule, with ops that take a modelled time instead of running."""

    def __init__(self, workload, slowdown: float):
        self.workload, self.slowdown = workload, slowdown
        self.block_seconds = workload.block_seconds

    def blocks(self):
        return self.workload.blocks()

    def execute(self, op):
        return workloads.Result(self.slowdown * _modelled_seconds(op))

    @staticmethod
    def check(op, result):
        return None


def _modelled_run(name, slowdown, seconds=30.0, machine=1.0):
    """A modelled run; ``slowdown`` slows the program, ``machine`` the program and the probe."""
    ctx = _context()
    try:
        workload = _Modelled(workloads.WORKLOADS[name](ctx, 5), slowdown * machine)
        blocks = run.block_count(workload, seconds)
        setups = []
        latencies, _, speeds = run.run_ops(workload, blocks, seconds, run.Tally(), 6,
                                           lambda: setups.append(None), lambda: 0.01 * machine)
        assert len(setups) == 6                  # every set-up sample is taken
        scaled = [run.at_reference_speed(s, v, False) for s, v in zip(latencies, speeds)]
        return latencies, run.end_to_end_metrics([0.2], scaled, 1024)
    finally:
        ctx.close()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_a_uniform_slowdown_worsens_every_timing_by_its_factor(in_root, name):
    base_lat, base = _modelled_run(name, 1.0)
    slow_lat, slow = _modelled_run(name, 1.2)
    assert len(slow_lat) == len(base_lat)       # the same ops, however slow they run
    assert slow["op_tail_ms"] == pytest.approx(1.2 * base["op_tail_ms"])
    assert slow["op_p50_ms"] == pytest.approx(1.2 * base["op_p50_ms"])
    assert slow["ops_per_s"] == pytest.approx(base["ops_per_s"] / 1.2)


def test_a_machine_slowdown_that_hits_the_probe_alike_cancels(in_root):
    _, base = _modelled_run("mc_oracle", 1.0)
    _, slow_machine = _modelled_run("mc_oracle", 1.0, machine=1.3)
    for name in ("op_p50_ms", "op_tail_ms", "ops_per_s"):
        assert slow_machine[name] == pytest.approx(base[name])


def test_the_speed_probe_with_a_spawn_adds_an_interpreter_start():
    assert 0 < run.speed_probe(False) < run.speed_probe(True)


def test_a_run_stops_early_only_when_far_slower_than_the_reference(in_root):
    base_lat, _ = _modelled_run("calibrate", 1.0)
    slow_lat, _ = _modelled_run("calibrate", 2 * run.MAX_SLOWDOWN)
    assert len(slow_lat) < len(base_lat)
    # it stops at the first block boundary past the limit
    assert sum(slow_lat[:-workloads.CALIBRATE_BLOCK]) < run.MAX_SLOWDOWN * 30.0 <= sum(slow_lat)


# -- failure counting ------------------------------------------------------------

def test_fail_ratio_counts_known_defects_but_failed_does_not():
    tally = run.Tally()
    good = workloads.Op("solve", ())
    known = workloads.Op("bad_tau_nan", (), expect_code=1, known_defect=True)
    bad = workloads.Op("bad_year_gap", (), expect_code=2)
    for _ in range(7):
        tally.record(good, None)
    tally.record(good, "norm misses the floor")
    tally.record(known, "exit 0, documented 1")
    tally.record(bad, None)
    assert tally.attempted == 10
    assert tally.failed == 1                    # unexpected failures only
    assert tally.fail_ratio == pytest.approx(0.2)
    assert tally.kinds["solve"]["first_failure"] == "norm misses the floor"
    assert tally.kinds["bad_tau_nan"] == {"attempted": 1, "failed": 1, "known_defect": True,
                                         "first_failure": "exit 0, documented 1"}


def test_exit_code_mismatches_are_reported_per_op():
    metrics = run.layer_metrics({}, 40, [], 4)
    assert metrics["cli.exit_code_mismatches"] == pytest.approx(0.1)


def test_benchmark_json_lists_every_workload_and_metric():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for listed, table in ((spec["end_to_end"], run.END_TO_END), (spec["per_layer"], run.PER_LAYER)):
        for metric in listed:
            assert (metric["unit"], metric["better"]) == table[metric["name"]]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


# -- determinism of the generated inputs -------------------------------------------

def _schedule(name, seed, blocks=3):
    ctx = _context()
    try:
        workload = workloads.WORKLOADS[name](ctx, seed)
        gen = workload.blocks()
        ops = [workload.warmup_op()] + [op for _ in range(blocks) for op in next(gen)]
        files = {p.name: p.read_bytes() for p in sorted((ROOT / ctx.workdir).iterdir())}
        prefix = str(ctx.workdir)
        ops = [json.loads(json.dumps(op.args, default=repr).replace(prefix, "<work>")) for op in ops]
        return ops, files
    finally:
        ctx.close()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_gives_the_same_inputs(in_root, name):
    first = _schedule(name, 7)
    assert first == _schedule(name, 7)
    assert first != _schedule(name, 8)


def test_stratified_sizes_cover_every_stratum():
    rng = workloads.np.random.default_rng(0)
    values = workloads.stratified(rng, 1e4, 2e6, 4)
    edges = workloads.np.geomspace(1e4, 2e6, 5)
    assert sorted(int(workloads.np.searchsorted(edges, v)) for v in values) == [1, 2, 3, 4]


# -- tracing leaves outputs unchanged ------------------------------------------------

def _outputs(name, seed, traced, count):
    ctx = _context(traced)
    tracer = tracing.Tracer()
    try:
        workload = workloads.WORKLOADS[name](ctx, seed)
        ops = [op for op in next(workload.blocks())][:count]
        if traced and not workload.runs_in_children:
            tracer.install()
        try:
            results = [workload.execute(op) for op in ops]
        finally:
            tracer.uninstall()
        assert all(workload.check(op, r) is None or op.known_defect for op, r in zip(ops, results))
        return [workload.digest(r) for r in results], tracer, ctx.child_traces
    finally:
        ctx.close()


@pytest.mark.parametrize("name,count,span", [("calibrate", 1, "solver.solve"),
                                             ("mc_oracle", 8, "mc.sample_pairs"),
                                             ("cli_session", 10, "cli.run_command")])
def test_traced_and_untraced_runs_give_identical_outputs(in_root, name, count, span):
    plain, _, _ = _outputs(name, 11, False, count)
    traced, tracer, children = _outputs(name, 11, True, count)
    assert plain == traced
    snap = tracing.merge(children) if children else tracer.snapshot()
    assert snap["calls"][span] >= 1            # the traced run did record spans


def test_tracer_restores_the_original_functions(in_root):
    import sfm

    before = (sfm.solver.residual_array, sfm.cli.solve, sfm.solve)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sfm.solver.residual_array is not before[0]
        growth = sfm.growth_series(sfm.load_series("data/mp_1889_1978.csv"))
        sfm.solve(sfm.estimate_moments(growth))
    finally:
        tracer.uninstall()
    assert (sfm.solver.residual_array, sfm.cli.solve, sfm.solve) == before
    assert tracer.calls["solver.solve"] == 1
    assert tracer.counts["solver.floor_hits"] == 1
    assert tracer.self_ns["solver.solve"] < tracer.busy_ns["solver.solve"]


# -- the benchmark refuses to run without the program ---------------------------------

def test_exits_nonzero_without_a_program():
    (BENCH_DIR / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "_work") as empty:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", "calibrate",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=empty, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
