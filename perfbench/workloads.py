"""Seeded inputs, op schedules, executors and output oracles of the workloads.

Every workload is a closed loop with one client: ``blocks()`` yields lists of
ops forever, and a run takes a fixed number of them (``block_seconds`` is one
block's op time on the reference machine). ``execute(op)`` runs one op and
times only the program's work; ``check(op, result)`` returns ``None`` or the
reason the op failed. Inputs come only from the seed; the same seed gives the
same files and ops.

Op sizes are stratified: each block draws one value from each of several
equal strata of the size range (log scale), in seeded order, so every run
sees the same spread of sizes whatever the seed.
"""

from __future__ import annotations

import csv
import json
import math
import re
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sfm

BUNDLED_CSV = Path("data") / "mp_1889_1978.csv"
MC_FIXTURE = Path("tests") / "data" / "mc_validation_1e6_seed42.json"
CSV_HEADER = ["year", "consumption", "equity_return", "riskfree_return"]

TOL = 1e-9          # residual invariants: floor, zeroed rows, r5 = -gap
Z_SANITY = 6.0      # an MC estimate further than this many SE is a defect
STRATUM_SPREAD = 0.25  # share of each stratum a seeded size may fall in


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    expect_code: int = 0
    known_defect: bool = False


@dataclass
class Result:
    seconds: float
    output: object = None
    error: str | None = None
    work: dict = field(default_factory=dict)


def stratified(rng, lo: float, hi: float, count: int, log: bool = True) -> list[float]:
    """``count`` values, one from the middle of each equal stratum of [lo, hi]."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    width = (b - a) / count
    offsets = 0.5 + STRATUM_SPREAD * (rng.random(count) - 0.5)
    values = a + (rng.permutation(count) + offsets) * width
    return [math.exp(v) if log else float(v) for v in values]


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(text):
    """Parse JSON, refusing the NaN/Infinity tokens that standard JSON lacks."""
    return json.loads(text, parse_constant=_reject_constant)


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def write_rows(path: Path, rows) -> str:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    return str(path)


def bootstrap_rows(rows, rng) -> list[list[str]]:
    """Resample the years' (growth, returns) observations with replacement.

    Consumption is re-chained from the first year's level, so the variant is
    a valid consecutive-year series with the same years as the original.
    """
    level = np.array([float(r[1]) for r in rows])
    growth = level[1:] / level[:-1]
    pick = rng.integers(0, len(growth), len(growth))
    chained = level[0] * np.cumprod(growth[pick])
    out = [list(rows[0])]
    for year, c, j in zip((r[0] for r in rows[1:]), chained, pick):
        out.append([year, repr(float(c)), rows[j + 1][2], rows[j + 1][3]])
    return out


def _options(eq3: str, lnex: str):
    return sfm.ModelOptions(eq3_variant=eq3, lnex_mode=lnex)


def _manifold_violation(points, gap_eff: float) -> str | None:
    """First point (dict of tau, r2..r5) breaking r2 = r3 = r4 = 0, r5 = -gap."""
    for r in points:
        if not max(abs(r["r2"]), abs(r["r3"]), abs(r["r4"])) <= TOL:
            return f"tau={r.get('tau')}: |r2|,|r3|,|r4| exceed {TOL}"
        if not abs(r["r5"] + gap_eff) <= TOL:
            return f"tau={r.get('tau')}: r5={r['r5']} != -gap={-gap_eff}"
    return None


# --------------------------------------------------------------------------
# cli_session: one fresh `sfm` process per op.

CLI_ROUND = ("moments", "solve", "solve", "solve", "manifold", "manifold",
             "classify", "classify", "validate", "bad")

# kind -> (documented exit code, known defect when this benchmark was written)
BAD_KINDS = {
    "bad_malformed_row": (2, False),
    "bad_year_gap": (2, False),
    "bad_missing_file": (2, False),
    "bad_steps_zero": (1, False),
    "bad_inf_return": (2, True),
    "bad_tau_nan": (1, True),
    "bad_seed_negative": (1, True),
}

_SWITCH_LNEX = {"arithmetic": "arithmetic", "lognormal": "lognormal_implied"}

# Runs one command the way the ``sfm`` console script (``sfm.cli:main``) does.
ENTRY_CODE = "import sys; sys.argv[0] = 'sfm'; from sfm.cli import main; sys.exit(main())"


class CliSession:
    name = "cli_session"
    runs_in_children = True     # ops are processes: trace them via shim.py
    block_seconds = 2.5         # op time of one block on the reference machine

    def __init__(self, ctx, seed: int):
        self.ctx = ctx
        self.rng = np.random.default_rng([seed, 1])
        work = ctx.workdir
        rows = read_rows(BUNDLED_CSV)
        self.datasets = [str(BUNDLED_CSV)] + [
            write_rows(work / f"resampled_{i}.csv", bootstrap_rows(rows, self.rng))
            for i in range(3)
        ]
        row = int(self.rng.integers(10, len(rows) - 10))
        malformed = [list(r) for r in rows]
        malformed[row] = malformed[row][:3]
        gap = rows[:row] + rows[row + 1:]
        inf = [list(r) for r in rows]
        inf[row][2] = "inf"
        self.bad_files = {
            "malformed": write_rows(work / "malformed_row.csv", malformed),
            "gap": write_rows(work / "year_gap.csv", gap),
            "inf": write_rows(work / "inf_return.csv", inf),
            "missing": str(work / "missing.csv"),
        }
        self._bad_cycle: list[str] = []
        self._oracle: dict = {}
        self.exit_code_mismatches = 0

    # -- schedule ------------------------------------------------------------

    def warmup_op(self) -> Op:
        return Op("moments", ("moments", "--data", self.datasets[0]))

    def blocks(self):
        while True:
            yield self._round()

    def _round(self) -> list[Op]:
        rng = self.rng
        steps = iter(stratified(rng, 20, 4000, 2))
        ops = []
        for kind in rng.permutation(CLI_ROUND):
            kind = str(kind)
            if kind == "bad":
                ops.append(self._bad_op())
                continue
            data = _pick(rng, self.datasets)
            if kind == "moments":
                args = ("moments", "--data", data, "--variance", _pick(rng, ("sample", "population")))
            elif kind == "solve":
                start = (rng.uniform(0.9, 1.0), rng.uniform(0.8, 1.2),
                         rng.uniform(0.8, 1.2), rng.uniform(0.5, 5.0))
                args = ("solve", "--data", data,
                        "--beta0", repr(start[0]), "--omega0", repr(start[1]),
                        "--delta0", repr(start[2]), "--tau0", repr(start[3]),
                        *self._switches(), "--format", _pick(rng, ("table", "json")))
            elif kind == "manifold":
                args = ("manifold", "--data", data,
                        "--tau-min", repr(rng.uniform(0.1, 1.0)),
                        "--tau-max", repr(rng.uniform(3.0, 8.0)),
                        "--steps", str(int(next(steps))), *self._switches())
            elif kind == "classify":
                args = ("classify", "--data", data,
                        "--year", str(int(rng.integers(1889, 1979))),
                        "--beta", repr(rng.uniform(0.9, 1.0)),
                        "--tau", repr(rng.uniform(0.5, 5.0)),
                        "--sfom-equity", repr(rng.uniform(0.9, 1.1)),
                        "--sfom-riskfree", repr(rng.uniform(0.9, 1.1)),
                        "--format", _pick(rng, ("table", "json")))
            else:
                draws = int(stratified(rng, 1e4, 1e5, 1)[0])
                args = ("validate", "--draws", str(draws),
                        "--seed", str(int(rng.integers(0, 2**31))))
            ops.append(Op(kind, args))
        return ops

    def _switches(self) -> tuple:
        rng = self.rng
        return ("--eq3", _pick(rng, ("printed", "rederived")),
                "--lnex", _pick(rng, ("arithmetic", "lognormal")),
                "--variance", _pick(rng, ("sample", "population")))

    def _bad_op(self) -> Op:
        if not self._bad_cycle:
            self._bad_cycle = [str(k) for k in self.rng.permutation(list(BAD_KINDS))]
        kind = self._bad_cycle.pop()
        bundled, files = self.datasets[0], self.bad_files
        args = {
            "bad_malformed_row": ("moments", "--data", files["malformed"]),
            "bad_year_gap": ("solve", "--data", files["gap"], "--format", "json"),
            "bad_missing_file": ("classify", "--data", files["missing"], "--year", "1977",
                                 "--beta", "0.95", "--tau", "2", "--sfom-equity", "1.01",
                                 "--sfom-riskfree", "1.02"),
            "bad_steps_zero": ("manifold", "--data", bundled, "--tau-min", "0.5",
                               "--tau-max", "5", "--steps", "0"),
            "bad_inf_return": ("moments", "--data", files["inf"]),
            "bad_tau_nan": ("manifold", "--data", bundled, "--tau-min", "0.5",
                            "--tau-max", "nan", "--steps", "50"),
            "bad_seed_negative": ("validate", "--draws", "10000", "--seed", "-1"),
        }[kind]
        code, known = BAD_KINDS[kind]
        return Op(kind, args, expect_code=code, known_defect=known)

    # -- execution -------------------------------------------------------------

    def execute(self, op: Op) -> Result:
        ctx = self.ctx
        env = dict(ctx.child_env)
        if ctx.traced:
            trace_file = ctx.workdir / "op_trace.json"
            env["PERFBENCH_TRACE_OUT"] = str(trace_file)
            argv = [ctx.python, str(ctx.bench_dir / "shim.py"), *op.args]
        else:
            argv = [ctx.python, "-c", ENTRY_CODE, *op.args]
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True)
        seconds = time.perf_counter() - start
        result = Result(seconds, (proc.returncode, proc.stdout, proc.stderr))
        if ctx.traced:
            snapshot = json.loads(trace_file.read_text())
            trace_file.unlink()
            snapshot.update(wall_ms=seconds * 1e3, stdout_bytes=len(proc.stdout))
            ctx.child_traces.append(snapshot)
        return result

    @staticmethod
    def digest(result: Result):
        code, out, _err = result.output
        return code, out

    # -- oracles ---------------------------------------------------------------

    def check(self, op: Op, result: Result) -> str | None:
        code, out, err = result.output
        if code not in ((0, 3) if op.kind == "validate" else (op.expect_code,)):
            self.exit_code_mismatches += 1
        if op.kind.startswith("bad_"):
            if code != op.expect_code:
                return f"exit {code}, documented {op.expect_code}"
            if out:
                return "stdout not empty on a failing exit"
            return None
        if op.kind == "validate":
            return self._check_validate(op, code, out, err)
        if code != 0:
            return f"exit {code}: {err.decode(errors='replace').strip()[:200]}"
        arg = _options_of(op.args)
        text = out.decode()
        if op.kind == "moments":
            return self._check_moments(arg, strict_json(text))
        if op.kind == "solve":
            return self._check_solve(arg, text)
        if op.kind == "manifold":
            return self._check_manifold(arg, strict_json(text))
        return self._check_classify(arg, text)

    def _moments(self, data: str, variance: str):
        key = (data, variance)
        if key not in self._oracle:
            series = sfm.load_series(data)
            self._oracle[key] = (series, sfm.estimate_moments(sfm.growth_series(series), variance))
        return self._oracle[key]

    def _check_moments(self, arg: dict, doc: dict) -> str | None:
        _, m = self._moments(arg["--data"], arg.get("--variance", "sample"))
        expected = {name: getattr(m, name) for name in m.__dataclass_fields__}
        expected["gap"] = sfm.lognormality_gap(m)
        wrong = [k for k, v in expected.items() if doc.get(k) != v]
        return f"fields differ from estimate_moments: {wrong}" if wrong else None

    def _check_solve(self, arg: dict, text: str) -> str | None:
        _, m = self._moments(arg["--data"], arg["--variance"])
        floor = sfm.residual_floor(m, _options(arg["--eq3"], _SWITCH_LNEX[arg["--lnex"]]))
        if arg["--format"] == "json":
            doc = strict_json(text)
            norm, rank = doc["residuals"]["norm"], doc["rank"]
        else:
            norm = float(re.search(r"^norm (\S+)", text, re.M).group(1))
            rank = int(re.search(r"^rank (\d+)", text, re.M).group(1))
        if not abs(norm - floor) <= TOL:
            return f"norm {norm} misses the floor {floor}"
        if rank > 3:
            return f"rank {rank} > 3"
        return None

    def _check_manifold(self, arg: dict, doc: dict) -> str | None:
        points = doc["points"]
        if len(points) != int(arg["--steps"]):
            return f"{len(points)} points for {arg['--steps']} steps"
        gap_eff = 0.0 if arg["--lnex"] == "lognormal" else doc["gap"]
        return _manifold_violation(
            ({"tau": p["tau"], **p["residuals"]} for p in points), gap_eff)

    def _check_classify(self, arg: dict, text: str) -> str | None:
        series, _ = self._moments(arg["--data"], "sample")
        reports = sfm.build_reports(
            series, int(arg["--year"]), float(arg["--beta"]), float(arg["--tau"]),
            float(arg["--sfom-equity"]), float(arg["--sfom-riskfree"]))
        expected = [sfm.classify_attitude(r.certain_utility, r.uncertain_utility, r.sfom)
                    for r in reports]
        if arg["--format"] == "json":
            got = [r["label"] for r in strict_json(text)["reports"]]
        else:
            got = [re.split(r"\s{2,}", line.strip())[6] for line in text.splitlines()[1:]]
        if [g.lower() for g in got] != [e.lower() for e in expected]:
            return f"labels {got} != classify_attitude {expected}"
        return None

    @staticmethod
    def _check_validate(op: Op, code: int, out: bytes, err: bytes) -> str | None:
        # Exit 0 iff every identity passes (documented); a failing battery is
        # reported on stderr with exit 3 and is still a correct run.
        if code == 0:
            doc = strict_json(out)
        elif code == 3 and not out:
            doc = strict_json(err.decode().split("\n", 1)[1])
        else:
            return f"exit {code}"
        if doc["ok"] != (code == 0):
            return f"exit {code} with ok={doc['ok']}"
        arg = _options_of(op.args)
        if doc["draws"] != int(arg["--draws"]) or doc["seed"] != int(arg["--seed"]):
            return "draws/seed not echoed"
        return _validation_violation(
            [(c["closed_form"], c["sample"], c["std_error"], c["z"], c["ok"]) for c in doc["cases"]],
            doc["ok"])


def _options_of(args: tuple) -> dict:
    """``--flag value`` pairs of an argv (after the subcommand) as a dict."""
    return dict(zip(args[1::2], args[2::2]))


def _validation_violation(cases, ok: bool) -> str | None:
    if len(cases) != 27:
        return f"{len(cases)} identity checks, expected 27"
    for closed, sample, se, z, case_ok in cases:
        recomputed = abs(sample - closed) / se if se > 0 else (0.0 if sample == closed else math.inf)
        if not math.isclose(z, recomputed, rel_tol=1e-9, abs_tol=1e-12):
            return f"z={z} but |sample-closed|/se={recomputed}"
        if case_ok != (z <= 4.0):
            return f"ok={case_ok} disagrees with z={z}"
        if not z <= Z_SANITY:
            return f"z={z} beyond {Z_SANITY} SE"
    if ok != all(c[4] for c in cases):
        return "report ok disagrees with its cases"
    return None


# --------------------------------------------------------------------------
# calibrate: in-process calibration of seeded bootstrap variants.

SETTINGS = tuple((conv, eq3, lnex)
                 for conv in ("sample", "population")
                 for eq3 in ("printed", "rederived")
                 for lnex in ("arithmetic", "lognormal_implied"))
STARTS_PER_SETTING = 16
# Ops per block. Odd, so the median op lies inside a size class, not at the
# edge between two, where it would take the extremes of both.
CALIBRATE_BLOCK = 9
VARIANTS = 32
# Manifold grid sizes, one per log-stratum in each block: the largest ops form
# a class of their own, so the tail percentile measures them, not machine noise.
MIN_GRID, MAX_GRID = 2000, 16000


class Calibrate:
    name = "calibrate"
    runs_in_children = False
    block_seconds = 2.6

    def __init__(self, ctx, seed: int):
        self.rng = np.random.default_rng([seed, 2])
        rows = read_rows(BUNDLED_CSV)
        self.variants = [write_rows(ctx.workdir / f"variant_{i}.csv", bootstrap_rows(rows, self.rng))
                         for i in range(VARIANTS)]
        self._order: list[int] = []

    def warmup_op(self) -> Op:
        return self._op(self.variants[0], MAX_GRID)

    def blocks(self):
        while True:
            yield [self._op(self._next_variant(), steps)
                   for steps in stratified(self.rng, MIN_GRID, MAX_GRID, CALIBRATE_BLOCK)]

    def _next_variant(self) -> str:
        if not self._order:
            self._order = [int(i) for i in self.rng.permutation(VARIANTS)]
        return self.variants[self._order.pop()]

    def _op(self, path: str, steps: float) -> Op:
        rng = self.rng
        starts = tuple(
            (setting, (rng.uniform(0.9, 1.0), rng.uniform(0.8, 1.2),
                       rng.uniform(0.8, 1.2), rng.uniform(0.5, 5.0)))
            for setting in SETTINGS for _ in range(STARTS_PER_SETTING))
        grid = (rng.uniform(0.1, 1.0), rng.uniform(3.0, 8.0), int(steps))
        return Op("calibrate", (path, starts, grid, _pick(rng, SETTINGS)))

    def execute(self, op: Op) -> Result:
        path, starts, (tau_min, tau_max, steps), manifold_setting = op.args
        clock = time.perf_counter
        solve_s = 0.0
        start = clock()
        try:
            growth = sfm.growth_series(sfm.load_series(path))
            moments = {conv: sfm.estimate_moments(growth, conv) for conv in ("sample", "population")}
            solves = []
            for (conv, eq3, lnex), initial in starts:
                m, options = moments[conv], _options(eq3, lnex)
                cfg = sfm.SolverConfig(initial=sfm.ModelParams(*initial), options=options)
                t = clock()
                solution = sfm.solve(m, cfg)
                solve_s += clock() - t
                solves.append((m, options, solution, sfm.rank_diagnostics(m, solution.params, options)))
            conv, eq3, lnex = manifold_setting
            options = _options(eq3, lnex)
            t = clock()
            points = sfm.trace_manifold(moments[conv], np.linspace(tau_min, tau_max, steps), options)
            manifold_s = clock() - t
        except Exception as exc:  # an unexpected raise is an op failure
            return Result(clock() - start, error=repr(exc))
        seconds = clock() - start
        return Result(seconds, (solves, moments[conv], options, points),
                      work={"solves": len(solves), "solve_s": solve_s,
                            "points": len(points), "manifold_s": manifold_s})

    @staticmethod
    def digest(result: Result):
        solves, _, _, points = result.output
        return repr([(s[2], s[3]) for s in solves]), repr(points)

    def check(self, op: Op, result: Result) -> str | None:
        if result.error:
            return f"raised {result.error}"
        solves, m, options, points = result.output
        for m_s, opts, solution, report in solves:
            floor = sfm.residual_floor(m_s, opts)
            if not abs(solution.residuals.norm - floor) <= TOL:
                return f"solve norm {solution.residuals.norm} misses the floor {floor}"
            if max(solution.numerical_rank, report.numerical_rank) > 3:
                return "Jacobian rank > 3"
        if len(points) != op.args[2][2]:
            return f"{len(points)} manifold points for {op.args[2][2]} steps"
        gap_eff = 0.0 if options.lnex_mode == "lognormal_implied" else sfm.lognormality_gap(m)
        return _manifold_violation(
            ({"tau": p.tau, **vars(p.residuals)} for p in points), gap_eff)


# --------------------------------------------------------------------------
# mc_oracle: in-process Monte Carlo identity battery and many-power sampling.

# Log-space parameters of the bundled series; the one spec of sample_pairs ops.
PAIRS_SPEC = (0.0175, 0.0357, 0.0556, 0.1557, 0.4)
# Ops per block: 8 batteries and 9 sample_pairs calls. An odd total, so the
# median op lies inside a size class, not at the edge between two.
VALIDATE_STRATA, PAIRS_STRATA = 8, 9
MC_MIN_DRAWS, MC_MAX_DRAWS = 1e4, 2e6


class McOracle:
    name = "mc_oracle"
    runs_in_children = False
    block_seconds = 5.2

    def __init__(self, ctx, seed: int):
        self.rng = np.random.default_rng([seed, 3])
        self.spec = sfm.BivariateLogNormalSpec(*PAIRS_SPEC)

    def warmup_op(self) -> Op:
        return Op("fixture", (1_000_000, 42))

    def blocks(self):
        rng = self.rng
        while True:
            ops = [Op("validate", (int(n), int(rng.integers(0, 2**31))))
                   for n in stratified(rng, MC_MIN_DRAWS, MC_MAX_DRAWS, VALIDATE_STRATA)]
            # Larger n goes with more powers, so each op's cost has a fixed rank.
            counts = sorted(stratified(rng, 0.5, 16.5, PAIRS_STRATA, log=False))
            for n, k in zip(sorted(stratified(rng, MC_MIN_DRAWS, MC_MAX_DRAWS, PAIRS_STRATA)), counts):
                powers = tuple((rng.uniform(-4.0, 2.0), rng.uniform(0.5, 2.0))
                               for _ in range(int(round(k))))
                ops.append(Op("sample_pairs", (int(n), int(rng.integers(0, 2**31)), powers)))
            yield [ops[int(i)] for i in rng.permutation(len(ops))]

    def execute(self, op: Op) -> Result:
        clock = time.perf_counter
        start = clock()
        try:
            if op.kind == "sample_pairs":
                n, seed, powers = op.args
                output = sfm.sample_pairs(self.spec, n, seed, powers)
                pairs = n
            else:
                n, seed = op.args
                output = sfm.validate_identities(n, seed)
                pairs = 9 * n
        except Exception as exc:  # an unexpected raise is an op failure
            return Result(clock() - start, error=repr(exc))
        seconds = clock() - start
        return Result(seconds, output, work={"pairs": pairs, "mc_s": seconds})

    @staticmethod
    def digest(result: Result):
        return repr(result.output)

    def check(self, op: Op, result: Result) -> str | None:
        if result.error:
            return f"raised {result.error}"
        out = result.output
        if op.kind == "fixture":
            return _fixture_violation(out, MC_FIXTURE)
        if op.kind == "validate":
            if (out.draws, out.seed) != op.args:
                return "draws/seed not echoed"
            return _validation_violation(
                [(c.closed_form, c.sample, c.std_error, c.z, c.ok) for c in out.cases], out.ok)
        n, _seed, powers = op.args
        s = self.spec
        if out.n != n or len(out.power_covs) != len(powers):
            return "summary does not match the request"
        checks = [(out.mean_x, math.exp(s.mu_x + 0.5 * s.sigma_x**2), out.se_mean_x),
                  (out.mean_y, math.exp(s.mu_y + 0.5 * s.sigma_y**2), out.se_mean_y)]
        for (a, b), cov in zip(powers, out.power_covs):
            closed = sfm.lognormal_power_cov(a, b, s.mu_x, s.sigma_x, s.mu_y, s.sigma_y, s.rho)
            checks.append((cov.value, closed, cov.std_error))
        for sample, closed, se in checks:
            if not abs(sample - closed) <= Z_SANITY * se:
                return f"estimate {sample} is beyond {Z_SANITY} SE of {closed}"
        return None


def _fixture_violation(report, path: Path) -> str | None:
    """Compare with the golden 1e6-draw fixture at the suite's tolerances."""
    golden = json.loads(path.read_text())
    if not (report.ok and golden["ok"]) or len(report.cases) != len(golden["cases"]):
        return "report differs from the fixture"
    for case, frozen in zip(report.cases, golden["cases"]):
        if (case.name, case.kind, case.ok) != (frozen["name"], frozen["kind"], frozen["ok"]):
            return f"case {case.name}/{case.kind} differs from the fixture"
        for key, rel, abs_ in (("closed_form", 1e-12, 1e-15), ("sample", 1e-9, 1e-15),
                               ("z", 1e-6, 1e-9)):
            got, want = getattr(case, key), frozen[key]
            if not abs(got - want) <= max(rel * abs(want), abs_):
                return f"{case.name}/{case.kind}: {key} {got} != fixture {want}"
    return None


WORKLOADS = {w.name: w for w in (CliSession, Calibrate, McOracle)}
