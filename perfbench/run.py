"""Benchmark of the harmonictori library, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is taken from ``src/`` as it
stands; each run copies it into a private temp dir under ``.perfbench_tmp/``
(so its bytecode cache is written there and nowhere else), generates the
seeded job list, and runs it in fresh single-threaded interpreters:

- ``--trace 0``: five ``worker.py --setup`` interpreters that only time the
  import, then one worker that also runs the jobs; prints the end-to-end
  metrics.
- ``--trace 1``: one plain worker and one with module-boundary spans on the
  same jobs, plus one ``-X importtime`` import; prints the per-layer metrics.

Every timing is rescaled to a reference CPU speed by the probes of
``probe.py``.

Every output is checked after the timed phase.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}; the lines
before it describe the inputs and the checks.  Exits 1 without a result when
anything needed for a valid measurement is missing or breaks.
"""

import sys

sys.dont_write_bytecode = True  # the benchmark's own modules leave no caches

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "harmonictori"
WORKLOADS = ("leaf_sweep", "curve_census", "annulus_loop")
SETUP_SAMPLES = 5          # import-only interpreters per untraced run
TIME_LIMIT_S = 170.0       # whole run, every child process included


class RunError(RuntimeError):
    pass


def child_env(tmp: Path, workload: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env.update(
        PYTHONPATH=str(tmp / "src"),
        HARMONICTORI_CONFIG=str(HERE / "leaf.cfg") if workload == "leaf_sweep" else "",
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0", TMPDIR=str(tmp),
    )
    return env


def python(args: list[str], env: dict, tmp: Path, deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("time limit reached before a child process could start")
    try:
        proc = subprocess.run([sys.executable, *args], env=env, cwd=tmp,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"child process exceeded the time limit: {args[:2]}") from exc
    if proc.returncode != 0:
        raise RunError(f"child process {args[:2]} exited {proc.returncode}:\n"
                       + proc.stderr[-2000:])
    return proc


def make_jobs(workload: str, seed: int, seconds: float, tmp: Path) -> tuple[list, dict]:
    rng = random.Random(f"{workload}:{seed}")
    notes = {}
    if workload == "leaf_sweep":
        jobs = inputs.leaf_jobs(rng, seconds)
    elif workload == "annulus_loop":
        jobs = inputs.loop_jobs(rng, seconds)
    else:
        # spectral curves are solved from (p, q, k, angle) by the library
        # itself, here in the parent, so the worker only sees branch points
        sys.path.insert(0, str(tmp / "src"))
        from harmonictori import inverse_coords, solve_level
        jobs, notes["generation_redraws"] = inputs.curve_jobs(
            rng, seconds, solve_level, inverse_coords)
    notes.update(inputs.properties(workload, jobs), digest=inputs.digest(jobs))
    return jobs, notes


def worker(trace: bool, env: dict, tmp: Path, deadline: float) -> dict:
    result = tmp / f"result-{int(trace)}.json"
    python([str(HERE / "worker.py"), str(tmp / "inputs.json"), str(result), str(int(trace))],
           env, tmp, deadline)
    return json.loads(result.read_text())


def tail_rank(n: int) -> tuple[int, int]:
    """Highest whole percentile with at least ten samples above it, and the
    1-based nearest rank that gives it; the maximum when n <= 10."""
    if n <= 10:
        return 100, n
    pct = 100 * (n - 10) // n
    return pct, -(-pct * n // 100)


def normalized(seconds: float, probes_ms: list[float]) -> float:
    """A measured time rescaled to the probe's reference speed (probe.py)."""
    return seconds * probe.REFERENCE_MS * len(probes_ms) / sum(probes_ms)


def op_times(result: dict) -> list[float]:
    """Normalized seconds of each job."""
    return [normalized(s, p) for s, p in zip(result["op_s"], result["op_probe_ms"])]


def end_to_end(plain: dict, setup: list[dict]) -> dict:
    ops = op_times(plain)
    op_ms = sorted(1000.0 * s for s in ops)
    n, bad = len(op_ms), len(plain["failed"])
    busy_s = sum(ops)
    _, rank = tail_rank(n)
    return {
        "setup_s": (statistics.median(normalized(s["setup_s"], s["probe_ms"]) for s in setup), "s"),
        "ops_per_s": ((n - bad) / busy_s, "1/s"),
        "points_per_s": (plain["points"] / busy_s, "1/s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_tail": (op_ms[rank - 1], "ms"),
        "ok_frac": ((n - bad) / n, "ratio"),
        "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
    }


def per_layer(plain: dict, traced: dict, scipy_s: float) -> dict:
    """Per-module figures of the traced run; span times are rescaled to the
    probe's reference speed by the run's mean probe, like every timing."""
    tr = traced["trace"]
    stats = tr["stats"]
    probes = [x for p in traced["op_probe_ms"] for x in p]
    speed = normalized(1.0, probes)

    def get(name, field):
        value = stats.get(name, [0, 0.0, 0.0])[("calls", "total", "self").index(field)]
        return value if field == "calls" else value * speed

    def layer(prefix, field):
        return sum(get(name, field) for name in stats if name.startswith(prefix + "."))

    ell_calls, ell_self = layer("elliptic", "calls"), layer("elliptic", "self")
    solves = get("moduli.solve_level", "calls")
    t_in_solves = sum(n for parent, child, n in tr["edges"]
                      if parent == "moduli.solve_level" and child == "moduli.t_tilde")
    ops = len(traced["op_s"])
    return {
        "elliptic.calls": (ell_calls, "count"),
        "elliptic.self_s": (ell_self, "s"),
        "elliptic.us_per_call": (1e6 * ell_self / ell_calls if ell_calls else 0.0, "us"),
        "elliptic.quad_calls": (tr["counts"].get("elliptic.quad", 0), "count"),
        "setup.scipy_s": (scipy_s, "s"),
        "moduli.solve_level.calls": (solves, "count"),
        "moduli.solve_level.self_s": (get("moduli.solve_level", "self"), "s"),
        "moduli.t_tilde.calls": (get("moduli.t_tilde", "calls"), "count"),
        "moduli.dT.calls": (get("moduli.dT", "calls"), "count"),
        "moduli.evals_per_solve": (t_in_solves / solves if solves else 0.0, "1/solve"),
        "moduli.sweep_level_set.total_s": (get("moduli.sweep_level_set", "total"), "s"),
        "moduli.spectral_test.total_s": (get("moduli.spectral_test", "total"), "s"),
        "curves.calls": (layer("curves", "calls"), "count"),
        "curves.self_s": (layer("curves", "self"), "s"),
        "differentials.contour_integral.calls": (get("differentials.contour_integral", "calls"), "count"),
        "differentials.contour_integral.total_s": (get("differentials.contour_integral", "total"), "s"),
        "differentials.hitchin_checklist.total_s": (get("differentials.hitchin_checklist", "total"), "s"),
        "differentials.hitchin_checklist.self_s": (get("differentials.hitchin_checklist", "self"), "s"),
        "differentials.laurent.calls": (get("differentials.laurent", "calls"), "count"),
        "differentials.laurent.total_s": (get("differentials.laurent", "total"), "s"),
        "differentials.construct_psi.total_s": (get("differentials.construct_psi", "total"), "s"),
        "differentials.gamma_closing_values.per_curve": (
            get("differentials.gamma_closing_values", "calls") / ops, "1/op"),
        "differentials.monodromy_track.total_s": (get("differentials.monodromy_track", "total"), "s"),
        "cli.main.self_s": (get("cli.main", "self"), "s"),
        "cli.bytes_written": (traced["bytes_written"], "B"),
        "trace.overhead_frac": (sum(op_times(traced)) / sum(op_times(plain)) - 1.0, "ratio"),
    }


def measure(args, tmp: Path, deadline: float) -> dict:
    shutil.copytree(PACKAGE, tmp / "src" / "harmonictori",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = child_env(tmp, args.workload)
    python(["-c", "import harmonictori.cli"], env, tmp, deadline)  # fills the bytecode cache
    jobs, notes = make_jobs(args.workload, args.seed, args.seconds, tmp)
    (tmp / "inputs.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "jobs": jobs}))

    if args.trace:
        plain = worker(False, env, tmp, deadline)
        traced = worker(True, env, tmp, deadline)
        imports = python(["-X", "importtime", str(HERE / "worker.py"), "--setup"], env, tmp, deadline)
        scipy_s = normalized(spans.scipy_import_s(imports.stderr), json.loads(imports.stdout)["probe_ms"])
        metrics = per_layer(plain, traced, scipy_s)
        runs = [plain, traced]
        stats = traced["trace"]["stats"]
        wall = sum(traced["op_s"])
        notes["absent_names"] = traced["trace"]["absent"]
        notes["wall_share"] = {
            layer: round(sum(v[2] for k, v in stats.items() if k.startswith(layer + ".")) / wall, 4)
            for layer in ("elliptic", "moduli", "curves", "differentials", "cli")}
    else:
        setup = [json.loads(python([str(HERE / "worker.py"), "--setup"], env, tmp, deadline).stdout)
                 for _ in range(SETUP_SAMPLES)]
        plain = worker(False, env, tmp, deadline)
        metrics = end_to_end(plain, setup + [plain])
        runs = [plain]
        notes["unnormalized"] = {
            "setup_s": statistics.median(s["setup_s"] for s in setup + [plain]),
            "ops_per_s": (len(jobs) - len(plain["failed"])) / sum(plain["op_s"]),
            "op_ms_p50": 1000.0 * statistics.median(plain["op_s"]),
            "probe_ms_p50": statistics.median(x for p in plain["op_probe_ms"] for x in p)}

    n = len(jobs)
    failed = sorted(set().union(*(r["failed"] for r in runs)))
    pct, _ = tail_rank(n)
    notes.update(
        operations=n, tail_percentile=pct,
        oracle_points=plain["oracle_checked"], deterministic=plain["deterministic"],
        problems={i: p for r in runs for i, p in r["problems"].items()})
    print(f"perfbench: {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={int(args.trace)}: {json.dumps(notes, sort_keys=True)}")
    return {
        "correct": not failed and all(r["deterministic"] is not False for r in runs),
        "attempted": n,
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no harmonictori sources at {PACKAGE}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + TIME_LIMIT_S
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        result = measure(args, tmp, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
