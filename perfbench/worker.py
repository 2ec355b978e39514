"""One measured run of a workload in a fresh interpreter.

    python3 perfbench/worker.py INPUTS_JSON RESULT_JSON TRACE
    python3 perfbench/worker.py --setup

The first thing it does is time ``import harmonictori.cli`` (the set-up cost
every CLI call pays), under the CPU-speed probes of ``probe.py``; ``--setup``
prints that and stops.  Otherwise it runs every job of INPUTS_JSON in order
through the public API, timing each one under the probes, reads the peak RSS,
and only then checks the outputs.  With TRACE = 1 the module-boundary spans of
``spans.py`` are installed for the timed phase.  The result is written to
RESULT_JSON.
"""

import sys

sys.dont_write_bytecode = True  # the benchmark's own modules leave no caches
import probe  # noqa: E402  (needs only signal and time)

with probe.Sampler() as _sampler:
    _, _setup_s, _setup_probes = _sampler.timed(lambda: __import__("harmonictori.cli"))
SETUP = {"setup_s": _setup_s, "probe_ms": _setup_probes}
import harmonictori.cli  # noqa: E402  (already loaded: binds the name)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import harmonictori  # noqa: E402
import spans  # noqa: E402

# mpmath evaluations per run: rows of each leaf, recorded solves of each loop
ORACLE_ROWS_PER_LEAF = 4
ORACLE_SOLVES_PER_LOOP = 1


def public_api() -> SimpleNamespace:
    """The calls the workloads make, looked up here so spans can wrap them."""
    return SimpleNamespace(
        main=harmonictori.cli.main,
        BranchPair=harmonictori.BranchPair,
        build_frame=harmonictori.build_frame,
        spectral_test=harmonictori.spectral_test,
        construct_psi=harmonictori.construct_psi,
        hitchin_checklist=harmonictori.hitchin_checklist,
        monodromy_track=harmonictori.monodromy_track,
    )


def level_set(api, job: dict, csv: Path, obj: Path) -> tuple[int, str]:
    argv = ["level-set", f"--p={job['p']}", f"--q={job['q']}",
            f"--k-grid={job['k_grid']}", f"--angle-grid={job['angle_grid']}",
            f"--span={job['span']!r}", f"--out={csv}", f"--mesh={obj}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = api.main(argv)
    return rc, out.getvalue()


def curve_info(api, job: dict):
    """The curve-info pipeline; the detection cap is the CLI default 50."""
    bp = api.BranchPair(complex(*job["alpha"]), complex(*job["beta"]))
    frame = api.build_frame(bp)
    detected = api.spectral_test(bp, 50)
    closing = None
    if detected is not None:
        closing = api.construct_psi(detected[0], detected[1], frame)
    return detected, api.hitchin_checklist(frame, closing)


def record_solves(log: list):
    """Keep every solve_level call monodromy_track makes, for the oracle.

    Returns an undo callable; a missing name records nothing.
    """
    mod = sys.modules.get("harmonictori.differentials")
    orig = getattr(mod, "solve_level", None)
    if orig is None:
        return lambda: None

    def recorded(*args, **kwargs):
        point = orig(*args, **kwargs)
        log.append((args, point))
        return point

    mod.solve_level = recorded
    return lambda: setattr(mod, "solve_level", orig)


def main(argv: list[str]) -> int:
    inputs_path, result_path, trace = argv[1], Path(argv[2]), argv[3] == "1"
    spec = json.loads(Path(inputs_path).read_text())
    workload, jobs = spec["workload"], spec["jobs"]
    out_dir = result_path.parent / f"out-{'traced' if trace else 'plain'}"
    out_dir.mkdir()
    api = public_api()

    solves: list = []
    undo_record = record_solves(solves) if workload == "annulus_loop" else (lambda: None)
    sampler = probe.Sampler()
    tracer = spans.Tracer(sampler.clock) if trace else None
    if tracer:
        tracer.install(api)

    def run(i, job):
        try:
            if workload == "leaf_sweep":
                return level_set(api, job, out_dir / f"leaf-{i:03d}.csv",
                                 out_dir / f"leaf-{i:03d}.obj"), None
            if workload == "curve_census":
                return curve_info(api, job), None
            return api.monodromy_track(Fraction(job["q"]), job["samples"], job["k"],
                                       job["u_tilde0"], job["contractible"]), None
        except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
            return None, f"{type(exc).__name__}: {exc}"

    outputs, errors, op_s, op_probes, loop_solves = [], [], [], [], []
    with sampler:
        for i, job in enumerate(jobs):
            n_solves = len(solves)
            (out, err), seconds, probes = sampler.timed(lambda: run(i, job))
            outputs.append(out)
            errors.append(err)
            op_s.append(seconds)
            op_probes.append(probes)
            loop_solves.append(solves[n_solves:])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    undo_record()

    # ---- output checks, outside the timed phase (mpmath loads only now)
    import checks
    rng = random.Random(f"oracle:{spec['seed']}")
    problems: list[list[str]] = []
    points = oracle_checked = bytes_written = 0
    for i, (job, out, err) in enumerate(zip(jobs, outputs, errors)):
        if err is not None:
            problems.append([err])
            continue
        if workload == "leaf_sweep":
            csv, obj = out_dir / f"leaf-{i:03d}.csv", out_dir / f"leaf-{i:03d}.obj"
            grid = job["k_grid"] * job["angle_grid"]
            sample = rng.sample(range(grid), min(ORACLE_ROWS_PER_LEAF, grid))
            found, rows, checked = checks.check_leaf(
                job, out[0], out[1], csv.read_text(), obj.read_text(), sample)
            points += rows
            oracle_checked += checked
            bytes_written += csv.stat().st_size + obj.stat().st_size
        elif workload == "curve_census":
            found = checks.check_curve(job, *out)
            points += 1
        else:
            found = checks.check_loop(job, out)
            points += job["samples"] + 1
            recorded = [(a, pt) for a, pt in loop_solves[i]
                        if len(a) >= 4 and hasattr(pt, "u_tilde")]
            for args, point in rng.sample(recorded, min(ORACLE_SOLVES_PER_LOOP, len(recorded))):
                found += checks.check_solve(job, args, point)
                oracle_checked += 1
        problems.append(found)

    deterministic = None
    if workload == "leaf_sweep" and errors[0] is None:
        # a given build must write byte-identical files run to run
        again = out_dir / "repeat"
        level_set(harmonictori.cli, jobs[0], again.with_suffix(".csv"), again.with_suffix(".obj"))
        deterministic = all(
            again.with_suffix(ext).read_bytes() == (out_dir / f"leaf-000{ext}").read_bytes()
            for ext in (".csv", ".obj"))

    result = {
        **SETUP,
        "op_s": op_s,
        "op_probe_ms": op_probes,
        "points": points,
        "peak_rss_mb": peak_rss_mb,
        "failed": [i for i, p in enumerate(problems) if p],
        "problems": {str(i): p[:3] for i, p in enumerate(problems) if p},
        "oracle_checked": oracle_checked,
        "deterministic": deterministic,
        "bytes_written": bytes_written,
        "trace": tracer.summary() if tracer else None,
    }
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--setup"]:
        print(json.dumps(SETUP))
        sys.exit(0)
    sys.exit(main(sys.argv))
