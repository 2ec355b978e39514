"""The benchmark's spans, counters and oracle find the library names they hook.

perfbench/spans.py replaces each ``(namespace, attribute)`` of its SPANS and
COUNTERS tables in that namespace, and lists a name it cannot find as absent;
its metrics then read 0 without failing the run.  perfbench/worker.py's
record_solves wraps one library function for the loop oracle and records
nothing when that name is missing, so the oracle then checks no loop point.
These tests read both files with ``ast``, without importing the benchmark, so
that a refactor that hides one more name from them fails here.  The spans do
not see the annulus loop's layers, so the last test counts the loop's work
under the oracle's hook on the benchmark's own loops.
"""

import ast
import importlib
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PY, WORKER_PY = PERFBENCH / "spans.py", PERFBENCH / "worker.py"

# the names the tables already miss (ROADMAP item 1); fewer is fine
KNOWN_ABSENT = {
    "harmonictori.moduli.lifted_F", "harmonictori.moduli.lifted_E",
    "harmonictori.moduli.incomplete_F_imag", "harmonictori.moduli.incomplete_E_reg_imag",
    "harmonictori.differentials.incomplete_F_imag",
    "harmonictori.differentials.incomplete_E_reg_imag",
    "harmonictori.moduli.inverse_coords", "harmonictori.differentials.inverse_coords",
    "harmonictori.differentials.build_frame", "harmonictori.elliptic.quad",
}


def hook_tables() -> dict:
    """SPANS and COUNTERS of perfbench/spans.py, by name."""
    tables = {}
    for node in ast.parse(SPANS_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and getattr(node.targets[0], "id", None) in ("SPANS", "COUNTERS"):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def test_every_library_hook_resolves_but_the_known_absent():
    tables = hook_tables()
    assert set(tables) == {"SPANS", "COUNTERS"}
    hooks = [(where, attr) for where, attr, _ in tables["SPANS"] + tables["COUNTERS"]
             if where != "api"]
    assert any(where == "harmonictori.cli" for where, _ in hooks)
    unresolved = {f"{where}.{attr}" for where, attr in hooks
                  if not callable(getattr(importlib.import_module(where), attr, None))}
    assert unresolved <= KNOWN_ABSENT, sorted(unresolved - KNOWN_ABSENT)


def oracle_hook() -> tuple[list, list]:
    """The module names record_solves looks up in sys.modules, and the
    attribute names it reads from them with getattr, in perfbench/worker.py."""
    tree = ast.parse(WORKER_PY.read_text(encoding="utf-8"))
    [func] = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "record_solves"]
    modules, attrs = [], []
    for node in ast.walk(func):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        first = node.args[0]
        if ast.unparse(node.func) == "sys.modules.get" and isinstance(first, ast.Constant):
            modules.append(first.value)
        elif ast.unparse(node.func) == "getattr" and isinstance(node.args[1], ast.Constant):
            attrs.append(node.args[1].value)
    return modules, attrs


def test_the_loop_oracle_hook_resolves():
    modules, attrs = oracle_hook()
    assert len(modules) == len(attrs) == 1
    [(where, attr)] = zip(modules, attrs)
    assert callable(getattr(importlib.import_module(where), attr, None)), f"{where}.{attr}"


def test_the_loop_oracle_hook_sees_each_loop_and_no_array_reaches_its_kernels(
        bench_inputs, monkeypatch):
    # perfbench/spans.py does not see the loop's layers, so its work is
    # counted here on the first 24 seed-1 loops: the oracle's hook records
    # one call per loop, which returns a ModuliPoint (one oracle point per
    # loop), an annulus loop makes one deck map and one float gamma+ pass
    # per end, a contractible loop one pass, and no numpy array reaches the
    # elliptic kernel _FE
    from harmonictori import differentials, moduli
    from harmonictori.curves import ModuliPoint

    [where], [attr] = oracle_hook()
    calls = {}

    def record(module, name):
        fn, log = getattr(module, name), calls.setdefault(name, [])

        def recorded(*args, **kw):
            log.append((args, result := fn(*args, **kw)))
            return result
        monkeypatch.setattr(module, name, recorded)
    record(importlib.import_module(where), attr)
    record(differentials, "deck_lambda_tilde")
    record(differentials, "_gamma_plus")
    record(moduli, "_FE")
    jobs = bench_inputs.loop_jobs(random.Random("annulus_loop:1"), 20)[:24]
    assert sum(job["contractible"] for job in jobs) == 6
    for job in jobs:
        for log in calls.values():
            log.clear()
        differentials.monodromy_track(Fraction(job["q"]), job["samples"], job["k"],
                                      job["u_tilde0"], job["contractible"])
        [(_, point)] = calls[attr]
        assert isinstance(point, ModuliPoint)
        assert len(calls["deck_lambda_tilde"]) == 1 - job["contractible"]
        assert len(calls["_gamma_plus"]) == 2 - job["contractible"]
        assert all(type(value) is float for _, value in calls["_gamma_plus"])
        assert calls["_FE"] and not any(isinstance(x, np.ndarray)
                                        for args, _ in calls["_FE"] for x in args)
