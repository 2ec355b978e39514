"""The benchmark's spans and counters find the library names they hook.

perfbench/spans.py replaces each ``(namespace, attribute)`` of its SPANS and
COUNTERS tables in that namespace, and lists a name it cannot find as absent;
its metrics then read 0 without failing the run.  This test reads the tables
with ``ast``, without importing the benchmark, so that a refactor that hides
one more name from them fails here.
"""

import ast
import importlib
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

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
