"""Spans at the library's module boundaries, recorded from outside it.

Each traced name is replaced in the namespace it is looked up from: the
module that imported it (``harmonictori.moduli.lifted_F``), the defining
module for calls inside that module (``harmonictori.moduli.solve_level``,
which ``sweep_level_set`` reaches through its globals), or the benchmark's
own call table (``api``).  A name that no longer exists is listed as absent
and its metrics read 0; tracing never stops the run.

Spans are aggregated in memory as they close: per span name the call count,
total time and self time (total minus the time of directly nested spans),
and per (parent, child) edge the call count.  Times come from the clock the
tracer is given, so that the CPU-speed probes firing inside a span are not
counted in it.
"""

from __future__ import annotations

import importlib
import re
import time

# (namespace, attribute, span name); the span name's first dotted part is
# the layer the callee belongs to.
SPANS = (
    ("harmonictori.moduli", "lifted_F", "elliptic.lifted_F"),
    ("harmonictori.moduli", "lifted_E", "elliptic.lifted_E"),
    ("harmonictori.moduli", "incomplete_F_imag", "elliptic.incomplete_F_imag"),
    ("harmonictori.moduli", "incomplete_E_reg_imag", "elliptic.incomplete_E_reg_imag"),
    ("harmonictori.differentials", "incomplete_F_imag", "elliptic.incomplete_F_imag"),
    ("harmonictori.differentials", "incomplete_E_reg_imag", "elliptic.incomplete_E_reg_imag"),
    ("harmonictori.moduli", "solve_level", "moduli.solve_level"),
    ("harmonictori.differentials", "solve_level", "moduli.solve_level"),
    ("harmonictori.moduli", "t_tilde_raw", "moduli.t_tilde"),
    ("harmonictori.moduli", "dT_tilde_du_tilde", "moduli.dT"),
    ("harmonictori.moduli", "dT_tilde_dv_tilde", "moduli.dT"),
    ("harmonictori.cli", "sweep_level_set", "moduli.sweep_level_set"),
    ("api", "spectral_test", "moduli.spectral_test"),
    ("harmonictori.moduli", "forward_coords", "curves.forward_coords"),
    ("harmonictori.moduli", "inverse_coords", "curves.inverse_coords"),
    ("harmonictori.differentials", "inverse_coords", "curves.inverse_coords"),
    ("harmonictori.differentials", "build_frame", "curves.build_frame"),
    ("api", "build_frame", "curves.build_frame"),
    ("harmonictori.differentials", "contour_integral", "differentials.contour_integral"),
    ("harmonictori.differentials", "laurent_coefficients", "differentials.laurent"),
    ("harmonictori.differentials", "gamma_closing_values",
     "differentials.gamma_closing_values"),
    ("api", "construct_psi", "differentials.construct_psi"),
    ("api", "hitchin_checklist", "differentials.hitchin_checklist"),
    ("api", "monodromy_track", "differentials.monodromy_track"),
    ("api", "main", "cli.main"),
)

# (namespace, attribute, counter name): counted, not timed
COUNTERS = (
    ("harmonictori.elliptic", "quad", "elliptic.quad"),
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}    # name -> [calls, total_s, self_s]
        self.edges: dict[tuple, int] = {}   # (parent name, name) -> calls
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []        # open spans: [name, child_s]
        self._undo: list[tuple] = []

    def _span(self, fn, name):
        stack, edges, clock = self._stack, self.edges, self.clock
        stat = self.stats[name]

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                edges[parent, name] = edges.get((parent, name), 0) + 1

        return span

    def _counter(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, api, where, attr, label, make):
        try:
            target = api if where == "api" else importlib.import_module(where)
        except ImportError:
            target = None
        fn = getattr(target, attr, None)
        if not callable(fn):
            self.absent.append(f"{where}.{attr}")
            return
        setattr(target, attr, make(fn, label))
        self._undo.append((target, attr, fn))

    def install(self, api) -> None:
        for where, attr, name in SPANS:
            self.stats.setdefault(name, [0, 0.0, 0.0])
            self._replace(api, where, attr, name, self._span)
        for where, attr, name in COUNTERS:
            self.counts.setdefault(name, 0)
            self._replace(api, where, attr, name, self._counter)

    def uninstall(self) -> None:
        for target, attr, fn in reversed(self._undo):
            setattr(target, attr, fn)
        self._undo.clear()

    def summary(self) -> dict:
        return {"stats": self.stats,
                "edges": [[p, c, n] for (p, c), n in self.edges.items()],
                "counts": self.counts, "absent": self.absent}


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+\d+\s+\|\s*(\S+)\s*$")


def scipy_import_s(importtime_stderr: str) -> float:
    """Self time of scipy's own modules in ``python -X importtime`` output.

    Self times exclude the numpy and standard-library modules scipy pulls
    in, which other modules of the library import anyway.
    """
    total_us = 0
    for line in importtime_stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m and (m.group(2) == "scipy" or m.group(2).startswith("scipy.")):
            total_us += int(m.group(1))
    return total_us * 1e-6
