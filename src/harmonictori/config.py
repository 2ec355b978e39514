"""The run configuration: the settings a CLI user may change.

``RunConfig`` holds the level-set solver and rational-detection tolerances,
the sweep range and the seed, and mirrors the flat key=value config file
accepted by the CLI (see ``load_config``).  ``DEFAULTS`` also supplies the
library-side defaults of those settings.  Fixed numerical constants live at
their single use in the modules.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

#: Environment variable naming the config file the CLI should load.
CONFIG_ENV_VAR = "HARMONICTORI_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    # solver / detection
    solver_tol: float = 1e-10        # |T~ - q| at an accepted level-set root
    detection_tol: float = 1e-9      # residual for rational (p, q) detection

    # sweep range
    k_min: float = 0.1
    k_max: float = 0.9
    angle_start: float = 0.1

    # reporting: written to the level-set header
    seed: int = 0

    def validate(self) -> None:
        for name in ("solver_tol", "detection_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not (0.0 < self.k_min < self.k_max < 1.0):
            raise ValueError("need 0 < k_min < k_max < 1")


DEFAULTS = RunConfig()


def load_config(path: str | None = None) -> RunConfig:
    """Read a flat ``key = value`` file into a RunConfig.

    With no explicit path, the file named by ``HARMONICTORI_CONFIG`` is used;
    if that is unset the defaults are returned.  Unknown keys are rejected.
    """
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR, "")
    if not path:
        return DEFAULTS
    known = {f.name for f in fields(RunConfig)}
    values: dict[str, object] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = int(val) if key == "seed" else float(val)
    cfg = RunConfig(**values)  # type: ignore[arg-type]
    cfg.validate()
    return cfg
