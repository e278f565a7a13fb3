"""The three benchmark workloads: seeded CLI configs and the rows they owe.

Every workload drives the ``neqatom`` CLI with generated config files on
the bundled ``sic`` material. The seed jitters the log-spaced z grids and
the crossover bracket endpoints; the same seed always gives the same
configs, byte for byte. One *pass* is the fixed unit of work a run
repeats: the list of CLI commands returned by :func:`build`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# cooling scenario of the paper: hot walls, cold slab
T_W = 570.0
T_M = 170.0

# z points per thickness in one resonant-track pass (three thicknesses),
# and in one offband-rates pass: short passes, so that a 30 s run holds
# 15 or more
RESONANT_Z_POINTS = 50
OFFBAND_Z_POINTS = 4

CROSSOVER_CASES = (
    ("omega_r", "1e-2"),
    ("0.5*omega_r", "1.1e-7"),
    ("omega_r", "1.1e-7"),
    ("2*omega_r", "1.1e-7"),
    ("omega_p", "1e-2"),
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass and the rows it must produce."""

    label: str
    command: str
    config: str
    fmt: str
    threads: int
    deltas: tuple = ()
    z_values: tuple = ()
    bracket: tuple | None = None

    def argv(self, config_path: str, out_path: str) -> list:
        return [self.command, "--config", config_path, "--out", out_path,
                "--format", self.fmt, "--threads", str(self.threads)]

    def expected_keys(self) -> list:
        """(delta, z) of every row, in the CLI's delta-major order."""
        if self.command == "crossover":
            return [(float(self.deltas[0]), None)]
        return [(d, z) for d in self.deltas for z in self.z_values]


def jittered_log_grid(rng: random.Random, lo: float, hi: float, n: int) -> list:
    """n log-spaced points in [lo, hi], each moved by up to a quarter step.

    Neighbours stay at least half a step apart, so the grid is strictly
    increasing as the CLI requires.
    """
    step = 1.0 / (n - 1)
    ts = [min(max(i * step + (rng.random() - 0.5) * 0.5 * step, 0.0), 1.0)
          for i in range(n)]
    return [lo * (hi / lo) ** t for t in ts]


def _config(**keys) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def _grid_text(values) -> str:
    return ",".join(repr(v) for v in values)


def _resonant_track(rng):
    # one command per thickness: the machine's speed is calibrated between
    # commands, and shorter commands track it more closely
    commands = []
    for i, delta in enumerate((1e-8, 1.1e-7, 1e-2)):
        zs = tuple(jittered_log_grid(rng, 1e-8, 1e-4, RESONANT_Z_POINTS))
        text = _config(material="sic", omega_31="omega_p", omega_32="omega_r",
                       T_W=T_W, T_M=T_M, delta=repr(delta), z=_grid_text(zs))
        commands.append(Command(f"track{i}", "thermal-track", text, "csv", 1,
                                (delta,), zs))
    return commands


def _offband_rates(rng):
    deltas = (1e-2,)
    zs = tuple(jittered_log_grid(rng, 1e-8, 1e-6, OFFBAND_Z_POINTS))
    text = _config(material="sic", omega="2*omega_r", T_W=T_W, T_M=T_M,
                   delta=_grid_text(deltas), z=_grid_text(zs))
    return [Command("rates", "rates", text, "json", 2, deltas, zs)]


def _crossover_roots(rng):
    commands = []
    for i, (omega, delta) in enumerate(CROSSOVER_CASES):
        # endpoints move by up to +-0.1 decade around (10 nm, 100 um)
        lo = 1e-8 * 10.0 ** (0.2 * (rng.random() - 0.5))
        hi = 1e-4 * 10.0 ** (0.2 * (rng.random() - 0.5))
        text = _config(material="sic", omega=omega, delta=delta,
                       bracket=f"{lo!r},{hi!r}")
        commands.append(Command(f"root{i}", "crossover", text, "csv", 1,
                                (float(delta),), (), (lo, hi)))
    return commands


WORKLOADS = {
    "resonant-track": _resonant_track,
    "offband-rates": _offband_rates,
    "crossover-roots": _crossover_roots,
}


def build(workload: str, seed: int) -> list:
    """The commands of one pass of ``workload`` for ``seed``."""
    return WORKLOADS[workload](random.Random(seed))
