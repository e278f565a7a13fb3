"""Command-line front end: scenario configs, scans, CSV/JSON output.

Config files are flat ``key = value`` text (``#`` comments). Frequencies
may be absolute rad/s or symbolic multiples of the material scales
(``omega_r``, the transverse resonance, and ``omega_p``, the surface-mode
frequency), e.g. ``omega_31 = 0.5*omega_r``. Grids are a single number,
a comma list, or ``log:lo:hi:n`` / ``lin:lo:hi:n``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from dataclasses import astuple, dataclass
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    DEFAULT_T_SEARCH,
    environment_scan,
    scan,
    transition_environments,
)
from .atom import AtomModel, Populations, evolve_populations
from .optics import (
    DielectricModel,
    load_material,
    parse_key_values,
    parse_numbers,
    surface_mode_frequency,
)
from .quadrature import DEFAULT_SPEC, QuadratureSpec
from .response import (
    _POINT_ERRORS,
    _ROOT_SPEC,
    ISOTROPIC_WEIGHTS,
    GeometryPoint,
    PointFailure,
    check_weights,
    crossover_distance,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_CONFIG_KEYS = (
    "material", "omega", "omega_31", "omega_32", "T_W", "T_M", "z", "delta",
    "weights", "weights_31", "weights_32", "rel_tol", "abs_tol",
    "max_subdivisions", "thermal_search", "t", "initial", "bracket",
)


def _meta_text(value) -> str:
    """Metadata text of a resolved value: raw strings, comma-joined tuples, else repr."""
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ",".join(repr(x) for x in value)
    return repr(value)


_DEFAULTS = {
    "material": "sic",
    "delta": "1e-2",
    "weights": "isotropic",
    "weights_31": "isotropic",
    "weights_32": "isotropic",
    "rel_tol": _meta_text(DEFAULT_SPEC.rel_tol),
    "abs_tol": _meta_text(DEFAULT_SPEC.abs_tol),
    "max_subdivisions": _meta_text(DEFAULT_SPEC.max_subdivisions),
    "thermal_search": _meta_text(DEFAULT_T_SEARCH),
    "initial": "1,0,0",
}

_REQUIRED = {
    "rates": ("omega", "T_W", "T_M", "z"),
    "teff-map": ("omega", "T_W", "T_M", "z", "delta"),
    "steady": ("omega_31", "omega_32", "T_W", "T_M", "z"),
    "thermal-track": ("omega_31", "omega_32", "T_W", "T_M", "z"),
    "evolve": ("omega_31", "omega_32", "T_W", "T_M", "z", "t"),
    "crossover": ("omega", "bracket"),
}

_COLUMNS = {
    "rates": ("delta", "z", "alpha_W", "alpha_M", "n_eff", "T_eff",
              "gamma_down_over_gamma0", "gamma_up_over_gamma0", "error"),
    "teff-map": ("delta", "z", "alpha_W", "alpha_M", "n_eff", "T_eff", "error"),
    "steady": ("delta", "z", "p1", "p2", "p3", "inverted", "error"),
    "thermal-track": ("delta", "z", "p1", "p2", "p3", "T_eff_31", "T_eff_32",
                      "closest_T", "distance", "is_thermal", "at_boundary", "error"),
    "evolve": ("t", "p1", "p2", "p3"),
    "crossover": ("omega", "delta", "z_star", "alpha_W", "alpha_M"),
}


class ConfigError(ValueError):
    pass


@dataclass
class ScenarioConfig:
    """A loaded scenario; a value the config omits and that has no default is None."""

    material_name: str
    model: DielectricModel
    spec: QuadratureSpec
    omega: float | None
    omega_31: float | None
    omega_32: float | None
    T_W: float | None
    T_M: float | None
    z_values: np.ndarray | None
    delta_values: np.ndarray
    weights: tuple
    weights_31: tuple
    weights_32: tuple
    thermal_search: tuple
    t_values: np.ndarray | None
    initial: Populations
    bracket: tuple | None
    resolved: dict

    def atom(self) -> AtomModel:
        try:
            return AtomModel(omega_31=self.omega_31, omega_32=self.omega_32,
                             weights_31=self.weights_31, weights_32=self.weights_32)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"omega_31/omega_32: {exc}") from exc


def _keyed(key: str, check, *args):
    """``check(*args)``, its ValueError or OSError re-raised naming ``key``."""
    try:
        return check(*args)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _parse_frequency(expr: str, key: str, omega_r: float, omega_p: float) -> float:
    m = re.fullmatch(r"(?:([0-9.eE+-]+)\s*\*\s*)?omega_([rp])", expr)
    if m:
        factor = parse_numbers(m.group(1), key, 1)[0] if m.group(1) else 1.0
        value = factor * (omega_r if m.group(2) == "r" else omega_p)
    else:
        value = parse_numbers(expr, key, 1)[0]
    if not 0.0 < value < np.inf:
        raise ValueError(f"{key}: frequency must be finite and > 0")
    return value


def _parse_temperature(expr: str, key: str) -> float:
    value = parse_numbers(expr, key, 1)[0]
    if not value > 0.0:
        raise ValueError(f"{key}: temperature must be > 0")
    return value


def _parse_grid(expr: str, key: str, positive: bool = True) -> np.ndarray:
    m = re.fullmatch(r"(log|lin):([^:]+):([^:]+):(\d+)", expr)
    if m:
        lo, hi = (parse_numbers(x, key, 1)[0] for x in m.group(2, 3))
        n = int(m.group(4))
        if n < 1 or hi < lo:
            raise ValueError(f"{key}: malformed grid {expr!r}")
        if m.group(1) == "log" and lo <= 0:
            raise ValueError(f"{key}: log grid needs lo > 0")
        try:
            values = (np.geomspace if m.group(1) == "log" else np.linspace)(lo, hi, n)
        except MemoryError:
            raise ValueError(f"{key}: a grid of {n} values cannot be allocated") from None
    else:
        values = np.array(parse_numbers(expr, key))
    bad, bound = (values <= 0.0, "> 0") if positive else (values < 0.0, ">= 0")
    if np.any(bad):
        raise ValueError(f"{key}: values must be {bound}")
    if values.size > 1 and np.any(np.diff(values) <= 0.0):
        raise ValueError(f"{key}: grid must be strictly increasing")
    return values


def _parse_weights(expr: str, key: str) -> tuple:
    if expr == "isotropic":
        return ISOTROPIC_WEIGHTS
    return _keyed(key, check_weights, parse_numbers(expr, key, 3))


def _parse_pair(expr: str, key: str) -> tuple:
    lo, hi = parse_numbers(expr, key, 2)
    if not 0.0 < lo < hi:
        raise ValueError(f"{key}: need 0 < lo < hi")
    return lo, hi


def load_config(path: str | Path, overrides: dict | None = None) -> ScenarioConfig:
    """Parse and validate a scenario config file, filling defaults.

    ``overrides`` maps config keys to replacement raw strings (used for
    the tolerance environment variables and command-line flags). Every
    resolved value, defaults included, lands in ``config.resolved``.
    Every value is checked here; an invalid one raises ConfigError
    naming its key.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        return _scenario(text, overrides or {})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _scenario(text: str, overrides: dict) -> ScenarioConfig:
    merged = dict(_DEFAULTS)
    merged.update(parse_key_values(text, _CONFIG_KEYS))
    merged.update((key, str(val)) for key, val in overrides.items() if val is not None)

    material = merged["material"]
    model = _keyed("material", load_material, material)
    try:
        omega_p = surface_mode_frequency(model)
    except ValueError:
        omega_p = None

    def freq(expr, key):
        if "omega_p" in expr and omega_p is None:
            raise ValueError(f"{key}: material has no surface mode, omega_p undefined")
        return _parse_frequency(expr, key, model.omega_T, omega_p or 0.0)

    def given(key, parse, **options):
        return parse(merged[key], key, **options) if key in merged else None

    def number(key):
        return parse_numbers(merged[key], key, 1)[0]

    spec = _keyed("quadrature spec", QuadratureSpec, number("rel_tol"), number("abs_tol"),
                  _keyed("max_subdivisions", int, merged["max_subdivisions"]))
    values = dict(
        omega=given("omega", freq),
        omega_31=given("omega_31", freq),
        omega_32=given("omega_32", freq),
        T_W=given("T_W", _parse_temperature),
        T_M=given("T_M", _parse_temperature),
        z_values=given("z", _parse_grid),
        delta_values=given("delta", _parse_grid, positive=False),
        weights=given("weights", _parse_weights),
        weights_31=given("weights_31", _parse_weights),
        weights_32=given("weights_32", _parse_weights),
        thermal_search=given("thermal_search", _parse_pair),
        t_values=given("t", _parse_grid, positive=False),
        initial=_keyed("initial", Populations, *parse_numbers(merged["initial"], "initial", 3)),
        bracket=given("bracket", _parse_pair),
    )
    if values["omega_31"] is not None and values["omega_31"] == values["omega_32"]:
        raise ValueError("omega_31 must differ from omega_32")

    resolved = (
        ("material", material), ("eps_inf", model.eps_inf), ("omega_L", model.omega_L),
        ("omega_T", model.omega_T), ("gamma_damp", model.gamma_damp),
        ("omega_p_resolved", omega_p),
        *((key, values[key]) for key in ("omega", "omega_31", "omega_32", "T_W", "T_M")),
        ("z", merged.get("z")), ("delta", merged["delta"]),
        *((key, values[key]) for key in ("weights", "weights_31", "weights_32")),
        ("initial", astuple(values["initial"])), ("thermal_search", values["thermal_search"]),
        ("t", merged.get("t")), ("bracket", values["bracket"]), *vars(spec).items(),
    )
    return ScenarioConfig(
        material_name=material, model=model, spec=spec, **values,
        resolved={key: _meta_text(value) for key, value in resolved if value is not None})


def _require(cfg: ScenarioConfig, command: str):
    missing = [key for key in _REQUIRED[command] if key not in cfg.resolved]
    if missing:
        raise ConfigError(f"{command}: missing required key(s): {', '.join(missing)}")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def _write(out_path, fmt, command, cfg, columns, rows):
    meta = {"command": command, "version": __version__, **cfg.resolved}
    if fmt == "csv":
        buf = io.StringIO()  # csv quotes a cell that holds a comma, as an error text may
        buf.writelines(f"# {k} = {v}\n" for k, v in meta.items())
        csv.writer(buf, lineterminator="\n").writerows(
            [columns, *([_fmt(v) for v in row] for row in rows)])
        payload = buf.getvalue()
    else:
        def norm(v):
            if isinstance(v, (bool, np.bool_)):
                return bool(v)
            if isinstance(v, (float, np.floating)):
                return None if not np.isfinite(v) else float(v)
            return v
        payload = json.dumps({
            "schema": "neqatom.v1",
            "metadata": meta,
            "columns": list(columns),
            "rows": [[norm(v) for v in row] for row in rows],
        }, indent=1) + "\n"
    if out_path == "-":
        sys.stdout.write(payload)
    else:
        Path(out_path).write_text(payload)


def _rows(records, columns):
    """Rows in ``columns`` order from records keyed by column name, and the failures.

    A cell a record lacks is NaN. Scan records carry ``error``, None on
    success; one with an error also lands in the failures as
    ``(z, delta, error)``.
    """
    rows = [[rec.get(col, float("nan")) for col in columns] for rec in records]
    failures = [(rec["z"], rec["delta"], rec["error"])
                for rec in records if rec.get("error") is not None]
    return rows, failures


def _run_rates(cfg, command):
    # environment_scan raises ValueError only for its arguments, which load_config checked
    # but omega's default dipole magnitude: the config's error, as in ScenarioConfig.atom()
    try:
        scanned = environment_scan(cfg.omega, cfg.weights, cfg.model, cfg.z_values,
                                   cfg.delta_values, cfg.T_W, cfg.T_M, cfg.spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    records = []
    for z, d, env, err in scanned:
        rec = {"delta": d, "z": z, "error": err}
        if env is not None:
            # the record dataclasses are flat and have no slots: vars() holds
            # exactly their fields, without asdict's deep copy
            rec.update(vars(env), gamma_down_over_gamma0=env.gamma_down / env.gamma0,
                       gamma_up_over_gamma0=env.gamma_up / env.gamma0)
        records.append(rec)
    return records


def _run_steady(cfg, command):
    result = scan(cfg.atom(), cfg.model, cfg.z_values, cfg.delta_values, cfg.T_W, cfg.T_M,
                  cfg.spec, cfg.thermal_search if command == "thermal-track" else None)
    records = []
    for pt in result.points:
        rec = {"delta": pt.delta, "z": pt.z, "error": pt.error}
        if pt.error is None:
            p = pt.populations
            rec.update(vars(p), inverted=p.p2 > p.p1,
                       T_eff_31=pt.env31.T_eff, T_eff_32=pt.env32.T_eff)
            if pt.thermal is not None:
                rec.update(vars(pt.thermal))
        records.append(rec)
    return records


def _run_evolve(cfg, command):
    if cfg.z_values.size != 1 or cfg.delta_values.size != 1:
        raise ConfigError("evolve: z and delta must be single values")
    atom = cfg.atom()
    geom = GeometryPoint(z=float(cfg.z_values[0]), delta=float(cfg.delta_values[0]))
    env31, env32 = transition_environments(atom, cfg.model, geom, cfg.T_W, cfg.T_M, cfg.spec)
    return [{"t": float(t), **vars(evolve_populations(cfg.initial, env31, env32, float(t)))}
            for t in cfg.t_values]


def _run_crossover(cfg, command):
    if cfg.delta_values.size != 1:
        raise ConfigError("crossover: delta must be a single value")
    delta = float(cfg.delta_values[0])
    root = crossover_distance(cfg.omega, delta, cfg.model, cfg.bracket, cfg.weights)
    # the row is the search's own pair, so the header gives the search's spec
    cfg.resolved.update((key, _meta_text(value)) for key, value in vars(_ROOT_SPEC).items())
    return [{"omega": cfg.omega, "delta": delta, "z_star": root.z, **vars(root.pair)}]


# every runner takes (cfg, command) and returns one record per row
_RUNNERS = {
    "rates": _run_rates,
    "teff-map": _run_rates,
    "steady": _run_steady,
    "thermal-track": _run_steady,
    "evolve": _run_evolve,
    "crossover": _run_crossover,
}


@cache  # built on the first command, once per process
def _build_parser() -> argparse.ArgumentParser:
    epilog = (
        "config keys: " + ", ".join(_CONFIG_KEYS) + "\n"
        "frequencies: rad/s or multiples of omega_r / omega_p, e.g. 0.5*omega_r\n"
        "grids: single value, comma list, log:lo:hi:n or lin:lo:hi:n\n"
        "env overrides: NEQATOM_REL_TOL, NEQATOM_ABS_TOL, NEQATOM_MAX_SUBDIVISIONS\n"
        "output columns (fixed order):\n"
        + "\n".join(f"  {cmd}: {','.join(cols)}" for cmd, cols in _COLUMNS.items())
        + "\nexit codes: 0 success, 2 config error or unwritable output,"
          " 3 numerical failure"
    )
    parser = argparse.ArgumentParser(
        prog="neqatom",
        description="Radiative environment and steady states of a three-level "
                    "atom near a slab held out of thermal equilibrium.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=sorted(_REQUIRED),
                        help="computation to run")
    parser.add_argument("--config", required=True, help="path to config file")
    parser.add_argument("--out", default="-", help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--threads", type=int, help="ignored: every scan runs sequentially")
    parser.add_argument("--rel-tol", type=float, default=None,
                        help="override quadrature relative tolerance")
    return parser


def run_command(argv) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        "rel_tol": os.environ.get("NEQATOM_REL_TOL"),
        "abs_tol": os.environ.get("NEQATOM_ABS_TOL"),
        "max_subdivisions": os.environ.get("NEQATOM_MAX_SUBDIVISIONS"),
    }
    if args.rel_tol is not None:
        overrides["rel_tol"] = repr(args.rel_tol)
    try:
        cfg = load_config(args.config, overrides)
        _require(cfg, args.command)
        records = _RUNNERS[args.command](cfg, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PointFailure as failure:  # evolve and crossover: one height and delta
        print(f"numerical failure at z={failure.z!r}, delta={float(cfg.delta_values[0])!r}:"
              f" {failure}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _POINT_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    rows, failures = _rows(records, _COLUMNS[args.command])
    try:
        _write(args.out, args.format, args.command, cfg, _COLUMNS[args.command], rows)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if failures:
        z, d, err = failures[0]
        print(f"numerical failure at z={z!r}, delta={d!r}: {err}"
              f" ({len(failures)} of {len(rows)} points failed)", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
