"""Correctness checks on the CLI's output rows.

Each row the CLI returns as a result is checked against physical and
internal-consistency invariants that hold for any seed; rows of the
default-seed inputs are also compared column by column with reference
output recorded at the seed commit. A row the CLI itself reports as
failed (``error`` column, or a crossover command exiting without output)
is an *error* row; a row that comes back as a result but breaks a check
is a *bad* row. Both count as failed; only bad rows make a run incorrect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from scipy.constants import hbar, k as k_B

from workloads import T_M, T_W

# closest_thermal defaults of the CLI: search bracket and thermal threshold
T_SEARCH = (1.0, 5000.0)
THERMAL_THRESHOLD = 2e-3

# (relative, absolute) tolerance per column against the reference. The
# quadrature runs at rel_tol 1e-9 per integral; 1e-6 leaves room for any
# change of panels or summation order that stays within that tolerance.
# closest_T is found to 0.01 K; z_star to |alpha_W - alpha_M| < 1e-9 sum.
REFERENCE_TOL = {
    "delta": (0.0, 0.0),
    "z": (0.0, 0.0),
    "omega": (1e-15, 0.0),
    "closest_T": (0.0, 0.02),
    "distance": (1e-5, 1e-7),
    "z_star": (1e-5, 0.0),
}
DEFAULT_TOL = (1e-6, 1e-9)
EXACT_COLUMNS = ("is_thermal", "at_boundary")


@dataclass
class CommandOutcome:
    """Per-row verdicts of one CLI command: 'ok', 'error' or 'bad'."""

    status: list
    problems: list = field(default_factory=list)
    out_bytes: int = 0

    @property
    def failed(self) -> int:
        return sum(s != "ok" for s in self.status)

    @property
    def bad(self) -> int:
        return sum(s == "bad" for s in self.status)


def bose(omega: float, T: float) -> float:
    return 1.0 / math.expm1(hbar * omega / (k_B * T))


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def read_output(path, fmt: str):
    """(metadata, columns, rows) of a CLI output file; None for NaN/empty."""
    text = path.read_text()
    if fmt == "json":
        doc = json.loads(text)
        return doc["metadata"], doc["columns"], doc["rows"]
    meta, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(" = ")
            meta[key] = val
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([_csv_value(v) for v in line.split(",")])
    return meta, columns, rows


def _csv_value(v: str):
    if v == "":
        return None
    try:
        value = float(v)
    except ValueError:
        return v
    return None if math.isnan(value) else value


def _thermal_track_row(r: dict, meta: dict) -> list:
    w31, w32 = float(meta["omega_31"]), float(meta["omega_32"])
    p = (r["p1"], r["p2"], r["p3"])
    problems = []
    if any(not 0.0 <= x <= 1.0 for x in p) or abs(sum(p) - 1.0) > 1e-12:
        problems.append("populations outside [0, 1] or not summing to 1")
    for key in ("T_eff_31", "T_eff_32"):
        if not T_M * (1 - 1e-9) <= r[key] <= T_W * (1 + 1e-9):
            problems.append(f"{key} outside [T_M, T_W]")
    if problems:
        return problems
    # the populations must be the closed-form steady state of the two
    # effective occupations the row reports
    n31, n32 = bose(w31, r["T_eff_31"]), bose(w32, r["T_eff_32"])
    q = (n32 * (1 + n31), n31 * (1 + n32), n31 * n32)
    Z = sum(q)
    if any(not _close(a, b / Z, 1e-7, 1e-12) for a, b in zip(p, q)):
        problems.append("populations are not the steady state of T_eff")
    T = r["closest_T"]
    if not T_SEARCH[0] <= T <= T_SEARCH[1]:
        return problems + ["closest_T outside the search bracket"]

    def dist(T):
        x3 = hbar * w31 / (k_B * T)
        x2 = hbar * (w31 - w32) / (k_B * T)
        g = (1.0, math.exp(-min(x2, 745.0)), math.exp(-min(x3, 745.0)))
        s = sum(g)
        return math.sqrt(sum((a - b / s) ** 2 for a, b in zip(p, g)))

    d = dist(T)
    if not _close(r["distance"], d, 1e-9, 1e-12):
        problems.append("distance is not the distance at closest_T")
    # closest_T is resolved to 0.01 K: moving 0.02 K must not get closer
    for T2 in (T - 0.02, T + 0.02):
        if T_SEARCH[0] <= T2 <= T_SEARCH[1] and dist(T2) < d - 1e-12:
            problems.append("closest_T is not a local minimum of the distance")
    if bool(r["is_thermal"]) != (r["distance"] < THERMAL_THRESHOLD):
        problems.append("is_thermal disagrees with distance")
    return problems


def _rates_row(r: dict, meta: dict) -> list:
    omega = float(meta["omega"])
    aw, am = r["alpha_W"], r["alpha_M"]
    if not (aw >= 0.0 and am >= 0.0):
        return ["alpha < 0"]
    total = aw + am
    problems = []
    n_w, n_m = bose(omega, T_W), bose(omega, T_M)
    if not _close(r["n_eff"], (aw * n_w + am * n_m) / total, 1e-9):
        problems.append("n_eff is not the channel-weighted occupation")
    if not n_m * (1 - 1e-9) <= r["n_eff"] <= n_w * (1 + 1e-9):
        problems.append("n_eff outside [n(T_M), n(T_W)]")
    if not T_M * (1 - 1e-9) <= r["T_eff"] <= T_W * (1 + 1e-9):
        problems.append("T_eff outside [T_M, T_W]")
    elif not _close(bose(omega, r["T_eff"]), r["n_eff"], 1e-8):
        problems.append("T_eff does not match n_eff")
    if not (_close(r["gamma_down_over_gamma0"], total * (1 + r["n_eff"]), 1e-9)
            and _close(r["gamma_up_over_gamma0"], total * r["n_eff"], 1e-9)):
        problems.append("rates disagree with alpha and n_eff")
    return problems


def _crossover_row(r: dict, meta: dict, bracket) -> list:
    aw, am = r["alpha_W"], r["alpha_M"]
    problems = []
    if not (aw >= 0.0 and am >= 0.0):
        problems.append("alpha < 0")
    if not float(meta["omega"]) == r["omega"]:
        problems.append("omega differs from the config")
    if not bracket[0] <= r["z_star"] <= bracket[1]:
        problems.append("z_star outside the bracket")
    if not abs(aw - am) < 1e-9 * (aw + am):
        problems.append("alpha_W != alpha_M at z_star")
    return problems


def _far_end_check(records: list) -> str | None:
    """alpha_W + alpha_M -> 1: the last row is the closest to 1 of all."""
    dev = [abs(r["alpha_W"] + r["alpha_M"] - 1.0) if r is not None else None
           for r in records]
    if dev and dev[-1] is not None and dev[-1] > min(d for d in dev if d is not None) + 1e-12:
        return "alpha_W + alpha_M does not approach 1 at the far end"
    return None


def _compare(r: dict, ref: dict) -> list:
    problems = []
    for key, value in ref.items():
        if key == "error":
            continue
        if key in EXACT_COLUMNS:
            if bool(r[key]) != bool(value):
                problems.append(f"{key} differs from reference")
            continue
        rel, abs_ = REFERENCE_TOL.get(key, DEFAULT_TOL)
        if not _close(r[key], value, rel, abs_):
            problems.append(f"{key}={r[key]!r} differs from reference {value!r}")
    return problems


def check_command(cmd, exit_code: int, out_path, reference: dict | None) -> CommandOutcome:
    """Verdict for every row ``cmd`` owes, from its exit code and output.

    ``reference`` is the recorded output of the same config at the seed
    commit (``{"columns": ..., "rows": ...}``, rows None when the command
    failed there), or None when no reference applies.
    """
    keys = cmd.expected_keys()
    if exit_code not in (0, 3):
        return CommandOutcome(["bad"] * len(keys), [f"exit code {exit_code}"])
    if not out_path.exists():
        if cmd.command == "crossover" and exit_code == 3:
            return CommandOutcome(["error"])
        return CommandOutcome(["bad"] * len(keys), ["no output written"])
    out_bytes = out_path.stat().st_size
    try:
        meta, columns, rows = read_output(out_path, cmd.fmt)
    except (OSError, ValueError, KeyError) as exc:
        return CommandOutcome(["bad"] * len(keys), [f"unreadable output: {exc}"], out_bytes)
    if len(rows) != len(keys):
        return CommandOutcome(["bad"] * len(keys),
                              [f"{len(rows)} rows, expected {len(keys)}"], out_bytes)

    ref_rows = None
    if reference is not None and reference["rows"] is not None:
        ref_rows = [dict(zip(reference["columns"], row)) for row in reference["rows"]]
    status, problems, records = [], [], []
    for i, (row, (delta, z)) in enumerate(zip(rows, keys)):
        r = dict(zip(columns, row))
        records.append(None)
        if r.get("error") is not None:
            status.append("error")
            continue
        found = []
        if r.get("delta") != delta or (z is not None and r.get("z") != z):
            found.append("row is not at the configured (delta, z)")
        elif any(v is None for key, v in r.items() if key != "error"):
            found.append("missing value in a row without error")
        elif cmd.command == "thermal-track":
            found = _thermal_track_row(r, meta)
        elif cmd.command == "rates":
            found = _rates_row(r, meta)
            records[-1] = r
        else:
            found = _crossover_row(r, meta, cmd.bracket)
        if not found and ref_rows is not None and ref_rows[i].get("error") is None:
            found = _compare(r, ref_rows[i])
        status.append("bad" if found else "ok")
        problems.extend(f"row {i}: {p}" for p in found)
    if cmd.command == "rates":
        # a failed row breaks the grid's far end; the check then skips it
        far = _far_end_check(records)
        if far and status[-1] == "ok":
            status[-1] = "bad"
            problems.append(f"row {len(rows) - 1}: {far}")
    failed_rows = any(s == "error" for s in status)
    if (exit_code == 3) != failed_rows:
        problems.append(f"exit code {exit_code} with {sum(s == 'error' for s in status)} error rows")
        status = ["bad" if s == "ok" else s for s in status]
    return CommandOutcome(status, problems, out_bytes)
