"""The benchmark's workloads: an INI config per seed and the acceptance
checks its report must meet.

Each workload is one experiment driver on the default cap chart (n = 3,
c = 0.6) at a reduced size that keeps its slow layer dominant; README.md
says which layer and why.  The checks mirror tests/test_acceptance.py at
the contract tolerances.
"""
from __future__ import annotations

import math

CAP = {"kind": "cap", "n": "3", "c": "0.6"}

WORKLOADS = {
    # C4's path: nearest_direction at batch 1 inside the line-cone cuts
    "incidence": {
        "experiment": "cone-incidence",
        "sections": {
            "manifold": CAP,
            "cone-incidence": {"a": "0.3", "sweep_lines": "4", "check_lines": "4"},
        },
    },
    # C7's planar dust: covering counts of 1M projected points
    "projection": {
        "experiment": "project-dim",
        "sections": {
            "manifold": CAP,
            "fractal": {"placement": "planar", "m": "4", "ratio": repr(2.0 ** -2.5),
                        "level": "10"},
            "project-dim": {"x_samples": "8", "k_min": "4", "k_max": "10",
                            "band_lo": "0.7", "band_hi": "0.9"},
        },
    },
    # C3's n = 3 sweep: Monte Carlo slab volumes with batched frames
    "slab-volume": {
        "experiment": "pair-volume",
        "sections": {
            "manifold": CAP,
            "pair-volume": {"pairs_per_u": "1", "samples": "250000"},
        },
    },
}


def config_text(workload: dict, seed: int) -> str:
    sections = {"run": {"experiments": workload["experiment"], "seed": str(seed)},
                **workload["sections"]}
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    return "\n".join(lines)


def _check_incidence(rep: dict, n: int) -> list[str]:
    f, c = rep["fits"], rep["checks"]
    problems = []
    for key in ("slope_min", "slope_max"):
        if not abs(f[key] - n) <= 0.3:
            problems.append(f"{key} {f[key]} not within 0.3 of {n}")
    if not 0.0 < f["constant_lo"] <= f["constant_hi"] < math.inf:
        problems.append(f"constants {f['constant_lo']}, {f['constant_hi']} not finite and ordered")
    for key in ("point_violations", "component_violations"):
        if c[key] != 0:
            problems.append(f"{key} = {c[key]}")
    return problems


def _check_projection(rep: dict, n: int) -> list[str]:
    frac = rep["fits"].get("in_band_fraction")
    if frac is None or not frac >= 0.95:
        return [f"in_band_fraction {frac} below 0.95"]
    return []


def _check_slab(rep: dict, n: int) -> list[str]:
    f = rep["fits"]
    problems = []
    for key, target in (("d_exponent", -(n - 2)), ("delta_exponent", 2 * n - 3)):
        if f.get(key) is None or not abs(f[key] - target) <= 0.25:
            problems.append(f"{key} {f.get(key)} not within 0.25 of {target}")
    if f.get("r2") is None or not f["r2"] >= 0.9:
        problems.append(f"r2 {f.get('r2')} below 0.9")
    return problems


_CHECKS = {
    "cone-incidence": _check_incidence,
    "project-dim": _check_projection,
    "pair-volume": _check_slab,
}


def check_report(rep: dict) -> list[str]:
    """Acceptance problems of one canonical report; empty when it passes."""
    problems = []
    if rep.get("status") != "complete":
        problems.append(f"status {rep.get('status')}")
    if rep.get("verdict") != "pass":
        problems.append(f"verdict {rep.get('verdict')}")
    if problems:
        return problems
    n = rep["config"]["chart"]["n"]
    return _CHECKS[rep["experiment"]](rep, n)
