"""Command-line front end: INI config parsing, dispatch, report emission.

Exit codes: 0 when every experiment verdict is "pass", 1 when any verdict
is "fail" or "insufficient", 2 on a runtime error (a partial report with
status "aborted" is still written).
"""
from __future__ import annotations

import argparse
import configparser
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import experiments as ex
from . import sets

EXPERIMENT_NAMES = tuple(ex.EXPERIMENTS)

NEEDS_FRACTAL = {"project-dim", "exceptional-set", "cone-membership", "incidence-count"}

_PLACEMENTS = (*sets._PLACEMENTS, "product-axes")

# the chart when no [manifold] section or key says otherwise
_DEFAULT_MANIFOLD = {"kind": "cap", "n": 3, "c": 0.6}

# per-experiment key schema: name -> (kind, constraint description or None)
_INT = "int"
_FLOAT = "float"
_FLOATS = "float_list"
_SCHEMAS = {
    "manifold-info": {"samples": (_INT, "positive")},
    "cinematic-check": {
        "pairs": (_INT, "positive"),
        "radius": (_FLOAT, "in (0, 1]"),
        "grid": (_INT, ">= 9"),
        "hi_lo_max": (_FLOAT, "positive"),
        "stability_tol": (_FLOAT, "positive"),
    },
    "pair-volume": {
        "u_ladder": (_FLOATS, "each in (0, 1)"),
        "pairs_per_u": (_INT, "positive"),
        "deltas": (_FLOATS, "dyadic"),
        "samples": (_INT, "positive"),
        "tol_d": (_FLOAT, "positive"),
        "tol_delta": (_FLOAT, "positive"),
        "min_hits": (_INT, "positive"),
    },
    "cone-incidence": {
        "a": (_FLOAT, "in (0, 1)"),
        "sweep_lines": (_INT, "positive"),
        "check_lines": (_INT, "positive"),
        "deltas": (_FLOATS, "dyadic"),
        "samples": (_INT, "positive"),
        "tol": (_FLOAT, "positive"),
        "component_delta": (_FLOAT, "dyadic"),
    },
    "config-bound": {
        "s": (_FLOAT, "positive"),
        "s_prime": (_FLOAT, ">= 0"),
        "deltas": (_FLOATS, "dyadic"),
        "c_const": (_FLOAT, "positive"),
        "tol": (_FLOAT, "positive"),
    },
    "project-dim": {
        "x_samples": (_INT, "positive"),
        "k_min": (_INT, ">= 1"),
        "k_max": (_INT, ">= 1"),
        "band_lo": (_FLOAT, None),
        "band_hi": (_FLOAT, None),
        "quantile": (_FLOAT, "in (0, 1]"),
        "collapse_x": (_FLOATS, "each in [0, 1]"),
        "collapse_max": (_FLOAT, "positive"),
    },
    "exceptional-set": {
        "s_grid": (_FLOATS, "each in (0, n)"),
        "x_resolution_exp": (_INT, "in [3, 12]"),
        "k_min": (_INT, ">= 1"),
        "k_max": (_INT, ">= 1"),
        "tol": (_FLOAT, "positive"),
    },
    "cone-membership": {
        "delta": (_FLOAT, "dyadic"),
        "pairs": (_INT, "positive"),
        "xgrid": (_INT, ">= 9"),
        "tol": (_FLOAT, "positive"),
    },
    "incidence-count": {
        "collapse_x": (_FLOATS, "each in [0, 1]"),
        "a": (_FLOAT, "in (0, 1)"),
        "delta": (_FLOAT, "dyadic"),
        "z_samples": (_INT, "positive"),
        "k_min": (_INT, ">= 1"),
        "k_max": (_INT, ">= 1"),
        "tol": (_FLOAT, "positive"),
        "hypothesis_slack": (_FLOAT, "positive"),
    },
}

# keys an experiment has no default for, checked once experiments are chosen
_REQUIRED = {"config-bound": ("s", "s_prime")}

_RUN_KEYS = {"experiments", "seed", "out_dir"}
_MANIFOLD_KEYS = {"kind", "n", "c", "amplitude", "frequency"}
_FRACTAL_KEYS = {"m", "ratio", "level", "placement", "n", "axes", "rotate_to_x"}


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class ExperimentConfig:
    experiments: list
    manifold: dict
    fractal: dict | None
    params: dict = field(default_factory=dict)
    seed: int = 0
    out_dir: str = "reports"


def _parse_scalar(raw, kind, path, errors):
    try:
        if kind == _INT:
            return int(raw)
        if kind == _FLOAT:
            return float(raw)
        if kind == _FLOATS:
            return [float(t) for t in raw.replace(",", " ").split()]
    except ValueError:
        errors.append(f"{path}: cannot parse {raw!r} as {kind}")
    return None


def _is_dyadic(v, n) -> bool:
    try:
        sets.scale_exponent(v)
    except sets.ScaleError:
        return False
    return True


# constraint named in _SCHEMAS -> predicate on (value, ambient dimension n)
_CONSTRAINTS = {
    "positive": lambda v, n: v > 0,
    ">= 0": lambda v, n: v >= 0,
    ">= 1": lambda v, n: v >= 1,
    ">= 9": lambda v, n: v >= 9,
    "in (0, 1)": lambda v, n: 0 < v < 1,
    "each in (0, 1)": lambda v, n: 0 < v < 1,
    "in (0, 1]": lambda v, n: 0 < v <= 1,
    "each in [0, 1]": lambda v, n: 0 <= v <= 1,
    "in [3, 12]": lambda v, n: 3 <= v <= 12,
    "each in (0, n)": lambda v, n: 0 < v < n,
    "dyadic": _is_dyadic,
}


def _check_constraint(value, constraint, path, errors, n):
    if value is None or constraint is None:
        return
    vals = value if isinstance(value, list) else [value]
    if not vals:
        errors.append(f"{path}: empty list")
        return
    ok = _CONSTRAINTS[constraint]
    for v in vals:
        if not ok(v, n):
            errors.append(f"{path}: value {v} outside {constraint}")


def _parse_manifold(cp, errors) -> dict:
    out = dict(_DEFAULT_MANIFOLD)
    if not cp.has_section("manifold"):
        return out
    sec = cp["manifold"]
    for key in sec:
        if key not in _MANIFOLD_KEYS:
            errors.append(f"manifold.{key}: unknown key")
    kind = sec.get("kind", out["kind"])
    if kind not in ("cap", "perturbed-cap"):
        errors.append(f"manifold.kind: {kind!r} not one of cap, perturbed-cap")
    out["kind"] = kind
    n = _parse_scalar(sec.get("n", str(out["n"])), _INT, "manifold.n", errors)
    if n is not None:
        if n < 3:
            errors.append(f"manifold.n: ambient dimension {n} below 3")
        out["n"] = n
    c = _parse_scalar(sec.get("c", repr(out["c"])), _FLOAT, "manifold.c", errors)
    if c is not None:
        if not (-1.0 < c < 1.0) or c == 0.0:
            errors.append(
                f"manifold.c: height {c} outside the admissible range (-1,0) u (0,1)"
            )
        out["c"] = c
    for key in ("amplitude", "frequency"):
        if key in sec:
            v = _parse_scalar(sec[key], _FLOAT, f"manifold.{key}", errors)
            if v is not None:
                out[key] = v
    return out


def _parse_fractal(cp, n_ambient, errors):
    if not cp.has_section("fractal"):
        return None
    sec = cp["fractal"]
    for key in sec:
        if key not in _FRACTAL_KEYS:
            errors.append(f"fractal.{key}: unknown key")
    placement = sec.get("placement", "axis")
    if placement not in _PLACEMENTS:
        errors.append(
            f"fractal.placement: {placement!r} not one of {', '.join(_PLACEMENTS)}"
        )
    out = {"placement": placement, "n": n_ambient}
    if placement == "product-axes":
        axes = []
        raw = sec.get("axes", "")
        if not raw:
            errors.append("fractal.axes: required for product-axes placement")
        for tok in raw.replace(",", " ").split():
            parts = tok.split(":")
            try:
                if parts[0] == "cantor" and len(parts) == 4:
                    axes.append(("cantor", int(parts[1]), float(parts[2]), int(parts[3])))
                elif parts[0] == "uniform" and len(parts) == 2:
                    axes.append(("uniform", int(parts[1])))
                elif parts[0] == "point" and len(parts) == 1:
                    axes.append(("point",))
                else:
                    errors.append(f"fractal.axes: bad axis spec {tok!r}")
            except ValueError:
                errors.append(f"fractal.axes: bad axis spec {tok!r}")
        out["axes"] = axes
    else:
        # dust presets: default similarity dimension 0.8 in the ambient space
        m = _parse_scalar(sec.get("m", "2"), _INT, "fractal.m", errors)
        ratio = _parse_scalar(sec.get("ratio", repr(2.0 ** -1.25)), _FLOAT,
                              "fractal.ratio", errors)
        level = _parse_scalar(sec.get("level", "10"), _INT, "fractal.level", errors)
        if m is not None and m < 1:
            errors.append(f"fractal.m: branch count {m} below 1")
        if ratio is not None and not (0.0 < ratio <= 0.5):
            errors.append(f"fractal.ratio: {ratio} outside (0, 0.5]")
        if level is not None and level < 1:
            errors.append(f"fractal.level: {level} below 1")
        out.update({"m": m, "ratio": ratio, "level": level})
    if "rotate_to_x" in sec:
        rot = _parse_scalar(sec["rotate_to_x"], _FLOATS, "fractal.rotate_to_x", errors)
        if rot is not None:
            if placement != "product-axes":
                errors.append("fractal.rotate_to_x: only valid with product-axes placement")
            out["rotate_to_x"] = rot
    return out


def parse_config(path) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"])
    except configparser.Error as e:
        raise ConfigError([f"parse error: {e}"])
    errors: list[str] = []
    known_sections = {"run", "manifold", "fractal", *EXPERIMENT_NAMES}
    for name in cp.sections():
        if name not in known_sections:
            errors.append(f"{name}: unknown section")
    seed, out_dir = 0, "reports"
    experiments: list[str] = []
    if cp.has_section("run"):
        sec = cp["run"]
        for key in sec:
            if key not in _RUN_KEYS:
                errors.append(f"run.{key}: unknown key")
        if "experiments" in sec:
            experiments = sec["experiments"].replace(",", " ").split()
            for nm in experiments:
                if nm not in EXPERIMENT_NAMES:
                    errors.append(f"run.experiments: unknown experiment {nm!r}")
        if "seed" in sec:
            v = _parse_scalar(sec["seed"], _INT, "run.seed", errors)
            if v is not None:
                if v < 0:
                    errors.append(f"run.seed: {v} is negative")
                else:
                    seed = v
        if "out_dir" in sec:
            out_dir = sec["out_dir"]
    manifold = _parse_manifold(cp, errors)
    fractal = _parse_fractal(cp, manifold.get("n", 3), errors)
    params: dict = {}
    for name in EXPERIMENT_NAMES:
        if not cp.has_section(name):
            continue
        schema = _SCHEMAS[name]
        sec = cp[name]
        kwargs = {}
        for key in sec:
            if key not in schema:
                errors.append(f"{name}.{key}: unknown key")
                continue
            kind, constraint = schema[key]
            v = _parse_scalar(sec[key], kind, f"{name}.{key}", errors)
            _check_constraint(v, constraint, f"{name}.{key}", errors, manifold["n"])
            if v is not None:
                kwargs[key] = v
        if "k_min" in kwargs or "k_max" in kwargs:
            lo = kwargs.pop("k_min", 4)
            hi = kwargs.pop("k_max", 10)
            if hi - lo < 3:
                errors.append(f"{name}.k_max: window [{lo},{hi}] shorter than 4 scales")
            kwargs["k_window"] = (lo, hi)
        if "band_lo" in kwargs or "band_hi" in kwargs:
            lo = kwargs.pop("band_lo", None)
            hi = kwargs.pop("band_hi", None)
            if lo is None or hi is None or lo >= hi:
                errors.append(f"{name}.band_lo/band_hi: need band_lo < band_hi")
            else:
                kwargs["band"] = (lo, hi)
        if "c_const" in kwargs:
            kwargs["C"] = kwargs.pop("c_const")
        params[name] = kwargs
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(experiments, manifold, fractal, params, seed, out_dir)


def _check_required(cfg: ExperimentConfig) -> None:
    """Raise ConfigError naming every required key a selected experiment lacks."""
    missing = [f"{name}.{key}: required key missing"
               for name in cfg.experiments for key in _REQUIRED.get(name, ())
               if key not in cfg.params.get(name, {})]
    if missing:
        raise ConfigError(missing)


def _build_fractal(cfg: ExperimentConfig, chart):
    if cfg.fractal is None:
        # documented default: dimension-0.8 two-branch dust on the first axis
        return sets.build_cantor_dust(chart.n, 2, 2.0 ** -1.25, 10, placement="axis")
    p = cfg.fractal
    if p["placement"] == "product-axes":
        if "rotate_to_x" in p:
            fractal, _ = ex.make_collapsing_fractal(chart, np.array(p["rotate_to_x"]), p["axes"])
            return fractal
        return sets.product_fractal(p["axes"])
    return sets.build_cantor_dust(p["n"], p["m"], p["ratio"], p["level"],
                                  placement=p["placement"])


def dispatch(cfg: ExperimentConfig) -> int:
    chart = ex.chart_from_params(cfg.manifold)
    # out_dir goes to the sidecar, so the report bytes do not depend on it
    run_snapshot = {"seed": cfg.seed, "experiments": list(cfg.experiments)}
    worst = 0
    for name in cfg.experiments:
        fn = ex.EXPERIMENTS[name]
        kwargs = dict(cfg.params.get(name, {}))
        args = [chart]
        if name in NEEDS_FRACTAL:
            args.append(_build_fractal(cfg, chart))
        if name == "incidence-count" and "collapse_x" not in kwargs:
            rot = (cfg.fractal or {}).get("rotate_to_x")
            kwargs["collapse_x"] = rot if rot else [0.5] * chart.dim
        if name == "project-dim" and "collapse_x" in kwargs:
            kwargs["collapse_x"] = np.array(kwargs["collapse_x"])
        try:
            rep = fn(*args, seed=cfg.seed, **kwargs)
        except KeyboardInterrupt:
            rep = ex.ExperimentReport(
                name, {"run": run_snapshot}, cfg.seed, status="aborted",
                verdict="fail", error="interrupted",
            )
            rep.write(cfg.out_dir)
            print(f"{name}: interrupted, aborted report written", file=sys.stderr)
            return 2
        except Exception as e:
            rep = ex.ExperimentReport(
                name, {"run": run_snapshot}, cfg.seed, status="aborted",
                verdict="fail", error=f"{type(e).__name__}: {e}",
            )
            rep.write(cfg.out_dir)
            traceback.print_exc()
            print(f"{name}: runtime error, aborted report written", file=sys.stderr)
            return 2
        rep.config["run"] = run_snapshot
        paths = rep.write(cfg.out_dir)
        print(f"{name}: {rep.verdict} ({paths['report']})")
        if rep.verdict != "pass":
            worst = max(worst, 1)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="projlab",
        description="Seeded numerical experiments on projections along "
                    "sphere cross-section directions.",
        epilog="Subcommands: " + ", ".join(EXPERIMENT_NAMES),
    )
    parser.add_argument("experiment", nargs="?", choices=EXPERIMENT_NAMES,
                        help="experiment to run (overrides the config list)")
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--out-dir", help="report output directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--experiment", dest="experiment_flag",
                        choices=EXPERIMENT_NAMES,
                        help="experiment to run (same as the positional form)")
    args = parser.parse_args(argv)
    try:
        if args.config:
            cfg = parse_config(args.config)
        else:
            cfg = ExperimentConfig([], dict(_DEFAULT_MANIFOLD), None)
        chosen = args.experiment_flag or args.experiment
        if chosen:
            cfg.experiments = [chosen]
        _check_required(cfg)
    except ConfigError as e:
        for msg in e.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    if not cfg.experiments:
        print("no experiment selected: pass a subcommand or list some under "
              "[run] experiments", file=sys.stderr)
        return 2
    if args.out_dir:
        cfg.out_dir = args.out_dir
    if args.seed is not None:
        if args.seed < 0:
            print("config error: --seed must be nonnegative", file=sys.stderr)
            return 2
        cfg.seed = args.seed
    return dispatch(cfg)


if __name__ == "__main__":
    sys.exit(main())
