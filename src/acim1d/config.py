"""Experiment configuration: line-oriented key = value with [section] headers."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

__all__ = ["ExperimentConfig", "load_config"]

@dataclass
class ExperimentConfig:
    """Every setting of a run, with its default."""

    preset: str = "doubling"
    map_params: dict = field(default_factory=dict)
    r: float = 2.0
    p: object = "auto"        # int or "auto"
    delta: float = 0.1
    beta: float = 0.1
    n_list: list = field(default_factory=lambda: [10])
    M_list: list = field(default_factory=lambda: [2])
    m_list: list = field(default_factory=lambda: [1])
    q_list: list = field(default_factory=lambda: [2, 4])
    seeds: int = 1000
    rng_seed: int = 0
    detector: str = "surrogate"
    output_dir: Path = Path("out")
    entropy_m: list = field(default_factory=lambda: [1, 2, 3])
    bins: int = 200
    reference: str = "none"
    B_r: float = 1.0
    tol_residual: float = 0.05
    tol_l1: float = 0.08
    tree_levels: int = 2
    tree_budget: int = 10 ** 6
    gibbs_instances: int = 0
    gibbs_samples: int = 20000

    def validate(self):
        # each comparison is False on NaN, so NaN fails every range
        if not 1.0 < self.r < math.inf:
            raise ConfigError(f"r must be finite and exceed 1, got {self.r}")
        for key, value in (("delta", self.delta), ("b_r", self.B_r),
                           ("tol_residual", self.tol_residual),
                           ("tol_l1", self.tol_l1)):
            if not 0 < value < math.inf:
                raise ConfigError(f"{key} must be finite and positive, "
                                  f"got {value}")
        if not 0 < self.beta < 1:
            # d_n <= 1 never exceeds a beta >= 1: the selection is empty
            raise ConfigError(f"beta must lie in (0, 1), got {self.beta}")
        for name, least in (("n_list", 1), ("M_list", 0), ("m_list", 1),
                            ("q_list", 1), ("entropy_m", 1), ("seeds", 1),
                            ("bins", 10), ("gibbs_instances", 0),
                            ("gibbs_samples", 1), ("tree_levels", 1),
                            ("tree_budget", 1)):
            value = getattr(self, name)
            if value == []:
                raise ConfigError(f"{name} must be nonempty")
            if min(value if isinstance(value, list) else [value]) < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
        if self.detector not in ("tree", "surrogate", "both"):
            raise ConfigError(f"unknown detector {self.detector!r}")
        if self.reference not in ("none", "uniform", "logistic"):
            raise ConfigError(f"unknown reference {self.reference!r}")
        if self.p != "auto" and (not isinstance(self.p, int) or self.p < 1):
            raise ConfigError("p must be a positive integer or 'auto'")
        return self

    def resolve_p(self, log_sup_fprime):
        """p = (4/delta) log(2 B_r log||f'||_inf / delta), rounded up."""
        if self.p != "auto":
            return int(self.p)
        if log_sup_fprime <= 0:
            raise ConfigError("p=auto needs an expanding map (log||f'|| > 0)")
        val = (4.0 / self.delta) * math.log(
            2.0 * self.B_r * log_sup_fprime / self.delta)
        return max(1, int(math.ceil(val)))


def _ints(s):
    return [int(v.strip()) for v in str(s).split(",") if v.strip()]


# section -> key -> (ExperimentConfig field, parser); field None puts the
# value in map_params under its key.  configparser strips every value.
_KEYS = {
    "map": {"preset": ("preset", str), "r": ("r", float),
            "expression": (None, str), "domain": (None, str),
            **{k: (None, float) for k in ("a", "d", "delta", "s", "c0", "c1",
                                          "holder_const")}},
    "run": {
        "p": ("p", lambda v: v if v == "auto" else int(v)),
        "delta": ("delta", float), "beta": ("beta", float),
        "n": ("n_list", _ints), "M": ("M_list", _ints),
        "m": ("m_list", _ints), "q": ("q_list", _ints),
        "seeds": ("seeds", int), "rng_seed": ("rng_seed", int),
        "detector": ("detector", str), "entropy_m": ("entropy_m", _ints),
        "bins": ("bins", int), "reference": ("reference", str),
        "b_r": ("B_r", float),
        "tol_residual": ("tol_residual", float), "tol_l1": ("tol_l1", float),
        "tree_levels": ("tree_levels", int),
        "tree_budget": ("tree_budget", int),
        "gibbs_instances": ("gibbs_instances", int),
        "gibbs_samples": ("gibbs_samples", int),
    },
    "output": {"dir": ("output_dir", Path)},
}


def load_config(path):
    """Parse and validate an experiment config file.  A key left out keeps
    its ExperimentConfig default; a missing [map] or [run], an unknown
    section and an unknown key raise ConfigError."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.optionxform = str  # keep keys case-sensitive: M and m both occur
    try:
        read = cp.read(path)
    except configparser.ParsingError as exc:
        line = exc.errors[0][0] if exc.errors else None
        raise ConfigError(str(exc), line=line) from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for name in ("map", "run"):
        if not cp.has_section(name):
            raise ConfigError(f"missing section '{name}'")
    values, params = {}, {}
    for name in cp.sections():
        if name not in _KEYS:
            raise ConfigError(f"unknown section [{name}]")
        for key, raw in cp[name].items():
            if key not in _KEYS[name]:
                raise ConfigError(f"unknown key {key!r} in [{name}]")
            fld, parse = _KEYS[name][key]
            try:
                value = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value: {exc}") from exc
            if fld is None:
                params[key] = value
            else:
                values[fld] = value
    return ExperimentConfig(map_params=params, **values).validate()
