"""Experiment configuration: line-oriented key = value with [section] headers."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

__all__ = ["ExperimentConfig", "load_config"]

_MAP_PARAM_KEYS = {"a", "d", "delta", "s", "c0", "c1", "expression",
                   "holder_const", "domain"}


@dataclass
class ExperimentConfig:
    preset: str
    map_params: dict
    r: float
    p: object                 # int or "auto"
    delta: float
    beta: float
    n_list: list
    M_list: list
    m_list: list
    q_list: list
    seeds: int
    rng_seed: int
    detector: str
    output_dir: Path
    entropy_m: list = field(default_factory=lambda: [1, 2, 3])
    bins: int = 200
    reference: str = "none"
    B_r: float = 1.0
    C_r: float = 1000.0
    tol_residual: float = 0.05
    tol_l1: float = 0.08
    tree_levels: int = 2
    tree_budget: int = 10 ** 6
    gibbs_instances: int = 0
    gibbs_samples: int = 20000
    jobs: int = 1

    def validate(self):
        if self.r <= 1.0:
            raise ConfigError("r must exceed 1")
        if self.delta <= 0:
            raise ConfigError("delta must be positive")
        for name in ("n_list", "M_list", "m_list", "q_list", "entropy_m"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be nonempty")
        if self.detector not in ("tree", "surrogate", "both"):
            raise ConfigError(f"unknown detector {self.detector!r}")
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


def load_config(path):
    """Parse and validate an experiment config file."""
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
    try:
        msec = cp["map"]
        rsec = cp["run"]
        osec = cp["output"] if cp.has_section("output") else {}
    except KeyError as exc:
        raise ConfigError(f"missing section {exc}") from exc
    try:
        params = {}
        for key in msec:
            if key in _MAP_PARAM_KEYS:
                params[key] = msec[key] if key in ("expression", "domain") \
                    else float(msec[key])
        p_raw = rsec.get("p", "auto").strip()
        cfg = ExperimentConfig(
            preset=msec.get("preset", "doubling"),
            map_params=params,
            r=float(msec.get("r", 2.0)),
            p="auto" if p_raw == "auto" else int(p_raw),
            delta=float(rsec.get("delta", 0.1)),
            beta=float(rsec.get("beta", 0.1)),
            n_list=_ints(rsec.get("n", "10")),
            M_list=_ints(rsec.get("M", "2")),
            m_list=_ints(rsec.get("m", "1")),
            q_list=_ints(rsec.get("q", "2,4")),
            seeds=int(rsec.get("seeds", "1000")),
            rng_seed=int(rsec.get("rng_seed", "0")),
            detector=rsec.get("detector", "surrogate").strip(),
            output_dir=Path(osec.get("dir", "out")),
            entropy_m=_ints(rsec.get("entropy_m", "1,2,3")),
            bins=int(rsec.get("bins", "200")),
            reference=rsec.get("reference", "none").strip(),
            B_r=float(rsec.get("b_r", "1.0")),
            C_r=float(rsec.get("c_r", "1000")),
            tol_residual=float(rsec.get("tol_residual", "0.05")),
            tol_l1=float(rsec.get("tol_l1", "0.08")),
            tree_levels=int(rsec.get("tree_levels", "2")),
            tree_budget=int(rsec.get("tree_budget", str(10 ** 6))),
            gibbs_instances=int(rsec.get("gibbs_instances", "0")),
            gibbs_samples=int(rsec.get("gibbs_samples", "20000")),
        )
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad value: {exc}") from exc
    return cfg.validate()
