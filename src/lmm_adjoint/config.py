"""Flat key = value experiment configuration.

The format is deliberately structure-free: one ``key = value`` pair per line,
``#`` comments, an optional ``[experiment-kind]`` header naming the intended
experiment.  Parsing and serialization round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field


EXPERIMENT_KINDS = ("ode-converge", "relax-forward", "relax-adjoint",
                    "control-jinxin", "control-broadwell")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass
class Config:
    """Parsed configuration: the experiment kind plus raw string values."""

    kind: str | None = None
    values: dict[str, str] = field(default_factory=dict)

    # typed getters -------------------------------------------------------

    def get_str(self, key, default=None, choices=None):
        raw = self.values.get(key)
        if raw is None:
            if default is None and choices is not None:
                raise ConfigError(f"missing required key {key!r}")
            raw = default
        if choices is not None and raw not in choices:
            raise ConfigError(f"key {key!r}: {raw!r} not in {sorted(choices)}")
        return raw

    def get_float(self, key, default=None):
        raw = self.values.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return float(default)
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: {raw!r} is not a number") from None

    def get_int(self, key, default=None):
        raw = self.values.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return int(default)
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: {raw!r} is not an integer") from None

    def get_int_list(self, key, default=None, increasing=False):
        raw = self.values.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            vals = list(default)
        else:
            try:
                vals = [int(tok) for tok in raw.replace(",", " ").split()]
            except ValueError:
                raise ConfigError(
                    f"key {key!r}: {raw!r} is not an integer list") from None
        if increasing and any(b <= a for a, b in zip(vals, vals[1:])):
            raise ConfigError(f"key {key!r} must be strictly increasing")
        return vals

    def get_float_list(self, key, default=None):
        raw = self.values.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return list(default)
        try:
            return [float(tok) for tok in raw.replace(",", " ").split()]
        except ValueError:
            raise ConfigError(f"key {key!r}: {raw!r} is not a number list") from None

    def get_str_list(self, key, default=None):
        raw = self.values.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return list(default)
        return [tok for tok in raw.replace(",", " ").split() if tok]


def parse_config(text: str) -> Config:
    """Parse the flat format; duplicate keys are a configuration error."""
    cfg = Config()
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            kind = stripped[1:-1].strip()
            if kind not in EXPERIMENT_KINDS:
                raise ConfigError(
                    f"line {lineno}: unknown experiment kind {kind!r}")
            cfg.kind = kind
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got "
                              f"{stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in cfg.values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        cfg.values[key] = value
    return cfg


def serialize_config(cfg: Config) -> str:
    lines = []
    if cfg.kind is not None:
        lines.append(f"[{cfg.kind}]")
    for key in cfg.values:
        lines.append(f"{key} = {cfg.values[key]}")
    return "\n".join(lines) + "\n"


def load_config(path) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# reference documentation for every key, grouped by experiment -------------

CONFIG_REFERENCE = {
    "ode-converge": {
        "study": "const-fy | quadratic-fy | full-system (built-in problem)",
        "schemes": "comma list of tableau names, e.g. ExplicitEuler,AB3,AM4 "
                   "(AM4-270: the printed AM4 variant)",
        "n_list": "strictly increasing step counts, e.g. 40,80,160,320,640",
        "T": "final time (defaults: 1.0 for the prescribed studies, 0.9 full-system)",
        "route": "dto | otd | both (default both)",
        "precision": "extended (long double, default for prescribed studies) | double",
    },
    "relax-forward": {
        "flux": "linear | burgers",
        "a": "characteristic speed (default 2.1)",
        "eps": "relaxation parameter (default 1e-2)",
        "x_left/x_right": "domain (default 0, 6)",
        "nx": "grid points, inclusive endpoints (default 640)",
        "dt": "time step; 'aligned' (default) sets dt = dx/a",
        "T": "final time (default 1.0)",
        "scheme": "BDF tableau name (default BDF3)",
        "boundary": "periodic | clamp (default periodic)",
        "u0_center/u0_width": "Gaussian initial data parameters (default 3, 1)",
        "output_times": "comma list of snapshot times (default T only)",
        "run_name": "snapshot filename prefix (default 'forward')",
    },
    "relax-adjoint": {
        "eps_list": "relaxation parameters (default 1,1e-1,1e-2,1e-3,1e-4)",
        "nx_list": "grid ladder (default 40,80,160,320,640)",
        "a": "characteristic speed (default 2.1)",
        "x_left/x_right": "periodic domain (default 0, 6)",
        "scheme": "BDF tableau (default BDF2)",
        "T": "backward horizon (default 1.0)",
        "terminal_center/terminal_width": "Gaussian terminal data (default 3, 1)",
        "oracle_eps_max": "use the transport oracle for eps < this (default 5e-3); "
                          "larger eps rows use a nested fine-grid self-reference",
    },
    "control-jinxin": {
        "nx": "grid points (default 120)",
        "dt": "time step (default 0.05; speed a = dx/dt keeps feet nodal)",
        "T": "horizon (default 3.0)",
        "eps": "relaxation parameter (default 1e-2)",
        "scheme": "BDF tableau (default BDF2)",
        "iterations": "descent iterations (default 30)",
        "sigma0": "initial step size (default 0.1)",
        "bb_variant": "bb2 (default) | bb1",
        "filter_every": "TV-filter cadence, 0 = off (default 0)",
        "save_every": "control snapshot cadence, 0 = final only (default 0)",
    },
    "control-broadwell": {
        "nx": "grid points (default 320)",
        "dt": "time step (default 0.01)",
        "T": "horizon (default 0.15)",
        "eps": "relaxation parameter (default 1e-2)",
        "c": "kinetic speed (default 1.0)",
        "scheme": "BDF tableau (default BDF2)",
        "iterations": "descent iterations (default 70)",
        "sigma0": "initial step size (default 0.1)",
        "bb_variant": "bb2 (default) | bb1",
        "filter_every": "TV-filter cadence, 0 = off (default 0)",
        "save_every": "control snapshot cadence, 0 = final only (default 0)",
    },
}


def config_reference_text() -> str:
    lines = ["Configuration keys per experiment (flat 'key = value' format).", ""]
    for kind in EXPERIMENT_KINDS:
        lines.append(f"[{kind}]")
        for key, doc in CONFIG_REFERENCE[kind].items():
            lines.append(f"  {key:24s} {doc}")
        lines.append("")
    return "\n".join(lines)
