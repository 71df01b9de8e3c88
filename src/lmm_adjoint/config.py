"""Flat key = value experiment configuration.

The format is deliberately structure-free: one ``key = value`` pair per line,
``#`` comments, an optional ``[experiment-kind]`` header naming the intended
experiment.  Parsing and serialization round-trip exactly.  Each
experiment's keys are declared once, in ``CONFIG_REFERENCE``, with their
parser, default and documentation; ``settings`` reads a config through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .tableaus import ConfigError, tableau


EXPERIMENT_KINDS = ("ode-converge", "relax-forward", "relax-adjoint",
                    "control-jinxin", "control-broadwell")


@dataclass
class Config:
    """Parsed configuration: the experiment kind plus raw string values."""

    kind: str | None = None
    values: dict[str, str] = field(default_factory=dict)


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




# one declaration per key, grouped by experiment ---------------------------

@dataclass(frozen=True)
class Key:
    """A config key: the parser of its value, its default written as a config
    value (None: the key is required) and its documentation."""

    parse: Callable[[str], object]
    default: str | None
    doc: str


def _choice(*options):
    def parse(raw):
        if raw not in options:
            raise ValueError(f"{raw!r} not in {list(options)}")
        return raw
    return parse


def _list(item, increasing=False):
    """Comma or blank separated items, at least one."""
    def parse(raw):
        vals = [item(tok) for tok in raw.replace(",", " ").split()]
        if not vals:
            raise ValueError("needs at least one value")
        if increasing and any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError(f"{raw!r} is not strictly increasing")
        return vals
    return parse


def _finite(raw):
    """A float other than inf, -inf and nan."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


def _bounded(item, low=None, what="value"):
    """``item`` that is at least ``low``, or positive without one."""
    def parse(raw):
        value = item(raw)
        if value <= 0 if low is None else value < low:
            bound = "positive" if low is None else f"at least {low}"
            raise ValueError(f"{what} must be {bound}, got {raw!r}")
        return value
    return parse


def _float_or(word, number):
    """``number``, or ``word`` for a value the experiment works out."""
    return lambda raw: raw if raw == word else number(raw)


_positive = _bounded(_finite)
_eps = _bounded(_finite, what="eps")
_nx = _bounded(int, 3)  # the grid's own minimum
_count = _bounded(int, 0)


# the horizon of each ode-converge study when T = study; full-system's exact
# state 1/(1-t) is infinite at t = 1
_STUDY_HORIZONS = {"const-fy": 1.0, "quadratic-fy": 1.0, "full-system": 0.9}

_DESCENT = {
    "eps": Key(_eps, "1e-2", "relaxation parameter"),
    "scheme": Key(tableau, "BDF2", "BDF tableau"),
    "sigma0": Key(_positive, "0.1", "initial step size"),
    "bb_variant": Key(_choice("bb2", "bb1"), "bb2", "bb2 | bb1"),
    "filter_every": Key(_count, "0", "TV-filter cadence, 0 = off"),
    "save_every": Key(_count, "0", "control snapshot cadence, 0 = final only"),
}

CONFIG_REFERENCE = {
    "ode-converge": {
        "study": Key(_choice(*_STUDY_HORIZONS), None,
                     " | ".join(_STUDY_HORIZONS) + " (built-in problem)"),
        "schemes": Key(_list(tableau), None,
                       "comma list of tableau names, e.g. ExplicitEuler,AB3,"
                       "AM4 (AM4-270: the printed AM4 variant)"),
        "n_list": Key(_list(_bounded(int, 1), increasing=True),
                      "40,80,160,320,640",
                      "strictly increasing step counts"),
        "T": Key(_float_or("study", _positive), "study",
                 "final time; 'study' is " + ", ".join(
                     f"{t:g} for {s}" for s, t in _STUDY_HORIZONS.items())),
    },
    "relax-forward": {
        "flux": Key(_choice("linear", "burgers"), None, "linear | burgers"),
        "a": Key(_positive, "2.1", "characteristic speed"),
        "eps": Key(_eps, "1e-2", "relaxation parameter"),
        "x_left": Key(_finite, "0", "left end of the domain"),
        "x_right": Key(_finite, "6", "right end of the domain"),
        "nx": Key(_nx, "640", "grid points, inclusive endpoints"),
        "dt": Key(_float_or("aligned", _positive), "aligned",
                  "time step; 'aligned' sets dt = dx/a"),
        "T": Key(_positive, "1.0", "final time"),
        "scheme": Key(tableau, "BDF3", "BDF tableau name"),
        "boundary": Key(_choice("periodic", "clamp"), "periodic",
                        "periodic | clamp"),
        "u0_center": Key(_finite, "3", "Gaussian initial data centre"),
        "u0_width": Key(_positive, "1", "Gaussian initial data width"),
        "output_times": Key(_list(_float_or("T", _finite)), "T",
                            "comma list of snapshot times; 'T' is the final "
                            "time"),
        "run_name": Key(str, "forward", "snapshot filename prefix"),
    },
    "relax-adjoint": {
        "eps_list": Key(_list(_eps), "1,1e-1,1e-2,1e-3,1e-4",
                        "relaxation parameters"),
        "nx_list": Key(_list(_nx, increasing=True), "40,80,160,320,640",
                       "strictly increasing grid ladder"),
        "a": Key(_positive, "2.1", "characteristic speed"),
        "x_left": Key(_finite, "0", "left end of the periodic domain"),
        "x_right": Key(_finite, "6", "right end of the periodic domain"),
        "scheme": Key(tableau, "BDF2", "BDF tableau"),
        "T": Key(_positive, "1.0", "backward horizon"),
        "terminal_center": Key(_finite, "3", "Gaussian terminal data centre"),
        "terminal_width": Key(_positive, "1", "Gaussian terminal data width"),
        "oracle_eps_max": Key(_finite, "5e-3",
                              "use the transport oracle for eps < this; "
                              "larger eps rows use a nested fine-grid "
                              "self-reference"),
    },
    "control-jinxin": {
        "nx": Key(_nx, "120", "grid points"),
        "dt": Key(_positive, "0.05",
                  "time step; the speed a = dx/dt keeps feet nodal"),
        "T": Key(_positive, "3.0", "horizon"),
        "iterations": Key(_count, "30", "descent iterations"),
        **_DESCENT,
    },
    "control-broadwell": {
        "nx": Key(_nx, "320", "grid points"),
        "dt": Key(_positive, "0.01", "time step"),
        "T": Key(_positive, "0.15", "horizon"),
        "c": Key(_positive, "1.0", "kinetic speed"),
        "iterations": Key(_count, "70", "descent iterations"),
        **_DESCENT,
    },
}


def settings(cfg: Config, kind: str) -> dict:
    """The parsed value of every key of ``kind``, from ``cfg`` or its default.

    Raises ``ConfigError`` for a key ``kind`` does not declare, and, naming
    the key, for a missing required key or a value its parser rejects.
    """
    table = CONFIG_REFERENCE[kind]
    unknown = sorted(set(cfg.values) - set(table))
    if unknown:
        raise ConfigError(f"unknown keys for {kind!r}: {unknown}")
    values = {}
    for name, key in table.items():
        raw = cfg.values.get(name, key.default)
        if raw is None:
            raise ConfigError(f"missing required key {name!r}")
        try:
            values[name] = key.parse(raw)
        except ValueError as exc:
            raise ConfigError(f"key {name!r}: {exc}") from None
    return values


def config_reference_text() -> str:
    lines = ["Configuration keys per experiment (flat 'key = value' format).",
             ""]
    for kind, table in CONFIG_REFERENCE.items():
        lines.append(f"[{kind}]")
        for name, key in table.items():
            default = ("required" if key.default is None
                       else f"default {key.default}")
            lines.append(f"  {name:16s} {key.doc} ({default})")
        lines.append("")
    return "\n".join(lines)
