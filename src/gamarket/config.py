"""Run configuration: a small line-oriented `key = value` format.

Blank lines and lines starting with `#` are ignored.  A `#` anywhere in a
string value, from the file or from an override, is rejected: everything
after `=` is the value, so an inline comment would otherwise become part
of a path or stock name.  Unknown keys are rejected so a typo cannot
silently fall back to a default.  A seed is always required; nothing in a
run may depend on wall-clock time.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from functools import partial

from .data import DEFAULT_STOCKS
from .errors import ConfigError
from .evolution import GAParams
from .neural import Hyperparams


@dataclass
class SimulationConfig:
    seed: int
    input_path: str
    players: int = 4
    agents_per_stock: int = 4
    stocks: tuple[str, ...] = DEFAULT_STOCKS
    total_supply: tuple[int, ...] = (10_000, 10_000, 10_000)
    window: int = 50
    evolution_cadence: int = 50
    days: int = 100
    p_cross: float = 0.6
    p_mut: float = 0.03
    epochs: int = 200
    learning_rate: float = 0.05
    weight_init_scale: float = 0.5
    initial_cash: float = 1_000_000.0
    output_dir: str = "out"

    def hyperparams(self) -> Hyperparams:
        return Hyperparams(epochs=self.epochs, learning_rate=self.learning_rate)

    def ga_params(self) -> GAParams:
        return GAParams(p_cross=self.p_cross, p_mut=self.p_mut)

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("p_cross", "p_mut", "learning_rate", "weight_init_scale", "initial_cash"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for f in fields(self):
            # "".join reads a str as itself and a tuple of str as its concatenation.
            if f.type in ("str", "tuple[str, ...]") and "#" in "".join(getattr(self, f.name)):
                raise ConfigError(
                    f"{f.name} must not contain '#' (a comment needs a line of its own), "
                    f"got {getattr(self, f.name)!r}"
                )
        if not self.output_dir:
            raise ConfigError("output_dir must not be empty")
        # Weights are drawn over [-scale, scale), whose width must be a finite float.
        if not (self.weight_init_scale > 0 and math.isfinite(2 * self.weight_init_scale)):
            raise ConfigError(
                "weight_init_scale must be > 0 and at most half the largest float, "
                f"got {self.weight_init_scale}"
            )
        if self.players < 2:
            raise ConfigError(f"players must be >= 2, got {self.players}")
        if self.agents_per_stock < 1:
            raise ConfigError(f"agents_per_stock must be >= 1, got {self.agents_per_stock}")
        if len(self.stocks) < 1:
            raise ConfigError("at least one stock is required")
        if len(set(self.stocks)) != len(self.stocks):
            raise ConfigError(f"duplicate stock names: {self.stocks}")
        if len(self.total_supply) != len(self.stocks):
            raise ConfigError(
                f"total_supply has {len(self.total_supply)} entries for {len(self.stocks)} stocks"
            )
        if not all(1 <= q < 2**63 for q in self.total_supply):  # shares are int64
            raise ConfigError(f"total_supply must lie in [1, 2**63) per stock: {self.total_supply}")
        if self.window < 2:
            raise ConfigError(f"window must be >= 2, got {self.window}")
        if self.evolution_cadence < 1:
            raise ConfigError(f"evolution_cadence must be >= 1, got {self.evolution_cadence}")
        if self.days < 0:
            raise ConfigError(f"days must be >= 0, got {self.days}")
        agents = self.agents_per_stock * len(self.stocks)
        if self.evolution_cadence < self.days and agents < 2:
            raise ConfigError(
                f"evolution needs at least 2 agents per player, got {agents}; "
                f"set evolution_cadence >= days ({self.days}) to run without evolving"
            )
        if not (self.initial_cash >= 0 and math.isfinite(self.players * self.initial_cash)):
            raise ConfigError(
                f"initial_cash must be >= 0 and finite over all {self.players} players, "
                f"got {self.initial_cash}"
            )
        self.hyperparams().validate()
        self.ga_params().validate()


def _parse_list(item, text: str) -> tuple:
    values = tuple(item(part.strip()) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError("empty list")
    return values


_SCALARS = {"int": int, "float": float, "str": str}


def _field_parser(annotation: str):
    """Parser for a string annotation: a scalar or `tuple[<scalar>, ...]`."""
    if annotation.startswith("tuple["):
        item = annotation.removeprefix("tuple[").removesuffix(", ...]")
        return partial(_parse_list, _SCALARS[item])
    return _SCALARS[annotation]


# Every field is a config key and fields without a default are required.  An
# unsupported annotation fails here, at import, rather than mis-parsing values.
_PARSERS = {f.name: _field_parser(f.type) for f in fields(SimulationConfig)}
_REQUIRED = tuple(f.name for f in fields(SimulationConfig) if f.default is MISSING)


def parse_config(path, overrides: dict | None = None) -> SimulationConfig:
    """Parse a config file, apply overrides, and validate the result.

    Overrides (typically command-line flags) win over file values.  Every
    parse failure names the file, line and key it came from.
    """
    raw: dict[str, object] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            raw[key] = _PARSERS[key](value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {value!r} for {key!r}") from None
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in _PARSERS:
                raise ConfigError(f"unknown override key {key!r}")
            raw[key] = value
    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"{path}: required key {key!r} is missing")
    # A single supply figure is shared by every stock.
    stocks = raw.get("stocks", DEFAULT_STOCKS)
    supply = raw.get("total_supply", (10_000,) * len(stocks))
    if len(supply) == 1 and len(stocks) > 1:
        supply = supply * len(stocks)
    raw["stocks"] = tuple(stocks)
    raw["total_supply"] = tuple(supply)
    config = SimulationConfig(**raw)  # type: ignore[arg-type]
    config.validate()
    return config


def resolved_text(config: SimulationConfig) -> str:
    """Render a config as re-parseable `key = value` lines."""
    out = ["# resolved configuration"]
    for f in fields(SimulationConfig):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        out.append(f"{f.name} = {value}")
    return "\n".join(out) + "\n"
