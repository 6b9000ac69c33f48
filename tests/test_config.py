"""Tests for config parsing, validation, and the resolved round trip."""

import pytest

from gamarket.config import SimulationConfig, parse_config, resolved_text
from gamarket.data import DEFAULT_STOCKS
from gamarket.errors import ConfigError

FULL_CONFIG = """\
# every recognised key, exercised once
seed = 42
input_path = data/prices.csv
players = 6
agents_per_stock = 3
stocks = AAA, BBB
total_supply = 1000, 2000
window = 12
evolution_cadence = 7
days = 30
p_cross = 0.7
p_mut = 0.05
epochs = 20
learning_rate = 0.1
weight_init_scale = 0.4
initial_cash = 5000.0
output_dir = results
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_defaults_validate():
    config = SimulationConfig(seed=1, input_path="prices.csv")
    config.validate()
    assert config.players == 4
    assert config.agents_per_stock == 4
    assert config.stocks == DEFAULT_STOCKS
    assert config.total_supply == (10_000, 10_000, 10_000)
    assert config.window == 50
    assert config.evolution_cadence == 50
    assert config.days == 100
    assert (config.p_cross, config.p_mut) == (0.6, 0.03)
    assert (config.epochs, config.learning_rate) == (200, 0.05)
    assert config.weight_init_scale == 0.5
    assert config.initial_cash == 1_000_000.0
    assert config.output_dir == "out"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"players": 1},
        {"agents_per_stock": 0},
        {"stocks": ()},
        {"stocks": ("A", "A"), "total_supply": (1, 1)},
        {"stocks": ("A", "B"), "total_supply": (1,)},
        {"stocks": ("A",), "total_supply": (0,)},
        {"window": 1},
        {"evolution_cadence": 0},
        {"days": -1},
        {"initial_cash": -1.0},
        {"epochs": 0},
        {"p_cross": 0.1, "p_mut": 0.2},
        {"seed": -1},
        {"initial_cash": float("nan")},
        {"initial_cash": float("inf")},
        {"weight_init_scale": float("inf")},
        {"weight_init_scale": 0.0},
        {"learning_rate": float("inf")},
    ],
)
def test_validate_rejects_bad_fields(kwargs):
    config = SimulationConfig(**{"seed": 1, "input_path": "x", **kwargs})
    with pytest.raises(ConfigError):
        config.validate()


def test_parse_full_config(tmp_path):
    config = parse_config(_write(tmp_path, FULL_CONFIG))
    assert config.seed == 42
    assert config.input_path == "data/prices.csv"
    assert config.players == 6
    assert config.agents_per_stock == 3
    assert config.stocks == ("AAA", "BBB")
    assert config.total_supply == (1000, 2000)
    assert config.window == 12
    assert config.evolution_cadence == 7
    assert config.days == 30
    assert config.p_cross == 0.7
    assert config.p_mut == 0.05
    assert config.epochs == 20
    assert config.learning_rate == 0.1
    assert config.weight_init_scale == 0.4
    assert config.initial_cash == 5000.0
    assert config.output_dir == "results"


def test_parse_minimal_config_uses_defaults(tmp_path):
    config = parse_config(_write(tmp_path, "seed = 7\ninput_path = p.csv\n"))
    assert config.seed == 7
    assert config.players == 4
    assert config.total_supply == (10_000,) * 3


def test_single_supply_figure_covers_every_stock(tmp_path):
    text = "seed = 1\ninput_path = p.csv\nstocks = A, B, C\ntotal_supply = 500\n"
    config = parse_config(_write(tmp_path, text))
    assert config.total_supply == (500, 500, 500)


def test_parse_errors_name_file_and_line(tmp_path):
    path = _write(tmp_path, "seed = 1\nbogus = 3\n")
    with pytest.raises(ConfigError, match=r":2: unknown key 'bogus'"):
        parse_config(path)
    path = _write(tmp_path, "seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match=r":2: duplicate key"):
        parse_config(path)
    path = _write(tmp_path, "seed 1\n")
    with pytest.raises(ConfigError, match=r":1: expected 'key = value'"):
        parse_config(path)
    path = _write(tmp_path, "seed = firefly\n")
    with pytest.raises(ConfigError, match=r":1: bad value 'firefly'"):
        parse_config(path)


def test_parse_requires_seed_and_input(tmp_path):
    with pytest.raises(ConfigError, match="'seed' is missing"):
        parse_config(_write(tmp_path, "input_path = p.csv\n"))
    with pytest.raises(ConfigError, match="'input_path' is missing"):
        parse_config(_write(tmp_path, "seed = 3\n"))
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "missing.cfg")


def test_overrides_win_and_none_is_skipped(tmp_path):
    path = _write(tmp_path, "seed = 1\ninput_path = p.csv\noutput_dir = here\n")
    config = parse_config(path, overrides={"seed": 99, "output_dir": None})
    assert config.seed == 99
    assert config.output_dir == "here"
    with pytest.raises(ConfigError, match="unknown override"):
        parse_config(path, overrides={"bogus": 1})


def test_comments_and_blank_lines_are_ignored(tmp_path):
    text = "\n# leading comment\n\nseed = 5\n   \ninput_path = p.csv  \n# trailing\n"
    config = parse_config(_write(tmp_path, text))
    assert config.seed == 5
    assert config.input_path == "p.csv"


def test_resolved_text_round_trips(tmp_path):
    original = parse_config(_write(tmp_path, FULL_CONFIG))
    rendered = resolved_text(original)
    assert rendered.startswith("# resolved configuration\n")
    reparsed = parse_config(_write(tmp_path, rendered, name="resolved.cfg"))
    assert reparsed == original
