"""Tests for config parsing, validation, and the resolved round trip."""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
        # One agent per player cannot evolve, and cadence 3 < days 6 would evolve.
        {
            "stocks": ("A",),
            "total_supply": (90,),
            "agents_per_stock": 1,
            "evolution_cadence": 3,
            "days": 6,
        },
        # Shares are int64, and the players' total cash must be a finite float.
        {"total_supply": (10, 99999999999999999999, 10)},
        {"players": 4, "initial_cash": 1e308},
    ],
)
def test_validate_rejects_bad_fields(kwargs):
    config = SimulationConfig(**{"seed": 1, "input_path": "x", **kwargs})
    with pytest.raises(ConfigError):
        config.validate()


@pytest.mark.parametrize("cadence", [6, 7])
def test_validate_accepts_one_agent_that_never_evolves(cadence):
    # Evolution first runs after `evolution_cadence` days, so with a cadence
    # of at least `days` a single agent per player never needs a partner.
    config = SimulationConfig(
        seed=1,
        input_path="x",
        stocks=("A",),
        total_supply=(90,),
        agents_per_stock=1,
        evolution_cadence=cadence,
        days=6,
    )
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


@pytest.mark.parametrize(
    "key, value",
    [
        ("output_dir", "out   # where reports go"),
        ("input_path", "prices#1.csv"),
        ("stocks", "AAA, B#B"),
    ],
)
def test_hash_in_a_string_value_is_rejected(tmp_path, key, value):
    lines = {"seed": "1", "input_path": "p.csv", key: value}
    path = _write(tmp_path, "".join(f"{k} = {v}\n" for k, v in lines.items()))
    with pytest.raises(ConfigError, match=f"^{key} must not contain '#'"):
        parse_config(path)


def test_hash_in_an_override_is_rejected(tmp_path):
    path = _write(tmp_path, "seed = 1\ninput_path = p.csv\n")
    with pytest.raises(ConfigError, match="^output_dir must not contain '#'"):
        parse_config(path, {"output_dir": "out#2"})


def test_resolved_text_round_trips(tmp_path):
    original = parse_config(_write(tmp_path, FULL_CONFIG))
    rendered = resolved_text(original)
    assert rendered.startswith("# resolved configuration\n")
    reparsed = parse_config(_write(tmp_path, rendered, name="resolved.cfg"))
    assert reparsed == original


# A value is one line with no surrounding whitespace and no `#`; stock names
# also hold no comma, since the list is comma-separated.  ASCII keeps the
# file's encoding out of the test.
_TEXT = st.text(
    st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="#")
).map(str.strip)
_NAME = _TEXT.filter(lambda name: name and "," not in name)
_FLOAT = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _valid_configs(draw):
    stocks = tuple(draw(st.lists(_NAME, min_size=1, max_size=4, unique=True)))
    agents_per_stock = draw(st.integers(min_value=1, max_value=10**6))
    days = draw(st.integers(min_value=0, max_value=10**6))
    # A player with a single agent is valid only if it never evolves.
    min_cadence = max(days, 1) if agents_per_stock * len(stocks) < 2 else 1
    p_cross = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    return SimulationConfig(
        seed=draw(st.integers(min_value=0, max_value=2**64)),
        input_path=draw(_TEXT),
        players=draw(st.integers(min_value=2, max_value=10**6)),
        agents_per_stock=agents_per_stock,
        stocks=stocks,
        total_supply=tuple(
            draw(st.lists(st.integers(1, 10**12), min_size=len(stocks), max_size=len(stocks)))
        ),
        window=draw(st.integers(min_value=2, max_value=10**6)),
        evolution_cadence=draw(st.integers(min_value=min_cadence, max_value=10**6)),
        days=days,
        p_cross=p_cross,
        p_mut=draw(st.floats(min_value=0.0, max_value=p_cross, exclude_max=True)),
        epochs=draw(st.integers(min_value=1, max_value=10**6)),
        learning_rate=draw(_FLOAT.filter(lambda x: x > 0)),
        weight_init_scale=draw(_FLOAT.filter(lambda x: x > 0)),
        # At most 10**6 players, so their total cash stays finite.
        initial_cash=draw(st.floats(min_value=0.0, max_value=1e300)),
        output_dir=draw(_TEXT.filter(bool)),
    )


# The fixture's directory is reused by every example; each overwrites the file.
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(config=_valid_configs())
def test_resolved_text_round_trips_any_valid_config(tmp_path, config):
    config.validate()
    path = _write(tmp_path, resolved_text(config), name="resolved.cfg")
    assert parse_config(path) == config


def test_readme_config_example_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    config = parse_config(_write(tmp_path, example))
    # The example spells out every default.
    assert config == SimulationConfig(seed=3, input_path="prices.csv")
