"""Tests for report emission and the command-line interface."""

import contextlib
import io
import os
import signal
import tempfile

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from gamarket import errors
from gamarket.bench import scaling_benchmark
from gamarket.cli import main
from gamarket.config import SimulationConfig, parse_config, resolved_text
from gamarket.data import DEFAULT_STOCKS, PRICE_MAX, PRICE_MIN, generate_series
from gamarket.errors import ConfigError
from gamarket.market import Portfolios, Trade
from gamarket.metrics import RunMetrics
from gamarket.neural import draw_population
from gamarket.players import Population
from gamarket.reports import emit_reports
from gamarket.simulation import RunOutput

CONFIG_TEMPLATE = """\
seed = 9
input_path = {data}
players = 2
agents_per_stock = 1
window = 10
days = 6
evolution_cadence = 3
epochs = 5
total_supply = 90
output_dir = {out}
"""


def _gen_data(tmp_path, days=20, seed=5):
    data = tmp_path / "prices.csv"
    assert main(["gen-data", "--days", str(days), "--seed", str(seed), "--out", str(data)]) == 0
    return data


def _write_config(tmp_path, data, out):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEMPLATE.format(data=data, out=out))
    return path


def _snapshot(out_dir):
    return {
        name: (out_dir / name).read_bytes()
        for name in sorted(os.listdir(out_dir))
    }


REPORT_FILES = [
    "complexity.csv",
    "config.resolved",
    "generations.csv",
    "hidden_units.csv",
    "manifest",
    "networth.csv",
    "trades.csv",
]


def test_gen_data_writes_loadable_csv(tmp_path, capsys):
    data = _gen_data(tmp_path)
    lines = data.read_text().splitlines()
    assert lines[0] == "day,DJIA,NASDAQ,SP500"
    assert len(lines) == 21
    assert "wrote 20 rows" in capsys.readouterr().out


def test_run_emits_reports_with_accurate_manifest(tmp_path, capsys):
    data = _gen_data(tmp_path)
    out = tmp_path / "out"
    config_path = _write_config(tmp_path, data, out)
    assert main(["run", "--config", str(config_path)]) == 0
    stdout = capsys.readouterr().out
    assert "simulated 6 trading days" in stdout
    assert sorted(os.listdir(out)) == REPORT_FILES
    # The manifest records each file's real line count.
    manifest = dict(
        line.split(",") for line in (out / "manifest").read_text().splitlines()
    )
    assert sorted(manifest) == [n for n in REPORT_FILES if n != "manifest"]
    for name, count in manifest.items():
        assert (out / name).read_text().count("\n") == int(count)
    # Headers are stable.
    assert (out / "networth.csv").read_text().splitlines()[0] == "day,player,net_worth"
    assert (out / "trades.csv").read_text().splitlines()[0] == (
        "day,round,buyer,seller,stock,quantity,price"
    )
    assert (out / "hidden_units.csv").read_text().splitlines()[0] == (
        "generation,player,mean_hidden_units"
    )
    assert (out / "complexity.csv").read_text().splitlines()[0] == (
        "generation,species,stddev_hidden_units"
    )
    # The resolved config reparses to the run's settings.
    resolved = parse_config(out / "config.resolved")
    assert resolved.seed == 9
    assert resolved.days == 6
    assert resolved.total_supply == (90, 90, 90)
    # No staging leftovers.
    assert not [n for n in os.listdir(out) if n.endswith(".tmp")]


def test_emit_reports_writes_exact_bytes(tmp_path):
    config = SimulationConfig(
        seed=1, input_path="p.csv", stocks=("AAA", "BBB"), total_supply=(10, 10)
    )
    metrics = RunMetrics(
        networth_by_day=[(1, np.array([0.1, 1 / 3])), (2, np.array([1e-300, 2.0]))],
        hidden_rows=[(0, 0, 2.0), (0, 1, 1e-300)],
        complexity_rows=[(0, "linear", 0.0), (0, "logistic", 0.5)],
        generation_error_rows=[(0, 1 / 3), (1, 2.0)],
    )
    trade = Trade(day=1, round=2, buyer=1, seller=0, stock=1, quantity=3, price=0.1)
    # The report writes no population or portfolio state; both are only well formed.
    population = Population(draw_population(4, np.random.default_rng(0), 0.5), 2, 2)
    book = Portfolios.endow(2, config.total_supply, config.initial_cash)
    output = RunOutput(config, metrics, [trade], population, 1, book)
    emit_reports(output, tmp_path)
    assert _snapshot(tmp_path) == {
        "complexity.csv": b"generation,species,stddev_hidden_units\n"
        b"0,linear,0.0\n0,logistic,0.5\n",
        "config.resolved": resolved_text(config).encode(),
        "generations.csv": b"generation,mean_val_mse\n0,0.3333333333333333\n1,2.0\n",
        "hidden_units.csv": b"generation,player,mean_hidden_units\n0,0,2.0\n0,1,1e-300\n",
        "manifest": b"complexity.csv,3\nconfig.resolved,17\ngenerations.csv,3\n"
        b"hidden_units.csv,3\nnetworth.csv,5\ntrades.csv,2\n",
        "networth.csv": b"day,player,net_worth\n1,0,0.1\n1,1,0.3333333333333333\n"
        b"2,0,1e-300\n2,1,2.0\n",
        "trades.csv": b"day,round,buyer,seller,stock,quantity,price\n1,2,1,0,BBB,3,0.1\n",
    }


def test_a_failed_write_leaves_no_temporary_or_final_file(tmp_path, python_process):
    # The child may write at most 4096 bytes to a file: a.csv fits, b.csv
    # fails partway through, so neither file nor its temporary may stay.
    code = f"""
import resource, signal
from gamarket.reports import _write_all
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
try:
    _write_all({{"a.csv": "a" * 19 + "\\n", "b.csv": "b" * 199_999 + "\\n"}}, {str(tmp_path)!r})
except OSError as exc:
    print(type(exc).__name__, exc.strerror)
"""
    result = python_process(code, timeout=60)
    assert (result.returncode, result.stdout) == (0, "OSError File too large\n"), result.stderr
    assert os.listdir(tmp_path) == []


def test_run_reports_input_that_is_not_utf8_without_traceback(tmp_path, capsys):
    data = _gen_data(tmp_path)
    out = tmp_path / "out"
    config_path = _write_config(tmp_path, data, out)
    good_config = config_path.read_bytes()
    config_path.write_bytes(b"# synthetic daily prices from caf\xe9\n" + good_config)
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    reason = "byte 33: invalid continuation byte"
    assert err == f"ConfigError: {config_path}: not UTF-8 text ({reason})\n"
    config_path.write_bytes(good_config)
    prices = data.read_bytes()
    data.write_bytes(prices[:28] + b"\xff" + prices[29:])
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"DataError: {data}: not UTF-8 text (byte 28: invalid start byte)\n"
    assert not out.exists()


def test_run_is_byte_reproducible(tmp_path):
    data = _gen_data(tmp_path)
    out = tmp_path / "out"
    config_path = _write_config(tmp_path, data, out)
    assert main(["run", "--config", str(config_path)]) == 0
    first = _snapshot(out)
    assert main(["run", "--config", str(config_path)]) == 0
    assert _snapshot(out) == first


def test_run_seed_override_changes_outputs(tmp_path):
    data = _gen_data(tmp_path)
    out = tmp_path / "out"
    config_path = _write_config(tmp_path, data, out)
    assert main(["run", "--config", str(config_path)]) == 0
    base = _snapshot(out)
    assert main(["run", "--config", str(config_path), "--seed", "10"]) == 0
    override = _snapshot(out)
    assert override != base
    assert parse_config(out / "config.resolved").seed == 10


def test_run_reports_config_errors_on_stderr(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert capsys.readouterr().err.startswith("ConfigError:")
    # A config pointing at missing data fails as a data error.
    config_path = _write_config(tmp_path, tmp_path / "nope.csv", tmp_path / "out")
    assert main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith("DataError:")


def test_run_reports_training_divergence_without_traceback(tmp_path, cli_process):
    data = _gen_data(tmp_path)
    out = tmp_path / "out"
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        CONFIG_TEMPLATE.format(data=data, out=out).replace("epochs = 5", "epochs = 50")
        + "learning_rate = 1000\n"
    )
    result = cli_process("run", "--config", str(config_path))
    assert result.returncode == 1
    assert "TrainingDivergedError: training diverged" in result.stderr
    assert "Traceback" not in result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert not out.exists()


def test_run_stops_when_the_agents_did_not_learn(tmp_path, cli_process):
    # Training stays finite here, but every agent ends saturated: generation
    # 0's mean validation MSE is about 2.5e+38.
    data = _gen_data(tmp_path)
    out = tmp_path / "out"
    config_path = tmp_path / "run.cfg"
    config_path.write_text(CONFIG_TEMPLATE.format(data=data, out=out) + "learning_rate = 1000\n")
    result = cli_process("run", "--config", str(config_path))
    assert result.returncode == 1
    assert "TrainingDivergedError: generation 0: mean validation MSE" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


def test_run_rejects_an_inline_comment_without_traceback(tmp_path, cli_process):
    data = _gen_data(tmp_path)
    out = tmp_path / "out"
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        CONFIG_TEMPLATE.format(data=data, out=out).replace(f"= {out}", f"= {out}  # reports")
    )
    result = cli_process("run", "--config", str(config_path))
    assert result.returncode == 1
    assert result.stderr.startswith("ConfigError: output_dir must not contain '#'")
    assert "Traceback" not in result.stderr
    assert sorted(os.listdir(tmp_path)) == ["prices.csv", "run.cfg"]


@pytest.mark.parametrize("scale", ["1e308", "8.98846567431158e307"])
def test_run_rejects_a_weight_init_scale_too_large_to_draw(tmp_path, cli_process, scale):
    # Weights are drawn over [-scale, scale), whose width 2 * scale overflows here.
    data = _gen_data(tmp_path)
    out = tmp_path / "out"
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        CONFIG_TEMPLATE.format(data=data, out=out) + f"weight_init_scale = {scale}\n"
    )
    result = cli_process("run", "--config", str(config_path))
    assert result.returncode == 1
    [line] = result.stderr.splitlines()
    assert line.startswith("ConfigError: weight_init_scale")
    assert "Traceback" not in result.stderr
    assert not out.exists()


def test_run_reports_a_non_finite_price_with_its_line(tmp_path, cli_process):
    data = _gen_data(tmp_path)
    lines = data.read_text().splitlines()
    # Line 15 holds day 13, a traded day (window = 10); its SP500 cell becomes inf.
    lines[14] = lines[14].rsplit(",", 1)[0] + ",inf"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    result = cli_process("run", "--config", str(_write_config(tmp_path, data, out)))
    assert result.returncode == 1
    assert result.stderr.startswith(f"DataError: {data}:15: price inf for SP500")
    assert "Traceback" not in result.stderr
    assert not out.exists()


RANGE = f"is outside [{PRICE_MIN:g}, {PRICE_MAX:g}]"


def _price_run(tmp_path, rows, extra=""):
    """Write (days, 3) price rows and a run config over them (window 50, 5 days); its path."""
    lines = [",".join([str(day), *(repr(float(p)) for p in row)]) for day, row in enumerate(rows)]
    data = tmp_path / "prices.csv"
    data.write_text("\n".join(["day,DJIA,NASDAQ,SP500", *lines]) + "\n")
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        f"seed = 1\ninput_path = {data}\nwindow = 50\ndays = 5\n{extra}"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    return config_path


def test_run_reports_a_price_that_overflows_normalization(tmp_path, cli_process):
    # DJIA's window spans one ulp of 1.0, so 1e300 on day 51 would normalize
    # to inf; it is refused where it is read, on line 53.
    djia = [1.0 if day % 2 == 0 else 1.0000000000000002 for day in range(51)] + [1e300] * 4
    config_path = _price_run(tmp_path, [(d, 2050.0, 1220.0) for d in djia])
    result = cli_process("run", "--config", str(config_path))
    assert result.returncode == 1
    [line] = result.stderr.splitlines()
    assert line == f"DataError: {tmp_path / 'prices.csv'}:53: price 1e+300 for DJIA {RANGE}"
    assert not (tmp_path / "out").exists()


def test_run_reports_a_price_that_overflows_a_net_worth(tmp_path, cli_process):
    # Valuing player 0's 2500 DJIA shares at 1.7e308 would overflow a float;
    # the price is refused where it is read.
    djia = [1.0 if day % 2 == 0 else 2.0 for day in range(51)] + [1.7e308] * 4
    config_path = _price_run(tmp_path, [(d, 2050.0, 1220.0) for d in djia])
    result = cli_process("run", "--config", str(config_path))
    assert result.returncode == 1
    [line] = result.stderr.splitlines()
    assert line == f"DataError: {tmp_path / 'prices.csv'}:53: price 1.7e+308 for DJIA {RANGE}"
    assert "Traceback" not in result.stderr and "RuntimeWarning" not in result.stderr
    assert not (tmp_path / "out").exists()


def test_run_reports_the_earlier_of_two_bad_days_of_one_generation(tmp_path, cli_process):
    # Days 50-54 are one generation.  Day 51 (line 53) has an out-of-range
    # DJIA price, and day 52 out-of-range DJIA and NASDAQ prices.  The first
    # out-of-range line is the one reported, and its first bad price.
    djia = [1.0 if day % 2 == 0 else 2.0 for day in range(51)] + [1.7e308] * 4
    nasdaq = [1.0 if day % 2 == 0 else 1.0000000000000002 for day in range(51)]
    nasdaq += [1.0] + [1e300] * 3
    config_path = _price_run(tmp_path, [(d, n, 1220.0) for d, n in zip(djia, nasdaq)])
    result = cli_process("run", "--config", str(config_path))
    assert result.returncode == 1
    [line] = result.stderr.splitlines()
    assert line == f"DataError: {tmp_path / 'prices.csv'}:53: price 1.7e+308 for DJIA {RANGE}"
    assert not (tmp_path / "out").exists()


def test_run_reports_a_bad_price_on_the_first_day_of_a_later_generation(tmp_path, cli_process):
    # Cadence 2: days 50-51 are generation 0, and day 52 starts generation 1.
    # Its 1e300 is refused at load (line 54), before generation 0 trades.
    djia = [1.0 if day % 2 == 0 else 1.0000000000000002 for day in range(52)] + [1e300] * 3
    config_path = _price_run(
        tmp_path, [(d, 2050.0, 1220.0) for d in djia], extra="evolution_cadence = 2\n"
    )
    result = cli_process("run", "--config", str(config_path))
    assert result.returncode == 1
    [line] = result.stderr.splitlines()
    assert line == f"DataError: {tmp_path / 'prices.csv'}:54: price 1e+300 for DJIA {RANGE}"
    assert not (tmp_path / "out").exists()


def _one_ulp_window_then_price_max():
    low = [PRICE_MIN if day % 2 == 0 else np.nextafter(PRICE_MIN, 1.0) for day in range(51)]
    return [(p, 2050.0, 1220.0) for p in low + [PRICE_MAX] * 4], ""


def _all_supply_at_price_max():
    walk = generate_series(55, seed=4)
    rows = np.minimum(walk * (PRICE_MAX / walk.max(axis=0)), PRICE_MAX)
    supply = 2**63 - 1
    return rows, f"total_supply = {supply}, {supply}, {supply}\ninitial_cash = 1e30\n"


def _all_near_price_min():
    walk = generate_series(55, seed=4)
    return np.maximum(walk * (PRICE_MIN / walk.min(axis=0)), PRICE_MIN), ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "corner", [_one_ulp_window_then_price_max, _all_supply_at_price_max, _all_near_price_min]
)
def test_run_at_the_corners_of_the_price_range_stays_finite(tmp_path, corner):
    # In-range prices need no overflow check after loading: the most extreme
    # normalization, holding and floor run without a warning or a DataError.
    rows, extra = corner()
    config_path = _price_run(tmp_path, rows, extra + "evolution_cadence = 2\n")
    assert main(["run", "--config", str(config_path)]) == 0
    worths = (tmp_path / "out" / "networth.csv").read_text().splitlines()[1:]
    assert worths and all(np.isfinite(float(line.split(",")[2])) for line in worths)


@pytest.mark.parametrize("scale", [1e-300, 1e-322])
def test_run_on_tiny_prices_ends_without_hang_or_traceback(
    scale, tmp_path, monkeypatch, cli_process, workloads
):
    # perfbench's crowd prices scaled far below PRICE_MIN, to the scales
    # that once hung order sizing (1e-300) and overflowed the relative price
    # change (1e-322, subnormal): the file is refused on its first data line.
    monkeypatch.chdir(tmp_path)
    crowd = workloads.WORKLOADS["crowd"]
    prices = workloads.make_inputs(crowd, 0, ".") * scale
    rows = [",".join([str(day), *map(repr, row.tolist())]) for day, row in enumerate(prices)]
    with open(workloads.PRICES_CSV, "w") as handle:
        handle.write("\n".join(["day," + ",".join(workloads.STOCKS), *rows]) + "\n")
    with open(workloads.RUN_CFG, "w") as handle:
        handle.write(workloads.config_text(crowd, 0, days=30))
    result = cli_process("run", "--config", workloads.RUN_CFG, timeout=30)
    assert result.returncode == 1
    [line] = result.stderr.splitlines()
    assert line == (
        f"DataError: {workloads.PRICES_CSV}:2: price {prices[0, 0].item()!r} "
        f"for {workloads.STOCKS[0]} {RANGE}"
    )


def test_scaling_benchmark_skips_infeasible_points():
    result = scaling_benchmark(
        player_grid=[1, 2],
        agent_grid=[0],
        base_players=2,
        base_agents=1,
        days=3,
        window=10,
        seed=2,
    )
    assert any("players=1" in w for w in result.warnings)
    assert any("agents=0" in w for w in result.warnings)
    assert [s.sweep for s in result.samples] == ["players"]
    fits = {f.sweep: f for f in result.fits}
    assert fits["players"].samples == 1
    assert fits["players"].fit is None  # one point cannot define a line
    assert fits["agents"].samples == 0
    assert fits["agents"].fit is None
    with pytest.raises(ConfigError):
        scaling_benchmark([2], [1], reps=0)
    with pytest.raises(ConfigError):
        scaling_benchmark([2], [1], days=0)


def test_bench_cli_writes_fit_reports(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main(
        [
            "bench",
            "--players", "2,3",
            "--agents", "1",
            "--base-players", "2",
            "--base-agents", "1",
            "--days", "4",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "wrote benchmark reports" in stdout
    scaling = (out / "scaling.csv").read_text().splitlines()
    assert scaling[0] == "sweep,x,seconds"
    assert len(scaling) == 4  # two player points, one agent point
    fits = (out / "scaling_fit.csv").read_text().splitlines()
    assert fits[0] == "sweep,slope,intercept,r_squared,samples"
    players_row = next(line for line in fits[1:] if line.startswith("players,"))
    # Timings vary run to run, so only the shape of a fitted row is pinned.
    fields = players_row.split(",")
    assert len(fields) == 5
    assert fields[-1] == "2"
    for value in fields[1:4]:
        float(value)
    agents_row = next(line for line in fits[1:] if line.startswith("agents,"))
    # A single point has no line fit; the fields stay empty.
    assert agents_row == "agents,,,,1"


BAD_WALK = "DataError: drift and volatility must be finite"
BAD_WALKS = [
    ("--volatility", "-1", BAD_WALK),
    ("--drift", "inf", BAD_WALK),
    ("--seed", "-1", "DataError: seed must be >= 0, got -1"),
    # The walk overflows in row 1, or falls below 0.00005 and is written as 0.
    ("--drift", "1e3", "DataError: day 1: DJIA would be written as inf (price inf)"),
    ("--drift", "-20", "DataError: day 1: DJIA would be written as 0.0000 (price 2.19"),
]


@pytest.mark.parametrize(
    "flag, value, message", BAD_WALKS, ids=[f"{flag}-{value}" for flag, value, _ in BAD_WALKS]
)
def test_gen_data_rejects_a_bad_walk_without_traceback(
    tmp_path, cli_process, flag, value, message
):
    out = tmp_path / "a.csv"
    result = cli_process("gen-data", "--days", "5", flag, value, "--out", str(out))
    assert result.returncode == 1
    assert result.stderr.startswith(message)
    assert "Traceback" not in result.stderr
    assert not out.exists()


def test_bench_rejects_a_negative_seed_without_traceback(tmp_path, cli_process):
    out = tmp_path / "bench"
    result = cli_process(
        "bench", "--players", "2", "--agents", "1", "--seed", "-1", "--out", str(out)
    )
    assert result.returncode == 1
    assert result.stderr.startswith("DataError: seed must be >= 0, got -1")
    assert "Traceback" not in result.stderr
    assert not out.exists()


def test_bench_rejects_an_empty_out_before_any_run(monkeypatch, capsys):
    def sweep(**kwargs):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr("gamarket.bench.scaling_benchmark", sweep)
    assert main(["bench", "--out", ""]) == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith("ConfigError: --out must not be empty")
    assert "Traceback" not in stderr


def test_importing_the_cli_leaves_the_benchmark_unloaded(python_process):
    # `gamarket run` pays for no module that only `gamarket bench` needs,
    # and keeps the names perfbench wraps where the CLI looks them up.
    code = (
        "import sys, gamarket.cli as cli\n"
        "print(*(m in sys.modules for m in ('gamarket.bench', 'statistics')))\n"
        "print(*(callable(getattr(cli, n, None)) for n in "
        "('parse_config', 'run_simulation', 'emit_reports')))"
    )
    result = python_process(code, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["False False", "True True True"]


def test_io_errors_are_reported_by_name(tmp_path, cli_process):
    data = _gen_data(tmp_path)
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    gen = cli_process("gen-data", "--days", "5", "--out", str(blocker / "x.csv"))
    config_path = _write_config(tmp_path, data, tmp_path / "out")
    run = cli_process("run", "--config", str(config_path), "--out", str(blocker / "out"))
    for result in (gen, run):
        assert result.returncode == 1
        assert result.stderr.startswith("NotADirectoryError: ")
        assert "Traceback" not in result.stderr
    assert blocker.read_text() == ""


def test_run_rejects_days_not_counted_from_zero(tmp_path, cli_process):
    data = _gen_data(tmp_path)
    lines = data.read_text().splitlines()
    rows = [f"{1000 + t},{line.split(',', 1)[1]}" for t, line in enumerate(lines[1:])]
    data.write_text("\n".join([lines[0], *rows]) + "\n")
    out = tmp_path / "out"
    result = cli_process("run", "--config", str(_write_config(tmp_path, data, out)))
    assert result.returncode == 1
    assert result.stderr.startswith(f"DataError: {data}:2: day 1000 should be 0")
    assert "Traceback" not in result.stderr
    assert not out.exists()


def test_run_rejects_an_empty_output_dir_before_running(tmp_path, cli_process):
    data = _gen_data(tmp_path)
    config_path = _write_config(tmp_path, data, "")
    from_file = cli_process("run", "--config", str(config_path))
    from_flag = cli_process(
        "run", "--config", str(_write_config(tmp_path, data, tmp_path / "out")), "--out", ""
    )
    for result in (from_file, from_flag):
        assert result.returncode == 1
        assert result.stderr.startswith("ConfigError: output_dir must not be empty")
        assert "Traceback" not in result.stderr
    assert sorted(os.listdir(tmp_path)) == ["prices.csv", "run.cfg"]


def test_run_rejects_a_config_that_is_not_utf8(tmp_path, cli_process):
    data = _gen_data(tmp_path)
    config_path = _write_config(tmp_path, data, tmp_path / "out")
    config_path.write_bytes(config_path.read_bytes() + b"# caf\xe9\n")
    result = cli_process("run", "--config", str(config_path))
    assert result.returncode == 1
    assert result.stderr.startswith(f"ConfigError: {config_path}: not UTF-8 text")
    assert "Traceback" not in result.stderr


def test_run_rejects_a_price_file_that_is_not_utf8(tmp_path, cli_process):
    data = _gen_data(tmp_path)
    data.write_bytes(data.read_bytes().replace(b"day,", b"\xff\xfeday,", 1))
    out = tmp_path / "out"
    result = cli_process("run", "--config", str(_write_config(tmp_path, data, out)))
    assert result.returncode == 1
    assert result.stderr.startswith(f"DataError: {data}: not UTF-8 text")
    assert "Traceback" not in result.stderr
    assert not out.exists()


class _Hang(Exception):
    """A fuzzed run outlived its time limit."""


def _on_alarm(signum, frame):
    raise _Hang("a fuzzed run took longer than its time limit")


ERROR_NAMES = {
    name
    for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, errors.SimulationError)
}
FUZZ_FLOATS = ("p_cross", "p_mut", "learning_rate", "weight_init_scale", "initial_cash")
FUZZ_PRICES = generate_series(12, seed=7)


def _fuzz_run(prices, config_lines, seconds=5):
    """Run the CLI in-process on a short run; its exit code and stderr.

    The run writes into a fresh temporary directory and fails the test
    with _Hang if it takes longer than `seconds`.
    """
    with tempfile.TemporaryDirectory() as tmp:
        data, config_path = os.path.join(tmp, "prices.csv"), os.path.join(tmp, "run.cfg")
        rows = [",".join([str(day), *map(repr, row.tolist())]) for day, row in enumerate(prices)]
        with open(data, "w") as handle:
            handle.write("\n".join(["day," + ",".join(DEFAULT_STOCKS), *rows]) + "\n")
        with open(config_path, "w") as handle:
            lines = ["seed = 3", f"input_path = {data}", "players = 2", "agents_per_stock = 1"]
            lines += [*config_lines, f"output_dir = {os.path.join(tmp, 'out')}"]
            handle.write("\n".join(lines) + "\n")
        stderr = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(seconds)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main(["run", "--config", config_path])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return code, stderr.getvalue()


def _assert_clean_exit(code, stderr):
    """Exit 0 with an empty stderr, or exit 1 with one line naming a SimulationError."""
    assert code in (0, 1) and "Traceback" not in stderr
    if code == 0:
        assert stderr == ""
        return None
    [line] = stderr.splitlines()
    name, sep, message = line.partition(": ")
    assert sep and message and name in ERROR_NAMES, line
    return name


# No shrinking: each shrink step of a hanging example would wait out its
# time limit again, so a hang would stall the suite for minutes.
FUZZ_PHASES = (Phase.explicit, Phase.reuse, Phase.generate)
SHORT_RUN = {
    "window": st.integers(2, 5),
    "days": st.integers(0, 5),
    "evolution_cadence": st.integers(1, 3),
    "epochs": st.integers(1, 2),
}


@settings(max_examples=400, deadline=None, phases=FUZZ_PHASES)
@given(
    short=st.fixed_dictionaries(SHORT_RUN),
    floats=st.dictionaries(st.sampled_from(FUZZ_FLOATS), st.floats()),
    supply=st.sampled_from([0, 1, 2**63 - 1, 2**63]),
)
def test_fuzzed_configs_end_in_a_clean_exit(short, floats, supply):
    # Any float, subnormals, -0.0, infinities and NaN included, in any
    # subset of the five float keys (the rest keep their defaults), and
    # supplies at the int64 edges end a run in exit 0 or in one named
    # error, never in a traceback or a hang.
    lines = [f"{key} = {value!r}" for key, value in {**short, **floats}.items()]
    _assert_clean_exit(*_fuzz_run(FUZZ_PRICES, [*lines, f"total_supply = {supply}"]))


@settings(max_examples=300, deadline=None, phases=FUZZ_PHASES)
@given(short=st.fixed_dictionaries(SHORT_RUN), exponent=st.integers(-320, 300))
def test_fuzzed_price_scales_end_in_a_clean_exit(short, exponent):
    # Prices scaled by 10**exponent: a file with any price outside
    # [PRICE_MIN, PRICE_MAX] is exactly a DataError naming the first such
    # price and its line, and an in-range file ends like any other run.
    prices = FUZZ_PRICES * 10.0**exponent
    code, stderr = _fuzz_run(prices, [f"{k} = {v}" for k, v in short.items()])
    name = _assert_clean_exit(code, stderr)
    outside = np.argwhere(~((PRICE_MIN <= prices) & (prices <= PRICE_MAX)))
    if len(outside):
        day, stock = outside[0]
        assert name == "DataError"
        bad = f"price {prices[day, stock].item()!r} for {DEFAULT_STOCKS[stock]} {RANGE}"
        assert stderr.endswith(f":{day + 2}: {bad}\n"), stderr
