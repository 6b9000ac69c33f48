"""Command-line interface: run a simulation, benchmark scaling, make data."""

from __future__ import annotations

import argparse
import sys

from .bench import scaling_benchmark
from .config import parse_config
from .data import DEFAULT_STOCKS, generate_series, write_prices_csv
from .errors import ConfigError, SimulationError
from .reports import emit_bench_reports, emit_reports
from .simulation import run_simulation


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gamarket", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a simulation from a config file")
    run.add_argument("--config", required=True, help="path to a key = value config file")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out", default=None, help="override the config output directory")

    bench = sub.add_parser("bench", help="time full runs across player/committee sweeps")
    bench.add_argument("--players", type=_int_list, default=[2, 4, 8, 16, 32])
    bench.add_argument("--agents", type=_int_list, default=[2, 4, 8, 16])
    bench.add_argument("--base-players", type=int, default=4)
    bench.add_argument("--base-agents", type=int, default=4)
    bench.add_argument("--days", type=int, default=120)
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--reps", type=int, default=1)
    bench.add_argument("--out", default="bench-out")

    gen = sub.add_parser("gen-data", help="write a synthetic price CSV")
    gen.add_argument("--days", type=int, required=True, help="number of rows to generate")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--drift", type=float, default=2e-4)
    gen.add_argument("--volatility", type=float, default=0.012)
    return parser


def _cmd_run(args) -> int:
    overrides = {"seed": args.seed, "output_dir": args.out}
    config = parse_config(args.config, overrides)
    output = run_simulation(config)
    counts = emit_reports(output, config.output_dir)
    print(
        f"simulated {config.days} trading days, {len(output.trades)} trades, "
        f"{output.generations} evolution events"
    )
    print(f"wrote {len(counts) + 1} files to {config.output_dir}")
    return 0


def _cmd_bench(args) -> int:
    if not args.out:
        raise ConfigError("--out must not be empty")
    result = scaling_benchmark(
        player_grid=args.players,
        agent_grid=args.agents,
        base_players=args.base_players,
        base_agents=args.base_agents,
        days=args.days,
        seed=args.seed,
        reps=args.reps,
    )
    emit_bench_reports(result, args.out)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for sweep_fit in result.fits:
        if sweep_fit.fit is None:
            print(f"{sweep_fit.sweep}: {sweep_fit.samples} samples, fit undefined")
        else:
            f = sweep_fit.fit
            print(
                f"{sweep_fit.sweep}: slope {f.slope:.4f} s/unit, intercept {f.intercept:.4f} s, "
                f"R^2 {f.r_squared:.4f} over {sweep_fit.samples} samples"
            )
    print(f"wrote benchmark reports to {args.out}")
    return 0


def _cmd_gen_data(args) -> int:
    prices = generate_series(args.days, args.seed, drift=args.drift, volatility=args.volatility)
    write_prices_csv(args.out, DEFAULT_STOCKS, prices)
    print(f"wrote {args.days} rows for {len(DEFAULT_STOCKS)} stocks to {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "bench": _cmd_bench, "gen-data": _cmd_gen_data}
    try:
        return handlers[args.command](args)
    except (SimulationError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
