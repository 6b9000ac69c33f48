"""CSV report emission with atomic replacement and a manifest.

All files for a run are first written as temporaries in the target
directory and then renamed into place, so a rerun replaces prior outputs
without ever exposing a partially written file.  The manifest lists every
emitted data file with its line count.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from .config import resolved_text
from .simulation import RunOutput

if TYPE_CHECKING:  # so `gamarket run` never loads the benchmark module
    from .bench import BenchmarkResult

MANIFEST_NAME = "manifest"


def _table(header: str, rows) -> str:
    """Header plus one CSV line per row tuple of Python ints, strs and floats.

    `%s` of a Python float is its round-tripping `repr`, so nothing is lost;
    a row whose width differs from the header's raises TypeError.
    """
    line = ",".join(["%s"] * len(header.split(",")))
    return "\n".join([header] + [line % row for row in rows]) + "\n"


def _write_all(contents: dict[str, str], out_dir) -> dict[str, int]:
    """Atomically write every file, then a manifest of line counts."""
    os.makedirs(out_dir, exist_ok=True)
    counts = {name: text.count("\n") for name, text in contents.items()}
    manifest = "".join(f"{name},{counts[name]}\n" for name in sorted(counts))
    staged = []
    try:
        for name, text in list(contents.items()) + [(MANIFEST_NAME, manifest)]:
            tmp_path = os.path.join(out_dir, f".{name}.tmp")
            with open(tmp_path, "w", newline="") as handle:
                handle.write(text)
            staged.append((tmp_path, os.path.join(out_dir, name)))
    except OSError:
        for tmp_path, _ in staged:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
        raise
    for tmp_path, final_path in staged:
        os.replace(tmp_path, final_path)
    return counts


def emit_reports(output: RunOutput, out_dir) -> dict[str, int]:
    """Write the run's CSVs, resolved config and manifest into out_dir."""
    m = output.metrics
    networth_rows = (
        (day, p, w) for day, worths in m.networth_by_day for p, w in enumerate(worths.tolist())
    )
    trade_rows = (
        (t.day, t.round, t.buyer, t.seller, output.config.stocks[t.stock], t.quantity, t.price)
        for t in output.trades
    )
    contents = {
        "networth.csv": _table("day,player,net_worth", networth_rows),
        "hidden_units.csv": _table("generation,player,mean_hidden_units", m.hidden_rows),
        "complexity.csv": _table("generation,species,stddev_hidden_units", m.complexity_rows),
        "generations.csv": _table("generation,mean_val_mse", m.generation_error_rows),
        "trades.csv": _table("day,round,buyer,seller,stock,quantity,price", trade_rows),
        "config.resolved": resolved_text(output.config),
    }
    return _write_all(contents, out_dir)


def emit_bench_reports(result: BenchmarkResult, out_dir) -> dict[str, int]:
    """Write benchmark samples and per-sweep fits into out_dir."""
    sample_rows = ((s.sweep, s.x, s.seconds) for s in result.samples)
    fit_rows = []
    for s in result.fits:
        coeffs = ("", "", "") if s.fit is None else (s.fit.slope, s.fit.intercept, s.fit.r_squared)
        fit_rows.append((s.sweep, *coeffs, s.samples))
    contents = {
        "scaling.csv": _table("sweep,x,seconds", sample_rows),
        "scaling_fit.csv": _table("sweep,slope,intercept,r_squared,samples", fit_rows),
    }
    return _write_all(contents, out_dir)
