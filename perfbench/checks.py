"""Output checks for one `gamarket run` output directory.

Each check returns a list of problems; an empty list means the run's
outputs are correct.  The trade replay starts from the documented
endowment (equal cash; shares split equally, remainders to the lowest
player ids) and needs nothing from the program but its output files.
"""

from __future__ import annotations

import csv
import hashlib
import os
from collections import Counter, defaultdict

import numpy as np

MANIFEST = "manifest"
REL_TOL = 1e-9


def check_manifest(out_dir) -> list[str]:
    """Every file is listed in the manifest, with its true line count."""
    path = os.path.join(out_dir, MANIFEST)
    if not os.path.exists(path):
        return ["manifest is missing"]
    listed = {}
    with open(path) as handle:
        for line in handle:
            name, _, count = line.rstrip("\n").rpartition(",")
            listed[name] = count
    problems = []
    present = set(os.listdir(out_dir)) - {MANIFEST}
    if present != set(listed):
        problems.append(f"manifest lists {sorted(listed)}, directory holds {sorted(present)}")
    for name in sorted(present & set(listed)):
        with open(os.path.join(out_dir, name), newline="") as handle:
            actual = handle.read().count("\n")
        if listed[name] != str(actual):
            problems.append(f"manifest says {name} has {listed[name]} lines, it has {actual}")
    return problems


def split_endowment(supply: int, players: int) -> list[int]:
    base, remainder = divmod(supply, players)
    return [base + (1 if i < remainder else 0) for i in range(players)]


def _read_rows(path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))[1:]


def replay_trades(
    out_dir,
    prices: np.ndarray,
    stocks: tuple[str, ...],
    supply: tuple[int, ...],
    players: int,
    initial_cash: float,
    first_day: int,
    days: int,
) -> list[str]:
    """Replay trades.csv from the endowment and compare with networth.csv.

    Flags negative holdings or cash, share totals that leave the supply,
    trades off the announced price or outside the traded days, a wrong
    networth.csv row count, and any net worth that differs from the replay
    by more than REL_TOL relative.
    """
    problems: list[str] = []
    try:
        trades = _read_rows(os.path.join(out_dir, "trades.csv"))
        networth = _read_rows(os.path.join(out_dir, "networth.csv"))
    except FileNotFoundError as exc:
        return [f"missing output: {exc.filename}"]
    if len(networth) != days * players:
        problems.append(f"networth.csv has {len(networth)} rows, expected {days * players}")

    cash: dict[int, float] = defaultdict(float)
    holdings: dict[int, list[int]] = defaultdict(lambda: [0] * len(stocks))
    for pid in range(players):
        cash[pid] = float(initial_cash)
        holdings[pid] = [split_endowment(q, players)[pid] for q in supply]
    by_day: dict[int, list[list[str]]] = defaultdict(list)
    last_day = first_day + days - 1
    for lineno, row in enumerate(trades, start=2):
        try:
            day = int(row[0])
        except (ValueError, IndexError):
            day = None
        if day is None or len(row) != 7:
            problems.append(f"trades.csv:{lineno}: malformed row {row!r}")
            continue
        if not first_day <= day <= last_day:
            problems.append(f"trades.csv:{lineno}: day {day} outside {first_day}..{last_day}")
            continue
        by_day[day].append([lineno, *row])
    nw_by_day: dict[int, list[list[str]]] = defaultdict(list)
    for row in networth:
        if len(row) != 3:
            problems.append(f"networth.csv: malformed row {row!r}")
            continue
        nw_by_day[int(row[0])].append(row)

    for day in range(first_day, last_day + 1):
        for lineno, _, _, buyer, seller, stock, quantity, price in by_day.get(day, []):
            try:
                b, s, q, p = int(buyer), int(seller), int(quantity), float(price)
                m = stocks.index(stock)
            except ValueError:
                problems.append(f"trades.csv:{lineno}: malformed trade")
                continue
            if p != prices[day, m]:
                problems.append(f"trades.csv:{lineno}: price {p} is not day {day}'s {prices[day, m]}")
            if q < 1 or b == s:
                problems.append(f"trades.csv:{lineno}: quantity {q} from {s} to {b} is not a trade")
            holdings[s][m] -= q
            holdings[b][m] += q
            cash[b] -= q * p
            cash[s] += q * p
            if holdings[s][m] < 0 or cash[b] < 0:
                problems.append(f"trades.csv:{lineno}: negative holdings or cash after the trade")
            total = sum(holdings[pid][m] for pid in range(players))
            if total != supply[m]:
                problems.append(f"trades.csv:{lineno}: {stock} total {total} != supply {supply[m]}")
        for row in nw_by_day.get(day, []):
            pid, value = int(row[1]), float(row[2])
            expected = cash[pid] + float(np.dot(holdings[pid], prices[day]))
            if abs(value - expected) > REL_TOL * abs(expected):
                problems.append(
                    f"networth.csv: day {day} player {pid} is {value!r}, replay gives {expected!r}"
                )
        if len(problems) > 20:
            problems.append("further problems not listed")
            break
    return problems


def output_digest(out_dir) -> str:
    """SHA-256 over every output file's name and bytes."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    return digest.hexdigest()


def digest_outliers(digests: list[str]) -> list[int]:
    """Indices of runs whose outputs differ from the most common digest."""
    if not digests:
        return []
    common, _ = Counter(digests).most_common(1)[0]
    return [i for i, d in enumerate(digests) if d != common]
