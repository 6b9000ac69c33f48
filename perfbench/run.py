"""gamarket benchmark: end-to-end run metrics and a traced per-layer breakdown.

Usage, from the repository root:

    python3 perfbench/run.py --workload reference --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Each measured run is a fresh process started one after another (a closed
loop with one client), with BLAS threads pinned to 1.  `--trace 0` times
`python -m gamarket.cli run` processes and prints the end-to-end metrics;
`--trace 1` alternates untraced runs with in-process traced runs and
prints the per-layer metrics.  Every run's outputs are checked; the last
line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import checks
import hostprobe
import spans
from workloads import OUT_DIR, RUN_CFG, SETUP_CFG, STOCKS, WORKLOADS, Workload, make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A result must be printed well inside the 180 s a benchmark run may take.
HARD_LIMIT_S = 165.0
MIN_ROUNDS = 2
SETUPS_PER_ROUND = 2
# Printed and saved in result.json, but not reported as metrics, because
# each can read 0 or below: no day reaches the round cap at the seed commit,
# some `reference` seeds trade nothing (seed 3), and the paired
# traced-minus-untraced difference is noisy enough to come out negative.
DIAGNOSTICS = ("market.trades", "market.trades_per_round", "market.round_cap_days", "trace.overhead_s")


@dataclass
class Sample:
    kind: str  # "run", "setup", "warmup" or "traced"
    wall_s: float
    rss_mb: float
    exit_code: int
    probe_s: float | None = None  # host probe taken just before a timed run
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    bytes_written: int = 0
    result: dict = field(default_factory=dict)


class Session:
    """One benchmark invocation: generated inputs, a deadline and every sample."""

    def __init__(self, workload: Workload, seed: int, work_dir: str, seconds: float, hard_deadline: float) -> None:
        self.workload = workload
        self.prices = make_inputs(workload, seed, work_dir)  # as the program reads them
        self.work_dir = work_dir
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.hard_deadline = hard_deadline
        self.samples: list[Sample] = []
        self.timed_out = False

    def fits(self, estimate_s: float) -> bool:
        return time.perf_counter() + estimate_s <= self.deadline

    def _spawn(self, argv: list[str]) -> tuple[float, float, int]:
        """Run argv in the work dir; wall seconds, peak RSS in MB, exit code."""
        env = dict(os.environ, PYTHONPATH=SRC, **PINNED_ENV)
        timeout = max(self.hard_deadline - time.perf_counter(), 1.0)
        with open(os.path.join(self.work_dir, "stderr.txt"), "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work_dir, env=env, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            self.timed_out = True
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def run(self, kind: str, probe: bool = False) -> Sample:
        """One run of the workload (days = 0 for "setup"), then its output checks.

        With `probe`, the host-speed probe is timed just before the run.
        """
        probe_s = hostprobe.host_probe_s() if probe else None
        config = SETUP_CFG if kind == "setup" else RUN_CFG
        out_dir = os.path.join(self.work_dir, OUT_DIR)
        result_path = os.path.join(self.work_dir, "inproc.json")
        shutil.rmtree(out_dir, ignore_errors=True)
        if kind in ("warmup", "traced"):
            flags = ["--trace"] if kind == "traced" else []
            argv = [sys.executable, os.path.join(HERE, "inproc.py"), result_path, *flags, "--"]
        else:
            argv = [sys.executable, "-m", "gamarket.cli"]
        wall, rss, code = self._spawn(argv + ["run", "--config", config])
        sample = Sample(kind=kind, wall_s=wall, rss_mb=rss, exit_code=code, probe_s=probe_s)
        if code != 0:
            sample.problems.append(f"exit code {code}: {self._stderr_tail()}")
        else:
            try:
                if kind in ("warmup", "traced"):
                    with open(result_path) as handle:
                        sample.result = json.load(handle)
                self._check(sample, out_dir, days=0 if kind == "setup" else self.workload.days)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                sample.problems.append(f"unreadable outputs: {exc!r}")
        self.samples.append(sample)
        return sample

    def _check(self, sample: Sample, out_dir: str, days: int) -> None:
        w = self.workload
        sample.problems += checks.check_manifest(out_dir)
        sample.problems += checks.replay_trades(
            out_dir,
            self.prices,
            stocks=STOCKS,
            supply=w.total_supply,
            players=w.players,
            initial_cash=w.initial_cash,
            first_day=w.window,
            days=days,
        )
        sample.digest = checks.output_digest(out_dir)
        sample.bytes_written = sum(
            os.path.getsize(os.path.join(out_dir, name)) for name in os.listdir(out_dir)
        )

    def _stderr_tail(self) -> str:
        with open(os.path.join(self.work_dir, "stderr.txt")) as handle:
            lines = handle.read().strip().splitlines()
        return lines[-1] if lines else "(no stderr)"

    def failures(self) -> list[tuple[Sample, str]]:
        """Every failed run with a reason, including digest mismatches per config."""
        failed = [(s, "; ".join(s.problems)) for s in self.samples if s.problems]
        for group in ({"setup"}, {"run", "warmup", "traced"}):
            members = [s for s in self.samples if s.kind in group and not s.problems]
            for i in checks.digest_outliers([s.digest for s in members]):
                failed.append((members[i], "outputs differ from the other runs of this config"))
        return failed


def fast_half_mean(values: list[float]) -> float:
    """Mean of the faster half of the values, the median's side included.

    Host noise only ever adds time, and a probe that ran in a fast moment
    before a slowed run gives that run too high a ratio; the faster half
    drops both.
    """
    ordered = sorted(values)
    half = ordered[: (len(ordered) + 1) // 2]
    return sum(half) / len(half)


def nominal_s(samples: list[Sample]) -> float:
    """Host-speed-corrected seconds: faster-half mean of wall / probe, scaled.

    On the host this was written on, over ten invocations of `reference`
    that straddled a slow spell, raw faster-half means spread by 34% between
    invocations and these by 10%.
    """
    return hostprobe.NOMINAL_S * fast_half_mean([s.wall_s / s.probe_s for s in samples])


def timing(samples: list[Sample]) -> str:
    walls = [s.wall_s for s in samples]
    probes = [s.probe_s for s in samples]
    return (
        f"raw median {statistics.median(walls):.4f} s, max {max(walls):.4f} s; "
        f"host probe median {statistics.median(probes):.4f} s (nominal {hostprobe.NOMINAL_S} s)"
    )


def measure_end_to_end(session: Session) -> dict[str, tuple[float, str, int]]:
    """Alternate set-up runs and full runs until the time budget is spent.

    The first full run warms caches and reads final_val_mse; it is not timed.
    """
    warmup = session.run("warmup")
    round_s = warmup.wall_s
    rounds = 0
    while not session.timed_out and (rounds < MIN_ROUNDS or session.fits(round_s)):
        t0 = time.perf_counter()
        for kind in ["setup"] * SETUPS_PER_ROUND + ["run"]:
            session.run(kind, probe=True)
        round_s = time.perf_counter() - t0
        rounds += 1
    good = {kind: [s for s in session.samples if s.kind == kind and not s.problems] for kind in ("run", "setup")}
    metrics: dict[str, tuple[float, str, int]] = {}
    if good["run"]:
        run_s = nominal_s(good["run"])
        metrics["run_s"] = (run_s, "s", len(good["run"]))
        metrics["peak_rss_mb"] = (statistics.median([s.rss_mb for s in good["run"]]), "MB", len(good["run"]))
        print(f"run wall times: {timing(good['run'])}")
        if good["setup"]:
            setup_s = nominal_s(good["setup"])
            metrics["setup_s"] = (setup_s, "s", len(good["setup"]))
            days = session.workload.days
            metrics["days_per_s"] = (days / (run_s - setup_s), "1/s", len(good["run"]))
            print(f"setup wall times: {timing(good['setup'])}")
    if not warmup.problems and warmup.result.get("final_val_mse") is not None:
        metrics["final_val_mse"] = (warmup.result["final_val_mse"], "mse", 1)
    return metrics


def measure_layers(session: Session) -> tuple[dict[str, tuple[float, str, int]], list[str], dict]:
    """Alternate untraced and traced full runs until the time budget is spent."""
    estimate = 0.0
    pairs = []
    while not session.timed_out and (not pairs or session.fits(estimate)):
        t0 = time.perf_counter()
        pairs.append((session.run("run"), session.run("traced")))
        estimate = time.perf_counter() - t0
    traced = [s for s in session.samples if s.kind == "traced" and not s.problems]
    if not traced:
        return {}, [], {}
    per_run = [spans.layer_metrics(s.result, s.result["absent"]) for s in traced]
    metrics = {}
    for name in spans.LAYER_METRICS:
        values = [m[name][0] for m in per_run if name in m]
        if values:
            metrics[name] = (statistics.median(values), per_run[0][name][1], len(values))
    metrics["reports.bytes_written"] = (float(traced[0].bytes_written), "bytes", len(traced))
    # Each traced run is paired with the untraced run just before it, so
    # slow drift of the host cancels in the difference.
    deltas = [t.wall_s - u.wall_s for u, t in pairs if not (u.problems or t.problems)]
    if deltas:
        metrics["trace.overhead_s"] = (statistics.median(deltas), "s", len(deltas))
    absent = sorted(set(traced[0].result["absent"]) | set(traced[0].result["broken"]))
    self_s, _, root_s = spans.self_times(traced[-1].result)
    return metrics, absent, {"self_s": self_s, "root_s": root_s}


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout; "unknown" outside a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return head.stdout.strip() or "unknown"


def reportable(metrics: dict[str, tuple[float, str, int]]) -> dict[str, tuple[float, str, int]]:
    """The metrics to report: no diagnostic, and none that reads 0 or below."""
    return {k: v for k, v in metrics.items() if k not in DIAGNOSTICS and v[0] > 0}


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    """Measure one workload; print human-readable lines and return the result."""
    work_dir = os.path.join(WORK, f"{workload_name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work_dir, ignore_errors=True)
    hard_deadline = time.perf_counter() + HARD_LIMIT_S
    session = Session(WORKLOADS[workload_name], seed, work_dir, seconds, hard_deadline)
    print(f"== {workload_name}, seed {seed}, trace {int(trace)}, {seconds:g} s budget")
    if trace:
        metrics, absent, breakdown = measure_layers(session)
    else:
        metrics, absent, breakdown = measure_end_to_end(session), [], {}
    failures = session.failures()
    reported = reportable(metrics)
    for name, (value, unit, n) in metrics.items():
        note = ""
        if name in DIAGNOSTICS:
            note = "  (diagnostic, not reported)"
        elif name not in reported:
            note = "  (<= 0, absent)"
        print(f"{name:34s} {value:14.6g} {unit:6s} n={n}{note}")
    for name in absent:
        print(f"{name:34s} {'absent':>14s}")
    attempted = len(session.samples)
    print(f"{'failed_runs':34s} {len(failures):14d} of {attempted} runs")
    for sample, reason in failures:
        print(f"  failed {sample.kind} run: {reason}")
    if breakdown:
        print_breakdown(breakdown)
    record = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "environment": env,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "absent": absent,
        "failed_runs": [{"kind": s.kind, "reason": r} for s, r in failures],
        "samples": [
            {
                "kind": s.kind,
                "wall_s": s.wall_s,
                "probe_s": s.probe_s,
                "rss_mb": s.rss_mb,
                "exit_code": s.exit_code,
                "digest": s.digest,
            }
            for s in session.samples
        ],
    }
    with open(os.path.join(work_dir, "result.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    return {
        "correct": not failures and not session.timed_out,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, n) in reported.items()},
    }


def print_breakdown(breakdown: dict) -> None:
    """Self time of each span inside run_simulation, as shares of its traced time."""
    root_s = breakdown["root_s"]
    outside = ("config.parse_config", "reports.emit_reports")
    inside = {k: v for k, v in breakdown["self_s"].items() if k not in outside}
    print(f"traced run_simulation {root_s:.4f} s = sum of self times {sum(inside.values()):.4f} s:")
    for name, value in sorted(inside.items(), key=lambda kv: -kv[1]):
        print(f"  {name:30s} {value:9.4f} s  {100 * value / root_s:5.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # Without the sources there is nothing to measure: fail before any result.
    if not os.path.isdir(os.path.join(SRC, "gamarket")):
        print(f"perfbench: no gamarket sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    results = {}
    for name in names:
        for trace in traces:
            results[(name, trace)] = benchmark(name, args.seed, args.seconds, trace, env)
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for (n, _), r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
