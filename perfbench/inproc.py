"""Run `gamarket run` in this process, optionally traced, and save a result file.

Usage: python3 perfbench/inproc.py RESULT_JSON [--trace] -- <gamarket run arguments>

The run goes through `gamarket.cli.main`, exactly as `python -m
gamarket.cli` would.  `run_simulation` is wrapped where the CLI looks it
up to read the final population's validation MSE; with `--trace`, every
function in `spans.TARGETS` is wrapped too and the spans are saved.
"""

from __future__ import annotations

import json
import sys

import spans


def main(argv: list[str]) -> int:
    result_path, flags, cli_args = argv[0], argv[1 : argv.index("--")], argv[argv.index("--") + 1 :]
    import gamarket.cli as cli

    recorder = spans.Recorder()
    absent = spans.install(recorder) if "--trace" in flags else []
    outputs = []
    run_simulation = cli.run_simulation

    def capture(*args, **kwargs):
        output = run_simulation(*args, **kwargs)
        outputs.append(output)
        return output

    cli.run_simulation = capture
    code = cli.main(cli_args)
    result = {"exit_code": code, "absent": absent}
    try:
        result["final_val_mse"] = float(outputs[0].metrics.generation_error_rows[-1][1])
    except (AttributeError, IndexError, TypeError):
        pass  # reported as absent, like a wrapped name that no longer exists
    if "--trace" in flags:
        result.update(recorder.to_json())
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
