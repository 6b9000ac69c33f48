"""The benchmark workloads' outputs keep their bytes.

Runs perfbench's `reference` and `crowd` workloads at seeds 0 and 1 in-process,
from the inputs `perfbench/workloads.py` writes, and compares the sha256 of
every output file with digests recorded with numpy 2.4.6 on an AVX-512 host
under its default OpenBLAS kernel; the bytes depend on all three.  A change
that is meant to keep `out/` byte-identical must keep these; one that
changes the model on purpose records new digests and says why.
"""

import hashlib
import os

import pytest

from gamarket.cli import main as cli_main

WORKLOAD_DIGESTS = {
    ("reference", 0): {
        "complexity.csv": "e9ac67bfe4ffb63580be804eea6d31b94d7c534565fced0d754f571b35f4b2ec",
        "config.resolved": "6c09a5c4a887fa2b4efb118a00c04cfba5919d0e6b89b6117fb46c290ef5af22",
        "generations.csv": "e276213bf558ec3a4273ab0e504ffe6265250f6ea2b6b8e98366f98139d8e4eb",
        "hidden_units.csv": "bd76b2cf05962cb554f90670214cec65e95e73d2b12134a94c00f435147af61e",
        "manifest": "2b64199d1e6b14b1d23ea31c5f7fc9dc229b14726aa8db0eea9315d737987647",
        "networth.csv": "b3e6737babf6c996018f8ffad82bcd6b6386c2d1ce3acc715a26484e05c97a30",
        "trades.csv": "0278c29ac35bcf50d0552ebe735edfa4990ec0e1a5ded1612b307e94e9e5562d",
    },
    ("crowd", 0): {
        "complexity.csv": "c5fea3ea54de764583742c698227e9f87a1a9ca7a6cfc974f02298ec76a9c508",
        "config.resolved": "fa4be77924db7d5f4f9d360392050ae017e74f25a3af762089ef51ffa4ffa3ee",
        "generations.csv": "f4b9999d3df03b019087f362b91d963b81582ced667d34edc19af5abd84239f7",
        "hidden_units.csv": "9aaee9de5881b0a99cf021faded54bc1faa898ea7c636e588bd79de92ecc52ec",
        "manifest": "b49c37311c94eb16f6553352c24fcebc99589484db79768046d51abfbfff2fbf",
        "networth.csv": "59c7cb6820e2c81215ef404b154f75e3d8828019d3a542ba66aa315fc5449e0f",
        "trades.csv": "18a27f5c734496a16a37e1cf0146d9b5fd9255af44ee1c3bbe687f4f24f9523d",
    },
    ("reference", 1): {
        "complexity.csv": "2087ab9a3d2b89f3b8ec442d2d481743cf90e9bb7e83d97a03d41be1bd2d3d68",
        "config.resolved": "2f82dd3c4d3c8be0c133077ea3e1c8312360d2b88a6ac84730a2803e16d837da",
        "generations.csv": "2842468ddebceab1142ce7204e5eef5cc9631d3099778cacae152a483022f3be",
        "hidden_units.csv": "6bf5ddc55e1e27c1b1c2d2ba8b5a36f8fa14be7c0debe1343390f9de537685e0",
        "manifest": "add54bbc7bce3b0c0cf80ba7e3659829dcc1404b8eb655f5b98510fb0d5b7e73",
        "networth.csv": "8bc2bc79a2094db23b875581c29e38e876061a86eee89b668008c867381b6ba4",
        "trades.csv": "5f312c02c1dbd0685716139a710dbce590c57caff3c4af7cb83c86eb5d6cf591",
    },
    ("crowd", 1): {
        "complexity.csv": "aa8622629544df257348f62fa94b365a528c62e9d4c053ee465d1de32587319d",
        "config.resolved": "b141d8b16127115b48defa142e89ec58fedc896e01d2919f79483b9e76f2d0a1",
        "generations.csv": "5f56002e2f12c706ded6fac172f2aaf3950a5b0331d25e5a525a34bc22048b64",
        "hidden_units.csv": "b4118fc3db735f3bad3ae2de118d2e240f3b533cf41d5e4dc566b0c4b7227ff0",
        "manifest": "1752b56f5e4d6116694326b312232857d89c213774c5d8ffc90f5b8b95d44817",
        "networth.csv": "dc23482c12e7e90a39cad50641c4d461da2d5d9091aefc8f2de74734cba70296",
        "trades.csv": "430c4c9b8ecb943cf0235843b9afdb2a53d38e623b1337d62bf518297292ce0f",
    },
}


@pytest.mark.parametrize(
    "name, seed",
    # Seed 0 keeps the bare workload name as its test id.
    [
        pytest.param(name, seed, id=name if seed == 0 else f"{name}-seed{seed}")
        for name, seed in sorted(WORKLOAD_DIGESTS)
    ],
)
def test_workload_output_bytes_match_recorded_digests(
    name, seed, tmp_path, monkeypatch, workloads, host_dependence
):
    # The configs use relative paths, so `config.resolved` does not depend
    # on the directory.
    monkeypatch.chdir(tmp_path)
    workloads.make_inputs(workloads.WORKLOADS[name], seed, ".")
    assert cli_main(["run", "--config", workloads.RUN_CFG]) == 0
    out = tmp_path / workloads.OUT_DIR
    digests = {
        file: hashlib.sha256((out / file).read_bytes()).hexdigest()
        for file in sorted(os.listdir(out))
    }
    assert digests == WORKLOAD_DIGESTS[name, seed], (
        f"{name} at seed {seed}: the output bytes differ from the recorded digests; "
        + host_dependence
    )

