"""The bundled configs and sweeps write exactly the bytes recorded here.

Each output's sha256 is pinned. A change that alters a bundled output on
purpose updates its digest here and lists the changed values in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from airsync.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

RUNS = {
    "run-single-bs": ["run", "--config", "single-bs.yaml", "--trace"],
    "run-two-bs": ["run", "--config", "two-bs.yaml", "--trace"],
    "run-pmu-fault": ["run", "--config", "pmu-fault.yaml", "--trace"],
    "run-heterogeneous": ["run", "--config", "heterogeneous.yaml", "--trace"],
    "sweep-pmu": ["sweep", "--config", "pmu-fault.yaml", "--sweep", "sweeps/pmu-sync-bound.yaml"],
    "sweep-sib": ["sweep", "--config", "single-bs.yaml", "--sweep", "sweeps/sib-granularity.yaml"],
}

SHA256 = {
    "run-single-bs": {
        "manifest.json": "0716d8c06d4270da0b5d5bfd42f97b5856e0d248b6606b1d6547428a6905a88b",
        "report.csv": "c8da4d670fbef97bbf4fdd092e0086fc824967ee12c5d1e27aa76c4b7fbe8919",
        "report.json": "01f8c1d11d68684aa619c8a7f723f3448ab5ca16f9da816c654843962add9fe9",
        "trace.json": "4353f3866771ac063e0a0bf9d0999b0fc43e6a26529740e760c0e2dab361ca1e",
    },
    "run-two-bs": {
        "manifest.json": "0716d8c06d4270da0b5d5bfd42f97b5856e0d248b6606b1d6547428a6905a88b",
        "report.csv": "de8f8de822b9d6dc0e75928a2604e9420f01c13c95553ad82401f06c414849a5",
        "report.json": "5fb167ee57f79702efd0a6a69a0c05a8e8a3441f8bfadf63f17391ef9e70ea8e",
        "trace.json": "f79e9a35487fdc94a69ce796269f948f1531275d133e7e0ae66b5fae0a165e0e",
    },
    "run-pmu-fault": {
        "manifest.json": "0716d8c06d4270da0b5d5bfd42f97b5856e0d248b6606b1d6547428a6905a88b",
        "report.csv": "d3aa4830ef30306749be95b73865ebedc3a86c8c4d53275160714868aa8448a1",
        "report.json": "3160a007aab5ee376ae7d20f1af9d3a4a34825871d3702beb92d0e30cbb02400",
        "trace.json": "97337aedc891eb29990dfff8010509030ddc42e0cc1169ab2243b76e866bcba2",
    },
    "run-heterogeneous": {
        "manifest.json": "0716d8c06d4270da0b5d5bfd42f97b5856e0d248b6606b1d6547428a6905a88b",
        "report.csv": "48aa96a72062c4c89dcb1b96d0fd1b07f99da6708ee9b84c52b73f7e8ab31715",
        "report.json": "87fc94c666f8c0c849321ebd3e5a28054c754a1f7ed2392d1968cd9fe71e693d",
        "trace.json": "f7f57e5ff1e21ef3b064dcb5f745e32ba267c3dad73b52a4e19d4919509c102d",
    },
    "sweep-pmu": {
        "manifest.json": "f6f680c0b54d5d89308bf3fc470c9636778d0f75b176378bbd2b63e0f4facade",
        "sweep.csv": "eb4d8d5c975e8bbce2be5943ff4bd216369d140efa96eeb547e9d95bc8bcd07f",
        "sweep.json": "54d5422a1f244927597020c8a803626d80e2b247c8c90fe9340e31df58d08f45",
    },
    "sweep-sib": {
        "manifest.json": "f6f680c0b54d5d89308bf3fc470c9636778d0f75b176378bbd2b63e0f4facade",
        "sweep.csv": "0da18ae91a3686b60fc3004573289acc153b62b45716c32afe8c7c7dfd72b1fe",
        "sweep.json": "238fd7283b43c93fe85a6582adc437dc55a923cf76fb8cc533e2c27fe5f97db1",
    },
}


@pytest.mark.parametrize("name", RUNS)
def test_bundled_outputs_match_their_digests(name, tmp_path):
    args = [str(CONFIG_DIR / arg) if arg.endswith(".yaml") else arg for arg in RUNS[name]]
    out = tmp_path / name
    assert main(args + ["--out", str(out)]) == 0
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()} == SHA256[name]
