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
        "report.csv": "36c9939539154f81b750020de50f795e2445bfe8710f7242049b508e8f37f096",
        "report.json": "802041b154a81772b253b8ffaa95a55af7e66e921c318482e9f23ee53d346f54",
        "trace.json": "3d4e16217aad9af8113aab3c8f73b9b960862077b91f18120d3ecd90180747d0",
    },
    "run-two-bs": {
        "manifest.json": "0716d8c06d4270da0b5d5bfd42f97b5856e0d248b6606b1d6547428a6905a88b",
        "report.csv": "d66122ac7972472f32a924e3672e8a9fce46f1e208d5633762d7490fe4ad003a",
        "report.json": "aae1e36fa43be15404f9daea42532c42b43a146f8cf03d5c4a9ad557f02a3012",
        "trace.json": "e2702e85bd554e1ebc702a9cdb9a0624195150612fd6716aabf48ce77b671591",
    },
    "run-pmu-fault": {
        "manifest.json": "0716d8c06d4270da0b5d5bfd42f97b5856e0d248b6606b1d6547428a6905a88b",
        "report.csv": "994a3a0de24f27c2d506bd3606c7107f6eac8048720806bad1b471c4686d54ca",
        "report.json": "2d64358425dea12eed76f76ca85b62322d6481251e20941d1545b6c6d5a3329c",
        "trace.json": "56a2930b152e6e55a487f1925c93c8f36b1a6b2df0dfc745531953b651485ed9",
    },
    "run-heterogeneous": {
        "manifest.json": "0716d8c06d4270da0b5d5bfd42f97b5856e0d248b6606b1d6547428a6905a88b",
        "report.csv": "3e4f36717d0377f4bb6270d5cab7c2916da0c36a6a4a1fdef071174f5833a2ae",
        "report.json": "960add4086b99195e6ba4cee990a3cdb2e5dc626b17969fe97d5849f673866c7",
        "trace.json": "f7f57e5ff1e21ef3b064dcb5f745e32ba267c3dad73b52a4e19d4919509c102d",
    },
    "sweep-pmu": {
        "manifest.json": "f6f680c0b54d5d89308bf3fc470c9636778d0f75b176378bbd2b63e0f4facade",
        "sweep.csv": "ef338748c458c5ec0f091422fc4c30b6b7c4fec11f7c6fbea84872cf36799b60",
        "sweep.json": "a5bf965eb926252e13d6f18d361305f1526fc3cdedcaf17f059c3cc7667aa018",
    },
    "sweep-sib": {
        "manifest.json": "f6f680c0b54d5d89308bf3fc470c9636778d0f75b176378bbd2b63e0f4facade",
        "sweep.csv": "f7cb768989445a0086105fbdc5e7052820c8173b27f2ce86279bf2b57cae6098",
        "sweep.json": "10b785aed0041b7992091d5fdf4729f947ad58bc1039594f141f3bba14a0cf0a",
    },
}


@pytest.mark.parametrize("name", RUNS)
def test_bundled_outputs_match_their_digests(name, tmp_path):
    args = [str(CONFIG_DIR / arg) if arg.endswith(".yaml") else arg for arg in RUNS[name]]
    out = tmp_path / name
    assert main(args + ["--out", str(out)]) == 0
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()} == SHA256[name]
