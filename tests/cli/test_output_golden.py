"""Byte-level goldens for five CLI outputs.

Each digest is the sha256 of a file a CLI writes for a fixed command.
The outputs depend only on simulated behaviour and proof results, never
on wall time, so any drift means the program now behaves differently.
If a change is meant to alter one of these outputs, recompute that
digest and say why in the same change.
"""

import hashlib

from repro.faults.__main__ import main as faults_main
from repro.topo.__main__ import main as topo_main
from repro.verify.__main__ import main as verify_main

#: ``python -m repro.verify --max-len 7 --out FILE``
VERIFY_MAX_LEN_7 = "3cab93175828ee55de65b06684a19c8fea16ee2f109552266884796d8110ddb2"

#: ``python -m repro.faults --matrix smoke --seeds 2 --out FILE``
FAULTS_SMOKE_2 = "2b91121bce51cf1dadd70c29957ba6d3adf5407bf88cf50ff5a8f48bcbd32bd9"

#: ``python -m repro.faults --matrix negative --seeds 1 --out FILE``
#: (exits 1: the negative control is red by design)
FAULTS_NEGATIVE_1 = "5cd6e66526b39b144625e4f1a02cd4cac94c6f49df724cf147b4b222cd4a22b0"

#: ``python -m repro.topo campaign --matrix fleet-smoke --seeds 2 --out FILE``
TOPO_FLEET_SMOKE_2 = (
    "5ed2338c96623fda2fbb5b31aa21415f6c1760c55a74370985c780bad1e8bf0a"
)

#: ``deliveries.jsonl`` from ``python -m repro.topo run --kind grid
#: --nodes 64 --shards 2 --mode sharded --out-dir DIR``
TOPO_SHARDED_DELIVERIES = (
    "7df7ac09d929b9e5b27e201fea1158adb0bcc4eb8dbee229bff76abcd4f08c45"
)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_verify_report(tmp_path):
    out = tmp_path / "proofs.json"
    assert verify_main(["--max-len", "7", "--out", str(out)]) == 0
    assert sha256(out) == VERIFY_MAX_LEN_7


def test_faults_smoke_report(tmp_path, capsys):
    out = tmp_path / "resilience.json"
    assert faults_main(["--matrix", "smoke", "--seeds", "2", "--out", str(out)]) == 0
    assert sha256(out) == FAULTS_SMOKE_2


def test_faults_negative_report(tmp_path, capsys):
    out = tmp_path / "resilience.json"
    argv = ["--matrix", "negative", "--seeds", "1", "--out", str(out)]
    assert faults_main(argv) == 1
    assert sha256(out) == FAULTS_NEGATIVE_1


def test_topo_fleet_smoke_campaign(tmp_path, capsys):
    out = tmp_path / "fleet.json"
    argv = ["campaign", "--matrix", "fleet-smoke", "--seeds", "2"]
    argv += ["--out", str(out)]
    assert topo_main(argv) == 0
    assert sha256(out) == TOPO_FLEET_SMOKE_2


def test_topo_sharded_deliveries(tmp_path, capsys):
    argv = ["run", "--kind", "grid", "--nodes", "64", "--shards", "2"]
    argv += ["--mode", "sharded", "--out-dir", str(tmp_path)]
    assert topo_main(argv) == 0
    assert sha256(tmp_path / "deliveries.jsonl") == TOPO_SHARDED_DELIVERIES
