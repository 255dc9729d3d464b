"""Scan output pinned byte for byte.

A refactor of the scan must leave its CSV and summary byte-identical; these
digests make that a gate.  Each is the sha256 of the `scan --out` CSV
followed by its summary, for one table curve at --xmax 100000 --seed 0
--checkpoints 10000,100000.  Only a deliberate change of output may update
them.
"""
import hashlib

import pytest

from cmfactors import stats
from cmfactors.cli import main

DIGESTS = {
    "j0-D3": "ead60f8d1e403c728d9fc077eaf04446bb4f9fc852c875113e398706e0f53140",
    "j1728-D4": "e7ad26639e788a8ca6c4f1d68f9b4eddd12ebb6acf312e28ae6cff0d67bf942e",
    "j-3375-D7": "9b7bc01d8cd4ebb60babcc7accf5993c1f7963b7d0bd682806528b4fb84e56e7",
    "j8000-D8": "f1907c4452d0b241780e219b69da5a82d0a554f59a8e31df8f2579d899125faf",
    "j-32768-D11": "72abdd66ebb9a268044c104570a4d21918a128fc12d040eb70b27480bcae7681",
    "j54000-D12": "710df2da4a152adc9db9413c40b00dbac27038e9c605914fdf53c48549701db0",
    "j287496-D16": "3a894393e3e9ede17f0fe0a77552eb631432daf6af171f988cd6fac7583346af",
    "j-884736-D19": "a5969f34afec9c4d3a09d439035c85a03decc592efbc3d767e8bc5c9a26e0760",
    "j-12288000-D27": "005600e1f07da74a766c974ca08d7e4a1d4d0b5ee5454d9093fbae3e68d5cde1",
    "j16581375-D28": "fdf44ca511c21259246935d035eca48704c6a9d1094db2d1e90ca87183e68f5f",
    "j-884736000-D43": "cdc990ba01cf7355768c8ce4aa0082dac9a3424925ac67c5664e01689f5bd37d",
    "j-147197952000-D67": "cf9140c5ef901ed18f335bd32babae99b637492f0ed667e5a72a889de9a7e7f7",
    "j-262537412640768000-D163": "cdd6b051ed6c199d50b13ec92c9d14eb3370ac6d08bbcdb143c09c7ca6490c7d",
}


def _digest(tmp_path, capsys, label, workers):
    out = tmp_path / f"{label}.w{workers}.csv"
    code = main([
        "scan", "--curve", label, "--xmax", "100000", "--seed", "0",
        "--workers", str(workers), "--checkpoints", "10000,100000", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    summary = out.with_name(out.name + ".summary.json")
    return hashlib.sha256(out.read_bytes() + summary.read_bytes()).hexdigest()


@pytest.mark.parametrize("label", sorted(DIGESTS))
def test_scan_output_digest(tmp_path, capsys, label):
    assert _digest(tmp_path, capsys, label, 1) == DIGESTS[label]


def test_scan_output_digest_two_workers(tmp_path, capsys):
    assert _digest(tmp_path, capsys, "j1728-D4", 2) == DIGESTS["j1728-D4"]


@pytest.mark.parametrize(
    "label, workers",
    [pytest.param(label, w, id=label if w == 1 else f"{label}-w{w}")
     for label in ("j1728-D4", "j0-D3") for w in (1, 2, 3)],
)
def test_scan_output_digest_at_an_odd_span(tmp_path, capsys, monkeypatch, label, workers):
    # Ranges of an odd span start on both parities of a and hand the CSV
    # formatter blocks of a few rows; at 2 and 3 workers the round robin of
    # ~100 ranges wraps many times.  The output must not change.
    monkeypatch.setattr(stats, "CHUNK_SPAN", 997)
    assert _digest(tmp_path, capsys, label, workers) == DIGESTS[label]
