"""Byte-identical run guard: SHA-256 digests of the CSV v1 file and of the
``<output>.json`` sidecar that ``run`` writes, for every mode at workers 1
and 2.

The digests were recorded before the per-trial types of the harness and the
enumeration kernels of search and MAP were merged; any change to the trial
seeds, the row order, the cell formatting, the theory columns, the search
results and ``tested`` counts, the MAP estimates or the sidecar layout shows
up here.  The output path is relative, so the sidecar bytes do not depend on
the test's temporary directory.
"""

from __future__ import annotations

import hashlib

import pytest

from align_lab import parse_config, run

CONFIGS = {
    "pistar-good": """
mode = pistar-good
n = 60
q = 0.2
s = 0.5
alpha = 0.4
trials = 3
base_seed = 7
""",
    "sweep": """
mode = sweep
n = 300
s = 0.5
nqs = 0.5, 1.5, 6.0
alpha = 0.5
beta = 0.32
gamma = 0.25
trials = 4
base_seed = 19
""",
    "search-small": """
mode = search-small
n = 7
q = 0.4
s = 0.9
alpha = 0.6
limit = 3000
trials = 5
base_seed = 11
""",
    "map-small": """
mode = map-small
n = 7
q = 0.4
s = 0.9
alpha = 0.3
trials = 3
base_seed = 13
""",
}

# mode -> (CSV digest, sidecar digest at workers 1, sidecar digest at workers 2)
PINNED = {
    "pistar-good": (
        "883d69dbab7b420cbb4ead038948addcc88fd060b482b32301637365da856233",
        "d2ebc80684f21a5fcde62d1f48e09850c689dd61b3334e12c9c109f174e02a59",
        "a581bd9c49af4930acb106162c2eadcff67b53e9389abf578427bb2b1b63a7ad",
    ),
    "sweep": (
        "e469816e3b7046cb0b9ab1a7837147a6233adb0ef02e8829c96868ec9b975014",
        "b659642be6fb39c0278450cddcae2ef3d1e1b5acd230308e5130743d6ca3968e",
        "e24e3a5438c8d8220979849eb2edea493322e22bb354a16281ae81a7e52d50c5",
    ),
    "search-small": (  # hits at candidates 746 and 2290, then three limit cuts
        "213b9b38e2424669c87d4782ef08ca215fe0517731d20e1210d011e916d49d9e",
        "226230ce36dcb11cc0410d7f6f73e0dfb3d088283e59d0f766ab9694cd3ca5e4",
        "5d40fd9d134d9ef9c772e161b33ea997908dadc3643267fff9c0383dcde2e78d",
    ),
    "map-small": (
        "54a02d572dedf2ab72e1a615b31afbbf5e2bb47c4a2db3156056b6808a4c282a",
        "284f64ca3e826aab26202431877cfc236f4e5b4f6a7dd1cfc5a02b26840d02fb",
        "92d8f88c2f1efc1be037f26aa67a93fdc8b99c14a7b504aecca430219ed640d5",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", list(CONFIGS))
def test_csv_and_sidecar_bytes_are_pinned(tmp_path, monkeypatch, mode, workers):
    monkeypatch.chdir(tmp_path)
    text = CONFIGS[mode] + f"workers = {workers}\noutput = run.csv\n"
    (tmp_path / "exp.cfg").write_text(text)
    result = run(parse_config(tmp_path / "exp.cfg"))
    csv_digest, *sidecar_digests = PINNED[mode]
    assert _sha256(result.csv_path) == csv_digest
    assert _sha256(result.sidecar_path) == sidecar_digests[workers - 1]
