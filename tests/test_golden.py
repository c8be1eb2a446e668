"""Pinned sha256 of every artifact of ``depgrowth all`` on the small synth
corpus (seed 3), provenance included, under three analysis configs.

A change that alters any artifact byte fails here, naming each artifact that
changed. A change meant to alter output rewrites the pins with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from depgrowth import cli
from depgrowth.synth import build_world, small_config, write_corpus

PINS = Path(__file__).resolve().parent / "golden" / "small_seed3_sha256.json"

CONFIGS = {
    "default": [],
    "grid 180,45": ["--grid", "180,45"],
    "grid 730,180 unfolded, zero split folded": ["--grid", "730,180", "--no-fold-zero", "--zero-split", "folded"],
}


def _digests(corpus: Path, out: Path, config: list[str]) -> dict[str, str]:
    """The sha256 of each file ``all`` writes under ``config``."""
    inputs = [f"--{name.replace('_', '-')}={corpus / name}.jsonl" for name in cli.CORPUS_INPUTS]
    assert cli.main(["all", *inputs, "--workers", "1", "--out-dir", str(out), *config]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    write_corpus(build_world(small_config(seed=3)), path)
    return path


@pytest.mark.parametrize("config", CONFIGS)
def test_artifact_digests(corpus, tmp_path, config):
    got = _digests(corpus, tmp_path / "out", CONFIGS[config])
    want = json.loads(PINS.read_text(encoding="utf-8"))[config]
    changed = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    assert not changed, f"artifacts that differ from their pins under {config}: {', '.join(changed)}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        root = Path(work)
        write_corpus(build_world(small_config(seed=3)), root / "corpus")
        pins = {name: _digests(root / "corpus", root / str(i), config) for i, (name, config) in enumerate(CONFIGS.items())}
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
