"""Pinned sha256 of every artifact of ``depgrowth all`` on the small synth
corpus (seed 3), provenance included, under three analysis configs, and of
``depgrowth filter`` on the benchmark's daily dump (seed 7), a date-major
rewrite with re-crawled and malformed lines that ``perfbench/corpus.py``
builds.

A change that alters any artifact byte fails here, naming each artifact that
changed. A change meant to alter output rewrites the pins with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from depgrowth import cli
from depgrowth.synth import build_world, small_config, write_corpus

GOLDEN = Path(__file__).resolve().parent / "golden"
PINS = GOLDEN / "small_seed3_sha256.json"
DAILY_DUMP_PINS = GOLDEN / "daily_dump_seed7_filter.sha256"

CONFIGS = {
    "default": [],
    "grid 180,45": ["--grid", "180,45"],
    "grid 730,180 unfolded, zero split folded": ["--grid", "730,180", "--no-fold-zero", "--zero-split", "folded"],
}


def _digests(corpus: Path, out: Path, config: list[str], command: str = "all") -> dict[str, str]:
    """The sha256 of each file ``command`` writes under ``config``."""
    inputs = [f"--{name.replace('_', '-')}={corpus / name}.jsonl" for name in cli.CORPUS_INPUTS]
    assert cli.main([command, *inputs, "--workers", "1", "--out-dir", str(out), *config]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())}


def _daily_dump_digests(root: Path) -> dict[str, str]:
    """The sha256 of each file ``filter`` writes on the daily dump of the
    benchmark world (seed 7), built under ``root``."""
    spec = importlib.util.spec_from_file_location("perfbench_corpus", GOLDEN.parents[1] / "perfbench" / "corpus.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.generate("bench", 7, root / "clean")
    injected = bench.daily_dump(root / "clean", root / "dump", 7)
    assert injected == {"releases": 0, "repo_snapshots": 239, "dependent_edges": 118}
    return _digests(root / "dump", root / "out", [], "filter")


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


def test_daily_dump_filter_digests(tmp_path):
    got = _daily_dump_digests(tmp_path)
    want = dict(line.split()[::-1] for line in DAILY_DUMP_PINS.read_text(encoding="utf-8").splitlines())
    changed = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    assert not changed, f"daily dump filter artifacts that differ from their pins: {', '.join(changed)}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        root = Path(work)
        write_corpus(build_world(small_config(seed=3)), root / "corpus")
        pins = {name: _digests(root / "corpus", root / str(i), config) for i, (name, config) in enumerate(CONFIGS.items())}
        dump = _daily_dump_digests(root / "daily_dump")
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    DAILY_DUMP_PINS.write_text("".join(f"{digest}  {name}\n" for name, digest in dump.items()), encoding="utf-8")
