"""Configuration loading, validation, hashing, and the provenance it feeds."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from depgrowth import cli
from depgrowth.config import (
    ConfigError,
    PipelineConfig,
    file_sha256,
    load_config,
    resolve_config,
)


class TestValidate:
    def test_defaults_are_valid(self):
        config = PipelineConfig()
        assert config.validate() is config

    @pytest.mark.parametrize(
        "field,value",
        [
            ("grid", (100, 10)),
            ("grid", (365, 45)),
            ("min_dependents", -1),
            ("alpha", 0.0),
            ("alpha", 1.0),
            ("alpha", -0.2),
            ("zero_split", "both"),
            ("ecosystems", ()),
            ("ecosystems", ("npm", "cargo")),
            ("workers", 0),
            ("rate_per_sec", 0.0),
            ("rate_per_sec", float("nan")),
            ("rate_per_sec", float("inf")),
            ("rate_per_sec", float("-inf")),
        ],
    )
    def test_invariant_violations(self, field, value):
        config = PipelineConfig()._replace(**{field: value})
        with pytest.raises(ConfigError):
            config.validate()

    def test_all_supported_grids_pass(self):
        for grid in ((180, 45), (365, 90), (730, 180)):
            PipelineConfig()._replace(grid=grid).validate()

    def test_unknown_ecosystem_message_names_offender(self):
        config = PipelineConfig()._replace(ecosystems=("npm", "cargo"))
        with pytest.raises(ConfigError, match="cargo"):
            config.validate()


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "text",
        [b"[" * 200_000, b'{"alpha": ' + b"7" * 5000 + b"}", b'{"out_dir": "caf\xe9"}'],
        ids=["deep nesting", "huge integer", "not UTF-8"],
    )
    def test_an_unreadable_document_is_a_config_error(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match="cfg.json"):
            load_config(path)

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"releases": "r.jsonl", "bogus": 1}), encoding="utf-8")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_lists_become_tuples(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"ecosystems": ["pypi", "npm"], "grid": [180, 45]}), encoding="utf-8"
        )
        config = load_config(path)
        assert config.ecosystems == ("pypi", "npm")
        assert config.grid == (180, 45)

    def test_invalid_value_rejected_at_load(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alpha": 2.0}), encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)


class TestFieldTypes:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("releases", 5),
            ("out_dir", None),
            ("ecosystems", ["npm", 5]),
            ("min_dependents", "5"),
            ("min_dependents", True),
            ("min_dependents", 5.0),
            ("grid", [365.0, 90]),
            ("grid", ["365", "90"]),
            ("alpha", "0.1"),
            ("alpha", True),
            ("zero_split", 1),
            ("fold_zero", "false"),
            ("fold_zero", 0),
            ("workers", 2.5),
            ("model_id", None),
            ("model_endpoint", 5),
            ("rate_per_sec", "2"),
            ("human_ratings", ["h.jsonl"]),
        ],
    )
    def test_a_value_of_another_type_is_a_config_error(self, tmp_path, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{key} must be "):
            load_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [("alpha", 0.1), ("rate_per_sec", 2), ("rate_per_sec", None), ("model_endpoint", None)],
    )
    def test_a_number_or_null_where_one_is_allowed_passes(self, tmp_path, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}), encoding="utf-8")
        assert getattr(load_config(path), key) == value

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_a_rate_that_is_not_finite_is_a_config_error(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text('{"rate_per_sec": %s}' % text, encoding="utf-8")
        with pytest.raises(ConfigError, match="^rate_per_sec must be a finite positive number"):
            load_config(path)

    def test_the_cli_exits_2_naming_the_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"min_dependents": "5"}), encoding="utf-8")
        assert cli.main(["analyze", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "min_dependents" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["a\u0000b", "\ud800"], ids=["NUL", "lone surrogate"])
    @pytest.mark.parametrize("key", ["releases", "repo_snapshots", "dependent_edges", "out_dir", "human_ratings"])
    def test_a_path_the_os_cannot_take_exits_2(self, tmp_path, monkeypatch, capsys, key, value):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}), encoding="utf-8")  # both written as JSON escapes
        out = [] if key == "out_dir" else ["--out-dir", "out"]
        assert cli.main(["all", "--config", str(path), *out]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: {key} is not a path the OS can take")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_an_undecodable_byte_from_argv_is_still_a_path(self, tmp_path):
        # byte 0x80 in argv, which the interpreter decodes to a lone surrogate
        src = os.path.dirname(os.path.dirname(cli.__file__))
        result = subprocess.run(
            [sys.executable, "-m", "depgrowth.cli", "analyze", "--out-dir", os.fsdecode(b"\x80")],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
        )
        assert result.returncode == 3
        assert result.stderr.startswith(b"data error: ")


class TestResolveConfig:
    def test_defaults_when_nothing_given(self):
        assert resolve_config(None, {}) == PipelineConfig()

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alpha": 0.01, "out_dir": "elsewhere"}), encoding="utf-8")
        config = resolve_config(path, {})
        assert config.alpha == 0.01
        assert config.out_dir == "elsewhere"
        assert config.min_dependents == PipelineConfig().min_dependents

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": [365, 90], "alpha": 0.01}), encoding="utf-8")
        config = resolve_config(path, {"grid": (180, 45)})
        assert config.grid == (180, 45)
        assert config.alpha == 0.01

    def test_none_overrides_ignored(self):
        config = resolve_config(None, {"alpha": None, "workers": 3})
        assert config.alpha == PipelineConfig().alpha
        assert config.workers == 3

    def test_resolution_still_validates(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": [365, 90]}), encoding="utf-8")
        with pytest.raises(ConfigError):
            resolve_config(path, {"alpha": 5.0})

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_a_rate_flag_that_is_not_finite_exits_2(self, tmp_path, capsys, text):
        out = tmp_path / "out"
        assert cli.main(["complexity", f"--rate-per-sec={text}", "--out-dir", str(out)]) == 2
        assert "rate_per_sec" in capsys.readouterr().err
        assert not out.exists()


class TestHashing:
    def test_provenance_holds_no_path_out_dir_or_workers(self, tmp_path, monkeypatch):
        # the same files spelled two ways, another out_dir and more workers:
        # the same provenance; another threshold: another provenance
        (tmp_path / "corpus").mkdir()
        for name in cli.CORPUS_INPUTS:
            (tmp_path / "corpus" / f"{name}.jsonl").write_text(f'{{"{name}": 1}}\n', encoding="utf-8")
        monkeypatch.chdir(tmp_path)

        def provenance(root, **values):
            paths = {name: f"{root}/{name}.jsonl" for name in cli.CORPUS_INPUTS}
            config = PipelineConfig(**paths, **values)
            return cli._provenance(config, "filter", cli.Corpus(config))

        base = provenance("corpus")
        assert provenance(tmp_path / "corpus", out_dir="elsewhere", workers=4) == base
        assert provenance("./corpus/../corpus") == base
        assert provenance("corpus", min_dependents=6) != base
        assert base["keys"]["min_dependents"] == PipelineConfig().min_dependents
        assert base["inputs"]["releases"] == file_sha256("corpus/releases.jsonl")

    def test_file_sha256_matches_direct_digest(self, tmp_path):
        path = tmp_path / "blob.bin"
        payload = b"x" * (1 << 20) + b"tail"
        path.write_bytes(payload)
        assert file_sha256(path) == hashlib.sha256(payload).hexdigest()
