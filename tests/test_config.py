"""Tests for the flat dotted-key pipeline configuration."""

import json
import re
from pathlib import Path

import pytest

from sweepnav.cli import COMMANDS
from sweepnav.config import (
    CHOICES,
    DEFAULTS,
    LIMITS,
    ConfigError,
    PipelineConfig,
    load_config,
    parse_override,
)


class TestDefaults:
    def test_covers_every_stage(self):
        stages = {key.split(".")[0] for key in DEFAULTS}
        assert stages == {"sim", "hacf", "estimator",
                          "oracle", "rae", "capture", "refine",
                          "eval", "map", "caption"}

    def test_fresh_config_equals_defaults(self):
        cfg = PipelineConfig()
        assert {key: cfg[key] for key in DEFAULTS} == DEFAULTS

    def test_getitem_reads_values(self):
        cfg = PipelineConfig()
        assert cfg["rae.k"] == 5
        assert cfg["refine.learning_rate"] == 0.01


class TestValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            PipelineConfig({"rae.K": 3})

    def test_unknown_key_on_read(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            PipelineConfig()["nope.nope"]

    def test_int_promotes_to_float_default(self):
        cfg = PipelineConfig({"sim.speed": 1})
        assert cfg["sim.speed"] == 1.0
        assert isinstance(cfg["sim.speed"], float)

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError, match="expected a number"):
            PipelineConfig({"rae.k": True})

    def test_number_is_not_a_bool(self):
        with pytest.raises(ConfigError, match="expected a boolean"):
            PipelineConfig({"eval.trim_outliers": 1})

    def test_string_type_checked(self):
        with pytest.raises(ConfigError, match="expected a string"):
            PipelineConfig({"estimator.kind": 3})

    def test_list_type_checked(self):
        with pytest.raises(ConfigError, match="expected a list"):
            PipelineConfig({"oracle.bias": 0.05})

    @pytest.mark.parametrize("override, message", [
        ("sim.acc_noise=NaN", "sim.acc_noise: expected a number, got nan"),
        ("sim.speed=-Infinity", "sim.speed: expected a number, got -inf"),
        (f"sim.speed={10 ** 400}", f"sim.speed: expected a number, got {10 ** 400}"),
    ])
    def test_number_must_be_finite(self, override, message):
        """JSON parsing takes NaN, Infinity and integers of any size; no
        number key does."""
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(overrides=[override])

    @pytest.mark.parametrize("key, value, want", [
        ("sim.acc_bias", [1], "3"),  # not broadcast over the three axes
        ("sim.acc_bias", [0, 0, 0, 1], "3"),
        ("sim.gyro_bias", ["x", 1, 2], "3"),
        ("sim.gyro_bias", [0, False, 0], "3"),
        ("oracle.bias", [0.1], "2"),
        ("oracle.bias", [0.1, None], "2"),
        ("eval.grids", [True], "one or more"),  # not a 1.0 m grid
        ("eval.grids", [], "one or more"),
        ("eval.grids", [[1.0]], "one or more"),
        ("oracle.bias", [0.1, float("nan")], "2"),  # not a number
    ])
    def test_list_holds_its_count_of_numbers(self, key, value, want):
        message = f"{key}: expected a list of {want} numbers, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            PipelineConfig({key: value})

    def test_list_numbers_are_kept_as_given(self, tmp_path):
        cfg = load_config(overrides=["sim.acc_bias=[0, 1, 0.5]", "eval.grids=[2, 0.5, 3]"])
        assert cfg["sim.acc_bias"] == [0, 1, 0.5] and cfg["eval.grids"] == [2, 0.5, 3]
        cfg.save(tmp_path / "config.json")
        text = (tmp_path / "config.json").read_text()
        assert '"sim.acc_bias": [\n    0,\n    1,\n    0.5\n  ]' in text

    @pytest.mark.parametrize("key", sorted(CHOICES))
    def test_enumerated_key_takes_only_its_values(self, key):
        for value in CHOICES[key]:
            assert PipelineConfig({key: value})[key] == value
        assert DEFAULTS[key] in CHOICES[key]
        message = f"{key}: expected one of {', '.join(CHOICES[key])}, got 'Auto'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            PipelineConfig({key: "Auto"})


class TestPrecedence:
    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rae.k": 3, "sim.room_width": 6.0}))
        cfg = load_config(path)
        assert cfg["rae.k"] == 3
        assert cfg["sim.room_width"] == 6.0
        assert cfg["rae.reducer"] == "median"

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rae.k": 3}))
        cfg = load_config(path, overrides=["rae.k=7"])
        assert cfg["rae.k"] == 7

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="top level"):
            load_config(path)


class TestParseOverride:
    def test_json_values(self):
        assert parse_override("rae.k=7") == ("rae.k", 7)
        assert parse_override("sim.speed=0.25") == ("sim.speed", 0.25)
        assert parse_override("eval.trim_outliers=false") == ("eval.trim_outliers", False)
        assert parse_override("oracle.bias=[0.05, 0.02]") == ("oracle.bias", [0.05, 0.02])

    def test_non_json_falls_back_to_string(self):
        assert parse_override("estimator.kind=oracle") == ("estimator.kind", "oracle")

    def test_string_key_keeps_its_text(self):
        assert parse_override("estimator.weights=2024") == ("estimator.weights", "2024")
        assert parse_override("caption.prompt=true") == ("caption.prompt", "true")
        assert parse_override("caption.prompt=[1]") == ("caption.prompt", "[1]")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_override("rae.k")


class TestSaveRoundTrip:
    def test_saved_file_reloads_identically(self, tmp_path):
        cfg = PipelineConfig({"rae.k": 3, "caption.endpoint": "http://caption.test/v1"})
        path = tmp_path / "resolved.json"
        cfg.save(path)
        load_config(path).save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def _readme_table(header: str) -> list[list[list[str]]]:
    """The rows of README's table under ``header``: per cell, its
    backticked spans."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        rows.append([re.findall(r"`([^`]*)`", cell) for cell in line.strip("|").split(" | ")])
    return rows


class TestReadmeTables:
    """README's configuration tables name only keys that exist, and its
    enumerated, number-range and shortcut tables list exactly those of
    ``config`` and ``cli``."""

    def test_every_key_in_the_key_table_exists(self):
        keys = [key for row in _readme_table("| key | default | meaning |") for key in row[0]]
        assert keys and set(keys) <= set(DEFAULTS)

    def test_enumerated_table_lists_the_choices(self):
        listed = {key: tuple(row[1]) for row in _readme_table("| key | values (default first) |")
                  for key in row[0]}
        assert listed == CHOICES
        assert all(values[0] == DEFAULTS[key] for key, values in listed.items())

    def test_number_range_table_lists_the_limits(self):
        keys = [key for row in _readme_table("| key | values |") for key in row[0]]
        assert sorted(keys) == sorted(LIMITS)

    def test_shortcut_table_matches_the_commands(self):
        listed = {(row[0][0], row[1][0].split()[0], row[2][0])
                  for row in _readme_table("| command | shortcut | sets |")}
        assert listed == {(command, flag, key) for command, (_, _, shortcuts) in COMMANDS.items()
                          for flag, key in shortcuts.items()}
