"""The one execution configuration: parsing, overriding, scoping."""

import dataclasses
import pickle

import pytest

from repro.core.execconfig import ExecConfig, current, exec_scope
from repro.storage import sanitize


class TestEnvParsing:
    def test_unset_and_empty_keep_defaults(self):
        assert ExecConfig.from_env({}) == ExecConfig()
        assert ExecConfig.from_env({"REPRO_SANITIZE": " "}) == ExecConfig()

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("1", True), ("true", True), ("ON", True), ("yes", True),
            ("0", False), ("false", False), ("off", False), ("No", False),
        ],
    )
    def test_switch_spellings(self, raw, expected):
        assert ExecConfig.from_env({"REPRO_SANITIZE": raw}).sanitize is expected

    @pytest.mark.parametrize("raw", ["ture", "maybe"])
    def test_malformed_value_names_the_variable(self, raw):
        with pytest.raises(ValueError, match="REPRO_SANITIZE") as excinfo:
            ExecConfig.from_env({"REPRO_SANITIZE": raw})
        assert raw in str(excinfo.value) and "expected" in str(excinfo.value)

    def test_process_default_comes_from_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert ExecConfig.from_env() == ExecConfig(sanitize=True)


class TestConfig:
    def test_sanitize_is_the_only_field(self):
        fields = [field.name for field in dataclasses.fields(ExecConfig)]
        assert fields == ["sanitize"]

    def test_frozen_hashable_picklable(self):
        cfg = ExecConfig(sanitize=True)
        with pytest.raises(AttributeError):
            cfg.sanitize = False
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        assert len({cfg, ExecConfig(True)}) == 1

    def test_override_ignores_none(self):
        cfg = ExecConfig(sanitize=True)
        assert cfg.override(sanitize=None) is cfg
        assert cfg.override(sanitize=False) == ExecConfig()
        with pytest.raises(TypeError):
            cfg.override(workers=2)


class TestScope:
    def test_readers_follow_the_scope(self):
        with exec_scope(ExecConfig(sanitize=True)):
            assert sanitize.sanitize_enabled()
        with exec_scope(sanitize=False):
            assert not sanitize.sanitize_enabled()

    def test_nesting_overrides_and_restores(self):
        outer = current()
        with exec_scope(sanitize=True) as first:
            assert current() is first
            with exec_scope(sanitize=False) as second:
                assert second == ExecConfig()
            assert current() is first
        assert current() is outer

    def test_scope_restores_on_error(self):
        outer = current()
        with pytest.raises(RuntimeError):
            with exec_scope(sanitize=not outer.sanitize):
                raise RuntimeError("boom")
        assert current() is outer
