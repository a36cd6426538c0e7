"""The one execution configuration: parsing, overriding, scoping."""

import pickle

import pytest

from repro.core import batch
from repro.core.execconfig import ExecConfig, current, exec_scope
from repro.index import flat
from repro.storage import sanitize


class TestEnvParsing:
    def test_unset_and_empty_keep_defaults(self):
        assert ExecConfig.from_env({}) == ExecConfig()
        empty = {"REPRO_BATCH_SIZE": "", "REPRO_FLAT_INDEX": " ", "REPRO_SANITIZE": ""}
        assert ExecConfig.from_env(empty) == ExecConfig()

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("1", True), ("true", True), ("ON", True), ("yes", True),
            ("0", False), ("false", False), ("off", False), ("No", False),
        ],
    )
    @pytest.mark.parametrize(
        "variable, field",
        [("REPRO_FLAT_INDEX", "flat_index"), ("REPRO_SANITIZE", "sanitize")],
    )
    def test_switch_spellings(self, variable, field, raw, expected):
        assert getattr(ExecConfig.from_env({variable: raw}), field) is expected

    @pytest.mark.parametrize("raw, expected", [("0", 0), (" 256 ", 256)])
    def test_batch_size(self, raw, expected):
        assert ExecConfig.from_env({"REPRO_BATCH_SIZE": raw}).batch_size == expected

    @pytest.mark.parametrize(
        "variable, raw",
        [
            ("REPRO_SANITIZE", "ture"),
            ("REPRO_FLAT_INDEX", "maybe"),
            ("REPRO_BATCH_SIZE", "abc"),
            ("REPRO_BATCH_SIZE", "-1"),
        ],
    )
    def test_malformed_value_names_the_variable(self, variable, raw):
        with pytest.raises(ValueError, match=variable) as excinfo:
            ExecConfig.from_env({variable: raw})
        assert raw in str(excinfo.value) and "expected" in str(excinfo.value)

    def test_process_default_comes_from_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_SIZE", "64")
        monkeypatch.setenv("REPRO_FLAT_INDEX", "on")
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert ExecConfig.from_env() == ExecConfig(64, True, True)


class TestConfig:
    def test_frozen_hashable_picklable(self):
        cfg = ExecConfig(batch_size=0, flat_index=True)
        with pytest.raises(AttributeError):
            cfg.batch_size = 1
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        assert len({cfg, ExecConfig(0, True, False)}) == 1

    def test_negative_batch_size_rejected(self):
        with pytest.raises(ValueError):
            ExecConfig(batch_size=-1)
        with pytest.raises(ValueError):
            with exec_scope(batch_size=-1):
                pass

    def test_override_ignores_none(self):
        cfg = ExecConfig(batch_size=8)
        assert cfg.override(batch_size=None, sanitize=None) is cfg
        assert cfg.override(flat_index=True, sanitize=None) == ExecConfig(8, True)
        with pytest.raises(TypeError):
            cfg.override(workers=2)


class TestScope:
    def test_readers_follow_the_scope(self):
        with exec_scope(ExecConfig(batch_size=0, flat_index=True, sanitize=True)):
            assert not batch.batching_enabled() and batch.get_batch_size() == 0
            assert flat.flat_enabled() and sanitize.sanitize_enabled()

    def test_nesting_overrides_one_field_and_restores(self):
        outer = current()
        with exec_scope(batch_size=0, flat_index=True) as first:
            assert current() is first
            with exec_scope(batch_size=64) as second:
                assert second == ExecConfig(64, True, outer.sanitize)
            assert current() is first
        assert current() is outer

    def test_scope_restores_on_error(self):
        outer = current()
        with pytest.raises(RuntimeError):
            with exec_scope(flat_index=not outer.flat_index):
                raise RuntimeError("boom")
        assert current() is outer
