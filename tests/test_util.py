"""Unit tests for the util helpers (validation, RNG, logging)."""

import logging
import math
import os
import stat

import numpy as np
import pytest

from repro.util import (
    check_finite,
    check_in_range,
    check_non_negative,
    check_positive,
    check_type,
    get_logger,
    resolve_rng,
)


class TestValidation:
    def test_check_type_passthrough_and_error(self):
        assert check_type("x", 5, int) == 5
        with pytest.raises(TypeError, match="x must be int"):
            check_type("x", "no", int)
        with pytest.raises(TypeError, match="int or float"):
            check_type("x", "no", (int, float))

    def test_check_finite(self):
        assert check_finite("x", 1.5) == 1.5
        with pytest.raises(ValueError):
            check_finite("x", math.nan)
        with pytest.raises(ValueError):
            check_finite("x", math.inf)
        with pytest.raises(TypeError):
            check_finite("x", "1.0")
        with pytest.raises(TypeError):
            check_finite("x", True)  # bools are not numbers here

    def test_check_non_negative(self):
        assert check_non_negative("x", 0.0) == 0.0
        with pytest.raises(ValueError):
            check_non_negative("x", -1e-9)

    def test_check_positive(self):
        assert check_positive("x", 1e-9) == 1e-9
        with pytest.raises(ValueError):
            check_positive("x", 0.0)

    def test_check_in_range(self):
        assert check_in_range("x", 5, 0, 10) == 5
        check_in_range("x", 0, 0, 10)
        check_in_range("x", 10, 0, 10)
        with pytest.raises(ValueError):
            check_in_range("x", -1, 0, 10)
        with pytest.raises(ValueError):
            check_in_range("x", 11, 0, 10)
        with pytest.raises(ValueError):
            check_in_range("x", 0, 0, 10, low_inclusive=False)
        with pytest.raises(ValueError):
            check_in_range("x", 10, 0, 10, high_inclusive=False)
        # open-ended sides
        check_in_range("x", 1e9, low=0)
        check_in_range("x", -1e9, high=0)


class TestRng:
    def test_none_is_deterministic_default(self):
        a = resolve_rng(None).random(3)
        b = resolve_rng(None).random(3)
        np.testing.assert_array_equal(a, b)

    def test_int_seed(self):
        a = resolve_rng(7).random(3)
        b = resolve_rng(7).random(3)
        c = resolve_rng(8).random(3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert resolve_rng(g) is g

    def test_bad_seed_type(self):
        with pytest.raises(TypeError):
            resolve_rng("seed")


class TestLogger:
    def test_namespacing(self):
        assert get_logger("sim.engine").name == "repro.sim.engine"
        assert get_logger("repro.core").name == "repro.core"

    def test_null_handler_attached(self):
        logger = get_logger("test.nullhandler")
        assert any(
            isinstance(h, logging.NullHandler) for h in logger.handlers
        )


class TestAtomicWrite:
    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=oct)
    def test_mode_matches_plain_open(self, tmp_path, umask):
        from repro.experiments.cache import ResultCache
        from repro.perf.bench import save_bench
        from repro.telemetry import write_audit_jsonl
        from repro.util.atomic import atomic_write, write_json_atomic

        old = os.umask(umask)
        try:
            (tmp_path / "plain.txt").write_text("x")
            with atomic_write(tmp_path / "a.txt") as fh:
                fh.write("x")
            write_json_atomic(tmp_path / "sub" / "b.json", {"k": 1})
            write_audit_jsonl([{"step": 0}], tmp_path / "c.jsonl")
            save_bench({"kind": "repro-bench"}, tmp_path / "d.json")
            cache = ResultCache(tmp_path / "cache")
            cache.put("0" * 64, {}, {"app_time": 1.0})
        finally:
            os.umask(old)
        expected = stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)
        assert expected == 0o666 & ~umask
        written = [
            tmp_path / "a.txt",
            tmp_path / "sub" / "b.json",
            tmp_path / "c.jsonl",
            tmp_path / "d.json",
            *cache.root.glob("*/*.json"),
        ]
        assert len(written) == 5
        for path in written:
            assert stat.S_IMODE(path.stat().st_mode) == expected, path

    def test_failed_write_leaves_nothing(self, tmp_path):
        from repro.util.atomic import atomic_write

        with pytest.raises(RuntimeError):
            with atomic_write(tmp_path / "out.json") as fh:
                fh.write("partial")
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_keeps_the_old_file(self, tmp_path):
        from repro.util.atomic import write_json_atomic

        path = tmp_path / "out.json"
        write_json_atomic(path, {"v": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_json_atomic(path, {"v": object()})  # not JSON-able
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_save_bench_cleans_up_on_failure(self, tmp_path):
        from repro.perf.bench import save_bench

        with pytest.raises(TypeError):
            save_bench({"bad": object()}, tmp_path / "BENCH_x.json")
        assert list(tmp_path.iterdir()) == []
