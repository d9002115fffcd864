"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import derive_seed, ensure_rng


class TestEnsureRng:
    def test_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert ensure_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        assert isinstance(ensure_rng(seq), np.random.Generator)

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")

    def test_different_seeds_differ(self):
        assert not np.array_equal(ensure_rng(1).random(5), ensure_rng(2).random(5))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, salt=1) == derive_seed(3, salt=1)

    def test_salt_changes_seed(self):
        assert derive_seed(3, salt=1) != derive_seed(3, salt=2)

    def test_within_int32(self):
        assert 0 <= derive_seed(3) < 2**31
