"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import check_random_state


class TestCheckRandomState:
    def test_none_returns_generator(self):
        assert isinstance(check_random_state(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = check_random_state(42).integers(0, 1000, size=10)
        b = check_random_state(42).integers(0, 1000, size=10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = check_random_state(1).integers(0, 10**9, size=10)
        b = check_random_state(2).integers(0, 10**9, size=10)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert check_random_state(gen) is gen

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(7)
        gen = check_random_state(ss)
        assert isinstance(gen, np.random.Generator)

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            check_random_state("not-a-seed")

    def test_numpy_integer_seed(self):
        gen = check_random_state(np.int64(5))
        assert isinstance(gen, np.random.Generator)
