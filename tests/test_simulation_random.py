"""Tests for the seeded random source."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.random import RandomSource


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = RandomSource(7)
        b = RandomSource(7)
        assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = RandomSource(1)
        b = RandomSource(2)
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_fork_is_deterministic(self):
        a = RandomSource(7).fork("child")
        b = RandomSource(7).fork("child")
        assert a.uniform() == b.uniform()

    def test_fork_labels_give_distinct_streams(self):
        parent = RandomSource(7)
        a = parent.fork("alpha")
        b = parent.fork("beta")
        assert a.uniform() != b.uniform()


class TestDraws:
    def test_bounded_normal_respects_bounds(self):
        rng = RandomSource(3)
        values = [rng.bounded_normal(0.5, 10.0, 0.0, 1.0) for _ in range(200)]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_exponential_requires_positive_mean(self):
        with pytest.raises(ValueError):
            RandomSource(0).exponential(0.0)

    def test_choice_empty_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(0).choice([])

    def test_choice_returns_member(self):
        rng = RandomSource(0)
        items = ["a", "b", "c"]
        assert rng.choice(items) in items

    def test_sample_without_replacement(self):
        rng = RandomSource(0)
        sample = rng.sample(list(range(10)), 5)
        assert len(sample) == len(set(sample)) == 5

    def test_sample_too_many_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(0).sample([1, 2], 3)

    def test_shuffle_preserves_elements(self):
        rng = RandomSource(0)
        original = list(range(20))
        shuffled = rng.shuffle(original)
        assert sorted(shuffled) == original
        assert original == list(range(20))


class TestWeightedIndex:
    def test_zero_weights_fall_back_to_uniform(self):
        rng = RandomSource(0)
        picks = {rng.weighted_index([0.0, 0.0, 0.0]) for _ in range(50)}
        assert picks <= {0, 1, 2}
        assert len(picks) > 1

    def test_dominant_weight_usually_wins(self):
        rng = RandomSource(0)
        picks = [rng.weighted_index([0.001, 100.0, 0.001]) for _ in range(200)]
        assert picks.count(1) > 180

    def test_empty_weights_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(0).weighted_index([])

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_weighted_index_in_range(self, weights):
        index = RandomSource(0).weighted_index(weights)
        assert 0 <= index < len(weights)


class TestPoissonProcess:
    def test_zero_rate_yields_no_events(self):
        assert RandomSource(0).poisson_process(0.0, 1000.0) == []

    def test_events_within_duration_and_sorted(self):
        rng = RandomSource(0)
        events = rng.poisson_process(0.01, 10_000.0)
        assert all(0.0 <= t < 10_000.0 for t in events)
        assert events == sorted(events)

    def test_rate_roughly_matches(self):
        rng = RandomSource(5)
        duration = 200_000.0
        rate = 0.005
        events = rng.poisson_process(rate, duration)
        expected = rate * duration
        assert expected * 0.7 < len(events) < expected * 1.3


class TestPoissonProcessChunking:
    """The chunked thinning pass must be draw-for-draw scalar-equivalent."""

    @staticmethod
    def _scalar_reference(rng: RandomSource, rate: float, duration: float):
        if rate <= 0 or duration <= 0:
            return []
        times, t = [], 0.0
        while True:
            t += float(rng.generator.exponential(1.0 / rate))
            if t >= duration:
                break
            times.append(t)
        return times

    def test_matches_scalar_loop_and_stream_position(self):
        cases = [
            (0.0001, 2_000_000.0),  # ~200 events: several chunks
            (0.001, 500_000.0),
            (1e-7, 2_592_000.0),  # usually zero events
            (0.5, 30.0),
        ]
        for seed in range(25):
            for rate, duration in cases:
                scalar_rng = RandomSource(seed)
                chunked_rng = RandomSource(seed)
                expected = self._scalar_reference(scalar_rng, rate, duration)
                got = chunked_rng.poisson_process(rate, duration)
                assert got == expected, (seed, rate)
                # The stream position matches too: the next draw agrees.
                assert scalar_rng.uniform() == chunked_rng.uniform()

    def test_degenerate_inputs_consume_nothing(self):
        rng = RandomSource(3)
        untouched = RandomSource(3)
        assert rng.poisson_process(0.0, 100.0) == []
        assert rng.poisson_process(1.0, 0.0) == []
        assert rng.uniform() == untouched.uniform()


class TestIntegerArray:
    """``integer_array`` is a loop of ``integer`` calls, stream position included."""

    def test_matches_scalar_loop_and_generator_state(self):
        bounds = RandomSource(99)
        for seed in range(30):
            highs = bounds.generator.integers(1, 400, size=int(bounds.integer(0, 40)))
            # Highs of 1 leave one value, so neither form consumes a draw.
            highs[bounds.generator.random(len(highs)) < 0.3] = 1
            scalar = RandomSource(seed)
            batched = RandomSource(seed)
            # Start mid-way through a buffered 32-bit word.
            scalar.integer(0, 5)
            batched.integer(0, 5)
            expected = [scalar.integer(0, int(high)) for high in highs]
            got = batched.integer_array(0, highs)
            assert got.tolist() == expected, seed
            assert (
                batched.generator.bit_generator.state
                == scalar.generator.bit_generator.state
            ), seed

    def test_all_ones_and_empty_consume_nothing(self):
        rng = RandomSource(4)
        before = rng.generator.bit_generator.state
        assert rng.integer_array(0, np.ones(6, dtype=np.int64)).tolist() == [0] * 6
        assert rng.integer_array(0, np.empty(0, dtype=np.int64)).tolist() == []
        assert rng.generator.bit_generator.state == before
