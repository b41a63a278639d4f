import dataclasses
import math

import numpy as np
import pytest

from fedsim import privacy
from fedsim.errors import ConfigurationError
from fedsim.privacy import DpState, adapt_bound, add_noise, apply_pre_transforms, clip


class TestClip:
    def test_scales_down_when_over(self):
        delta = np.array([6.0, 8.0])  # norm 10
        clipped, flag = clip(delta, 5.0)
        assert flag
        assert np.allclose(clipped, [3.0, 4.0], atol=1e-12)

    def test_untouched_when_under(self):
        delta = np.array([3.0, 0.0])
        clipped, flag = clip(delta, 5.0)
        assert not flag
        assert np.array_equal(clipped, delta)

    def test_zero_vector_untouched(self):
        clipped, flag = clip(np.zeros(4), 1.0)
        assert not flag
        assert np.array_equal(clipped, np.zeros(4))

    def test_norm_bound_holds_over_random_vectors(self):
        rng = np.random.default_rng(31)
        for _ in range(10_000):
            delta = rng.normal(0, rng.uniform(0.1, 10), size=8)
            bound = rng.uniform(0.01, 5.0)
            clipped, _ = clip(delta, bound)
            assert np.linalg.norm(clipped) <= bound + 1e-9


class TestAdaptBound:
    def test_fixed_point_at_target(self):
        state = DpState(clip_bound=2.0, target_quantile=0.5, adapt_rate=0.2)
        # half the updates clipped: unclipped fraction equals the target
        assert adapt_bound(state, [True, False, True, False]) == pytest.approx(2.0, abs=1e-12)

    def test_shrinks_when_nothing_clipped(self):
        state = DpState(clip_bound=1.0, target_quantile=0.5, adapt_rate=0.2)
        assert adapt_bound(state, [False] * 4) == pytest.approx(math.exp(-0.1), abs=1e-12)

    def test_grows_when_everything_clipped(self):
        state = DpState(clip_bound=1.0, target_quantile=0.5, adapt_rate=0.2)
        assert adapt_bound(state, [True] * 4) == pytest.approx(math.exp(0.1), abs=1e-12)

    def test_scale_consistency(self):
        # doubling all norms and the starting bound doubles the whole trajectory
        rng = np.random.default_rng(7)
        norms = rng.uniform(0.1, 3.0, size=(20, 6))

        def trajectory(scale):
            state = DpState(clip_bound=scale * 1.0)
            bounds = []
            for round_norms in norms:
                flags = [float(n) * scale > state.clip_bound for n in round_norms]
                state = dataclasses.replace(state, clip_bound=adapt_bound(state, flags))
                bounds.append(state.clip_bound)
            return np.asarray(bounds)

        assert np.allclose(2.0 * trajectory(1.0), trajectory(2.0), rtol=1e-12)

    def test_requires_flags(self):
        with pytest.raises(ValueError):
            adapt_bound(DpState(), [])

    def test_overflow_gives_inf_without_a_warning(self):
        # exp(5000 * 0.5) overflows; pytest turns a leaked warning into an error.
        state = DpState(clip_bound=1e-6, target_quantile=0.5, adapt_rate=5000.0)
        assert adapt_bound(state, [True] * 4) == math.inf


class TestAddNoise:
    def test_zero_multiplier_is_identity(self):
        delta = np.arange(5, dtype=np.float64)
        assert np.array_equal(add_noise(delta, 0.0, 1.0, round_seed=3), delta)

    def test_deterministic_given_seed(self):
        delta = np.ones(100)
        a = add_noise(delta, 1.0, 2.0, round_seed=11, participants=4)
        b = add_noise(delta, 1.0, 2.0, round_seed=11, participants=4)
        assert np.array_equal(a, b)

    def test_empirical_std_matches_target(self):
        delta = np.zeros(10_000)
        z, bound, participants = 0.8, 2.5, 5
        noisy = add_noise(delta, z, bound, round_seed=13, participants=participants)
        target = z * bound / participants
        assert abs(noisy.std() - target) / target < 0.05

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ConfigurationError):
            add_noise(np.zeros(2), -0.1, 1.0, round_seed=0)


class TestPipeline:
    def test_clip_then_noise_identity_when_disabled(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            delta = rng.normal(0, 5, size=12)
            clipped, flag = clip(delta, math.inf)
            out = add_noise(clipped, 0.0, math.inf, round_seed=1)
            assert not flag
            assert np.array_equal(out, delta)

    @staticmethod
    def round_deltas():
        rng = np.random.default_rng(23)
        return np.stack([rng.normal(0, scale, size=6) for scale in (0.1, 0.5, 2.0, 4.0)])

    def test_noise_uses_the_bound_adapted_that_round(self):
        deltas, seeds = self.round_deltas(), [11, 12, 13, 14]
        state = DpState(clip_bound=1.0, target_quantile=0.9, noise_multiplier=0.7)
        got = deltas.copy()
        state = apply_pre_transforms(("norm_bound", "dp_noise"), got, state, seeds, 0)
        clipped = [clip(d, 1.0) for d in deltas]
        bound = adapt_bound(DpState(clip_bound=1.0, target_quantile=0.9),
                            [flag for _, flag in clipped])
        assert bound != 1.0 and state.clip_bound == bound
        want = [add_noise(d, 0.7, bound, seed, participants=4)
                for (d, _), seed in zip(clipped, seeds)]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("transforms, moves", [
        (("norm_bound",), 1), (("dp_noise",), 0), (("norm_bound", "norm_bound"), 2),
        (("norm_bound", "dp_noise", "norm_bound"), 2),
    ])
    def test_bound_moves_once_per_norm_bound(self, transforms, moves, monkeypatch):
        # Each adaptation starts from the bound the one before it left.
        steps = []

        def recording_adapt_bound(state, flags):
            steps.append((state.clip_bound, adapt_bound(state, flags)))
            return steps[-1][1]

        monkeypatch.setattr(privacy, "adapt_bound", recording_adapt_bound)
        state = DpState(clip_bound=1.0, noise_multiplier=0.5)
        state = apply_pre_transforms(transforms, self.round_deltas(), state, [1, 2, 3, 4], 0)
        assert len(steps) == moves
        bounds = [1.0] + [after for _, after in steps]
        assert [before for before, _ in steps] == bounds[:-1]
        assert state.clip_bound == bounds[-1]

    @pytest.mark.parametrize("transforms", [
        ("norm_bound",), ("dp_noise",), ("norm_bound", "dp_noise"), ("dp_noise", "norm_bound"),
    ])
    def test_rows_are_clip_and_add_noise_of_copies(self, transforms):
        # The matrix changes in place, each row bit for bit what `clip` and
        # `add_noise` give for a copy of it, as a list of vectors would.
        deltas, seeds = self.round_deltas(), [5, 6, 7, 8]
        state = DpState(clip_bound=1.0, noise_multiplier=0.3)
        rows = [d.copy() for d in deltas]
        reference = DpState(clip_bound=1.0, noise_multiplier=0.3)
        for transform in transforms:
            if transform == "norm_bound":
                clipped = [clip(d, reference.clip_bound) for d in rows]
                rows = [d for d, _ in clipped]
                reference = dataclasses.replace(
                    reference, clip_bound=adapt_bound(reference, [flag for _, flag in clipped]))
            else:
                rows = [add_noise(d, 0.3, reference.clip_bound, seed, len(rows))
                        for d, seed in zip(rows, seeds)]
        assert apply_pre_transforms(transforms, deltas, state, seeds, 0) == reference
        assert deltas.tobytes() == np.stack(rows).tobytes()
        assert state == DpState(clip_bound=1.0, noise_multiplier=0.3)

    @pytest.mark.parametrize("bound, shown", [(0.0, "0"), (math.inf, "inf"), (math.nan, "nan")])
    def test_bound_not_positive_and_finite_refused(self, bound, shown, monkeypatch):
        monkeypatch.setattr(privacy, "adapt_bound", lambda state, flags: bound)
        state = DpState(clip_bound=1.0, adapt_rate=0.2)
        with pytest.raises(ConfigurationError) as refused:
            apply_pre_transforms(("norm_bound",), self.round_deltas(), state, [1, 2, 3, 4], 3)
        assert str(refused.value) == (
            f"dp: the clip bound adapted in round 3 reached {shown} (from 1.0 at adapt_rate 0.2)")

    def test_no_transforms_return_the_deltas_as_given(self):
        deltas = self.round_deltas()
        before = deltas.tobytes()
        state = DpState(clip_bound=0.5, noise_multiplier=1.0)
        assert apply_pre_transforms((), deltas, state, [1, 2, 3, 4], 0) is state
        assert deltas.tobytes() == before
        assert state == DpState(clip_bound=0.5, noise_multiplier=1.0)


class TestDpState:
    def test_frozen(self):
        state = DpState()
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.clip_bound = 2.0

    def test_bound_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            DpState(clip_bound=0.0)

    def test_quantile_open_interval(self):
        with pytest.raises(ConfigurationError):
            DpState(target_quantile=1.0)
