"""Tests for the unified two-variable model (future-work extension)."""

import pytest

from repro.core.unified_model import UnifiedEstimator, UnifiedModel
from repro.errors import FitError, ModelError


def synthetic_samples():
    """Ground truth inside the model family."""
    rng_sizes = [400.0, 800.0, 1600.0, 3200.0]
    rows = []
    for n in rng_sizes:
        for p in (1.0, 2.0, 4.0, 8.0):
            ta = 2e-9 * n**3 / p + 1e-6 * n**2 / p + 0.01
            tc = 3e-8 * p * n**2 + 5e-8 * n**2 / p + 1e-5 * n
            rows.append((n, p, ta, tc))
    return rows


class TestFit:
    def test_recovers_ground_truth(self):
        rows = synthetic_samples()
        model = UnifiedModel.fit(
            "k",
            1,
            [r[0] for r in rows],
            [r[1] for r in rows],
            [r[2] for r in rows],
            [r[3] for r in rows],
        )
        for n, p, ta, tc in rows:
            assert model.predict_ta(n, p) == pytest.approx(ta, rel=1e-5, abs=1e-8)
            assert model.predict_tc(n, p) == pytest.approx(tc, rel=1e-5, abs=1e-8)
        # held-out interpolation
        assert model.predict_ta(2400, 6) == pytest.approx(
            2e-9 * 2400**3 / 6 + 1e-6 * 2400**2 / 6 + 0.01, rel=1e-4
        )

    def test_needs_variation_in_both_variables(self):
        with pytest.raises(FitError, match=">= 2"):
            UnifiedModel.fit("k", 1, [400, 800, 1200, 1600, 2000], [2] * 5, [1] * 5, [1] * 5)
        with pytest.raises(FitError, match=">= 4"):
            UnifiedModel.fit("k", 1, [400, 400, 800, 800], [1, 2, 1, 2], [1] * 4, [1] * 4)

    def test_p_below_mi_rejected(self):
        rows = synthetic_samples()
        model = UnifiedModel.fit(
            "k", 2,
            [r[0] for r in rows], [r[1] * 2 for r in rows],
            [r[2] for r in rows], [r[3] for r in rows],
        )
        with pytest.raises(ModelError):
            model.predict_ta(800, 1)

    def test_extrapolation_flag(self):
        rows = synthetic_samples()
        model = UnifiedModel.fit(
            "k", 1,
            [r[0] for r in rows], [r[1] for r in rows],
            [r[2] for r in rows], [r[3] for r in rows],
        )
        assert not model.extrapolating(800, 4)
        assert model.extrapolating(6400, 4)
        assert model.extrapolating(800, 16)

    def test_serialization_roundtrip(self):
        rows = synthetic_samples()
        model = UnifiedModel.fit(
            "k", 1,
            [r[0] for r in rows], [r[1] for r in rows],
            [r[2] for r in rows], [r[3] for r in rows],
        )
        assert UnifiedModel.from_dict(model.to_dict()) == model

    def test_scaled_composition(self):
        rows = synthetic_samples()
        model = UnifiedModel.fit(
            "k", 1,
            [r[0] for r in rows], [r[1] for r in rows],
            [r[2] for r in rows], [r[3] for r in rows],
        )
        fast = model.scaled("fast", 0.25, 0.9)
        assert fast.predict_ta(1600, 4) == pytest.approx(
            0.25 * model.predict_ta(1600, 4)
        )
        assert fast.predict_tc(1600, 4) == pytest.approx(
            0.9 * model.predict_tc(1600, 4)
        )


class TestEstimatorOnCampaign:
    def test_fits_from_basic_dataset(self, basic_campaign):
        estimator = UnifiedEstimator.fit_dataset(basic_campaign.dataset)
        # pentium2 fitted for every Mi; athlon composed (single PE)
        assert ("pentium2", 1) in estimator.models
        assert ("athlon", 1) in estimator.models
        assert estimator.models[("athlon", 1)].n_range == estimator.models[
            ("pentium2", 1)
        ].n_range

    def test_estimates_track_measurements(self, basic_campaign, basic_pipeline, make_config):
        estimator = UnifiedEstimator.fit_dataset(basic_campaign.dataset)
        for cfg_tuple in [(1, 1, 8, 1), (0, 0, 8, 1), (1, 2, 8, 1)]:
            config = make_config(*cfg_tuple)
            est = estimator.estimate(config, 4800)
            meas = basic_pipeline.measured_time(config, 4800)
            assert est == pytest.approx(meas, rel=0.30)

    def test_decision_quality_comparable_to_binned_stack(
        self, basic_campaign, basic_pipeline
    ):
        """The unified model should make decisions in the same regret band
        as the two-stage N-T/P-T stack on the Basic data."""
        estimator = UnifiedEstimator.fit_dataset(basic_campaign.dataset)
        from repro.core.search import ExhaustiveOptimizer, grid_from_scalar

        optimizer = ExhaustiveOptimizer(
            grid_from_scalar(estimator.estimator()),
            list(basic_pipeline.plan.evaluation_configs),
        )
        for n in (4800, 6400, 8000):
            best = optimizer.optimize(n).best
            chosen = basic_pipeline.measured_time(best.config, n)
            _, t_hat = basic_pipeline.actual_best(n)
            assert (chosen - t_hat) / t_hat <= 0.08

    def test_unknown_kind_rejected(self, basic_campaign):
        estimator = UnifiedEstimator.fit_dataset(basic_campaign.dataset)
        from repro.cluster.config import ClusterConfig

        with pytest.raises(ModelError):
            estimator.estimate(ClusterConfig.of(xeon=(1, 1)), 1600)

    def test_empty_models_rejected(self):
        with pytest.raises(ModelError):
            UnifiedEstimator({})
