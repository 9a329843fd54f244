"""Separation, realized error, and the retrieval-error upper bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopctx import (
    BoundViolationError,
    ContextSet,
    ContextualHopfield,
    QueryState,
    beta_coefficient,
    error_bound,
    hnc_retrieve,
    monotonicity_table,
    realized_error,
    separation,
    verify_bound,
)
from hopctx.bounds import bound_report_csv_row, BOUND_CSV_COLUMNS


def reference_beta(c, m, t):
    """Independent evaluation of 1 - (1 + c(M-t)/t)^{-1} + c(M-t)."""
    return 1.0 - 1.0 / (1.0 + c * (m - t) / t) + c * (m - t)


def identity_instance(lam_columns, sigma, gamma=1.0):
    d = len(sigma)
    model = ContextualHopfield.identity(d, gamma=gamma)
    ctx = ContextSet.from_vectors(lam_columns)
    query = QueryState.from_sigma(sigma, model)
    return model, ctx, query


def random_bound_instance(rng):
    d_q = int(rng.integers(2, 9))
    d_m = d_q + int(rng.integers(0, 3))
    model = ContextualHopfield(
        xi_q=rng.standard_normal((d_m, d_q)),
        xi_k=rng.standard_normal((d_m, d_q)),
        gamma=float(rng.uniform(0.1, 10.0)),
    )
    m = int(rng.integers(1, 33))
    lam = rng.standard_normal((d_m, m))
    n_dup = max(1, int(round(float(rng.uniform(0.0, 1.0)) * m)))
    for i in range(1, n_dup):
        lam[:, i] = lam[:, 0]
    ctx = ContextSet(lam)
    query = QueryState.from_sigma(rng.standard_normal(d_m), model)
    z_target = ctx.patterns(model)[:, 0]
    u_star = z_target + rng.uniform(0.0, 1.0) * rng.standard_normal(d_q)
    return model, ctx, query, u_star


class TestSeparation:
    def test_orthogonal_pair(self):
        model, ctx, query = identity_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        sep = separation(query, ctx, model, target_index=0)
        assert sep.delta_min == 1.0
        assert sep.duplicate_count == 1
        assert math.isnan(sep.delta_all[0])
        assert sep.delta_all[1] == 1.0

    def test_all_duplicates_flags_undefined(self):
        col = [0.5, -0.25]
        model, ctx, query = identity_instance([col, col, col], [1.0, 2.0])
        sep = separation(query, ctx, model, target_index=1)
        assert sep.duplicate_count == 3
        assert sep.delta_min is None

    def test_matches_exhaustive_pairwise_computation(self):
        rng = np.random.default_rng(11)
        lam = rng.standard_normal((4, 5))
        sigma = rng.standard_normal(4)
        model, ctx, query = identity_instance(lam.T, sigma)
        sep = separation(query, ctx, model, target_index=2)
        sims = [float(query.u @ lam[:, j]) for j in range(5)]
        expected = min(sims[2] - sims[j] for j in range(5) if j != 2)
        assert sep.delta_min == pytest.approx(expected, abs=1e-12)
        assert sep.duplicate_count == 1

    def test_near_duplicates_beyond_tolerance_count_as_distinct(self):
        base = np.array([1.0, 0.0])
        model, ctx, query = identity_instance([base, base + 1e-9], [1.0, 0.0])
        sep = separation(query, ctx, model, target_index=0)
        assert sep.duplicate_count == 1

    def test_rejects_out_of_range_index(self):
        model, ctx, query = identity_instance([[1.0, 0.0]], [1.0, 0.0])
        with pytest.raises(IndexError):
            separation(query, ctx, model, target_index=1)


class TestRealizedError:
    def test_perfect_retrieval_is_zero(self):
        model, ctx, query = identity_instance([[1.0, 0.0]], [1.0, 0.0])
        result = hnc_retrieve(model, ctx, query)
        assert realized_error(result, result.u_new) == 0.0

    def test_unit_offset(self):
        model, ctx, query = identity_instance([[1.0, 0.0]], [1.0, 0.0])
        result = hnc_retrieve(model, ctx, query)
        assert realized_error(result, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_two_pattern_example(self):
        # ||(0.73106..., 0.26894...) - (1, 0)||, frozen from a direct norm.
        model, ctx, query = identity_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        result = hnc_retrieve(model, ctx, query)
        assert realized_error(result, [1.0, 0.0]) == pytest.approx(0.3803406055853444, abs=1e-12)

    def test_rejects_dimension_mismatch(self):
        model, ctx, query = identity_instance([[1.0, 0.0]], [1.0, 0.0])
        result = hnc_retrieve(model, ctx, query)
        with pytest.raises(ValueError):
            realized_error(result, [1.0, 0.0, 0.0])


class TestBetaFormula:
    def test_full_duplication_collapses_bound(self):
        assert beta_coefficient(0.7, 5, 5) == 0.0

    def test_zero_c_collapses_bound(self):
        for m in (1, 2, 7):
            for t in range(1, m + 1):
                assert beta_coefficient(0.0, m, t) == 0.0

    def test_frozen_example(self):
        c = math.exp(-1.0)
        assert beta_coefficient(c, 2, 1) == pytest.approx(0.6368208625414374, abs=1e-15)

    def test_matches_reference_on_grid(self):
        for c in np.linspace(0.0, 4.0, 10):
            for m in (1, 2, 7, 32):
                for t in range(1, m + 1):
                    got = beta_coefficient(float(c), m, t)
                    assert got == pytest.approx(reference_beta(float(c), m, t), abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            beta_coefficient(0.5, 3, 0)
        with pytest.raises(ValueError):
            beta_coefficient(0.5, 2, 3)
        with pytest.raises(ValueError):
            beta_coefficient(-0.1, 3, 1)


class TestErrorBound:
    def test_full_duplication_gives_instance_error(self):
        col = [1.0, 1.0]
        model, ctx, query = identity_instance([col, col], [0.5, 0.5])
        sep = separation(query, ctx, model, target_index=0)
        report = error_bound(sep, gamma=2.0, instance_error=0.37, z_max_norm=5.0)
        assert report.beta == 0.0
        assert report.upper_bound == 0.37
        assert report.c == 0.0

    def test_exact_retrieval_limit(self):
        # dz = 0, delta_min > 0, huge gamma: c -> 0 and the bound -> 0.
        model, ctx, query = identity_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], gamma=1e4)
        sep = separation(query, ctx, model, target_index=0)
        report = error_bound(sep, gamma=1e4, instance_error=0.0, z_max_norm=1.0)
        assert report.upper_bound == 0.0

    def test_frozen_two_pattern_bound(self):
        model, ctx, query = identity_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        sep = separation(query, ctx, model, target_index=0)
        report = error_bound(sep, gamma=1.0, instance_error=0.1, z_max_norm=1.0)
        assert report.c == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert report.beta == pytest.approx(0.6368208625414374, abs=1e-12)
        assert report.upper_bound == pytest.approx(0.7368208625414374, abs=1e-12)

    def test_rejects_negative_inputs(self):
        model, ctx, query = identity_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        sep = separation(query, ctx, model, target_index=0)
        with pytest.raises(ValueError):
            error_bound(sep, gamma=0.0, instance_error=0.1, z_max_norm=1.0)
        with pytest.raises(ValueError):
            error_bound(sep, gamma=1.0, instance_error=-0.1, z_max_norm=1.0)


class TestVerifyBound:
    def test_single_pattern_exact(self):
        model, ctx, query = identity_instance([[0.4, -0.9]], [1.0, 0.0])
        z1 = ctx.patterns(model)[:, 0]
        report = verify_bound(model, ctx, query, z1, target_index=0)
        assert report.upper_bound == 0.0
        assert report.realized_error <= 1e-12

    def test_lossless_retrieval_has_zero_error(self):
        # All patterns duplicate the target and u* is the target itself:
        # the retrieved pattern is the target up to summation roundoff.
        rng = np.random.default_rng(6)
        col = rng.standard_normal(3)
        model = ContextualHopfield.identity(3, gamma=2.0)
        ctx = ContextSet(np.tile(col[:, None], (1, 7)))
        query = QueryState.from_sigma(rng.standard_normal(3), model)
        report = verify_bound(model, ctx, query, col, target_index=0)
        assert report.instance_error == 0.0
        assert report.realized_error <= 1e-12 * (1 + np.linalg.norm(col))

    def test_bound_decomposes_into_instance_and_contextual_error(self):
        model, ctx, query = identity_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        report = verify_bound(model, ctx, query, [1.2, -0.1], target_index=0)
        assert report.upper_bound - report.instance_error == pytest.approx(
            report.beta * report.z_max_norm, rel=1e-12
        )

    def test_two_pattern_combined_example(self):
        model, ctx, query = identity_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        report = verify_bound(model, ctx, query, [1.0, 0.0], target_index=0)
        assert report.instance_error == 0.0
        assert report.realized_error == pytest.approx(0.3803406055853444, abs=1e-12)
        assert report.upper_bound == pytest.approx(0.6368208625414374, abs=1e-12)
        assert report.realized_error <= report.upper_bound

    def test_thousand_random_instances_no_violation(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            model, ctx, query, u_star = random_bound_instance(rng)
            report = verify_bound(model, ctx, query, u_star, target_index=0)
            assert report.realized_error <= report.upper_bound + 1e-9 * (1 + report.upper_bound)

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=80, deadline=None)
    def test_bound_holds_property(self, seed):
        rng = np.random.default_rng(seed)
        model, ctx, query, u_star = random_bound_instance(rng)
        verify_bound(model, ctx, query, u_star, target_index=0)

    def test_nan_error_is_a_violation(self):
        # gamma * scores overflows, the softmax weights and so the realized
        # error become NaN; an instance that cannot be evaluated must not pass.
        model, ctx, query = identity_instance([[1.0, 0.0], [0.0, 1.0]], [1e10, 1.0], gamma=1e300)
        with np.errstate(all="ignore"), pytest.raises(BoundViolationError) as excinfo:
            verify_bound(model, ctx, query, [1.0, 0.0], target_index=0)
        assert math.isnan(excinfo.value.report.realized_error)

    def test_violation_error_carries_report(self, monkeypatch):
        # A genuine violation is impossible, so force one by sabotaging the
        # beta computation and check the diagnostic path.
        import hopctx.bounds as bounds_module

        monkeypatch.setattr(bounds_module, "beta_coefficient", lambda c, m, t: -10.0)
        model, ctx, query = identity_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        with pytest.raises(BoundViolationError) as excinfo:
            bounds_module.verify_bound(model, ctx, query, [1.0, 0.0], target_index=0)
        assert excinfo.value.report.realized_error > excinfo.value.report.upper_bound


class TestMonotonicityTable:
    def base_report(self, m=2, t=1):
        cols = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [-0.5, 0.25]][:m]
        model, ctx, query = identity_instance(cols, [1.0, 0.0])
        sep = separation(query, ctx, model, target_index=0)
        return error_bound(sep, gamma=1.0, instance_error=0.0, z_max_norm=1.0)

    def test_c_sweep_frozen_values(self):
        rows = monotonicity_table(self.base_report(), "c", [0.0, 0.5, 1.0])
        betas = [b for _, b, _ in rows]
        assert betas[0] == 0.0
        assert betas[1] == pytest.approx(0.8333333333333334, abs=1e-12)
        assert betas[2] == pytest.approx(1.5, abs=1e-12)

    def test_m_sweep_with_zero_c_is_constant(self):
        col = [1.0, 0.0]
        model, ctx, query = identity_instance([col, col], [1.0, 0.0])
        sep = separation(query, ctx, model, target_index=0)
        base = error_bound(sep, gamma=1.0, instance_error=0.2, z_max_norm=3.0)
        assert base.c == 0.0
        rows = monotonicity_table(base, "M", [2, 4, 8, 16])
        assert all(b == 0.0 for _, b, _ in rows)
        assert all(bound == 0.2 for _, _, bound in rows)

    def test_t_sweep_strictly_decreasing(self):
        # Fixed c=0.5, M=8 via a rewritten base report.
        from dataclasses import replace

        base = replace(self.base_report(), c=0.5, m=8, t=1)
        rows = monotonicity_table(base, "t", [1, 2, 4])
        betas = [b for _, b, _ in rows]
        assert betas == pytest.approx([4.277777777777778, 3.6, 2.3333333333333335], abs=1e-12)
        assert betas[0] > betas[1] > betas[2]

    def test_rows_sorted_by_parameter(self):
        rows = monotonicity_table(self.base_report(), "c", [1.0, 0.25, 0.5])
        assert [r[0] for r in rows] == [0.25, 0.5, 1.0]

    def test_rejects_invalid_sweeps(self):
        base = self.base_report()
        with pytest.raises(ValueError):
            monotonicity_table(base, "gamma", [1.0])
        with pytest.raises(ValueError):
            monotonicity_table(base, "c", [])
        with pytest.raises(ValueError):
            monotonicity_table(base, "c", [-1.0])
        with pytest.raises(ValueError):
            monotonicity_table(base, "M", [0])


class TestCsvRow:
    def test_columns_and_undefined_delta(self):
        col = [1.0, 1.0]
        model, ctx, query = identity_instance([col, col], [0.5, 0.5])
        report = verify_bound(model, ctx, query, [1.0, 1.0], target_index=0)
        row = bound_report_csv_row("i0", report)
        assert len(row) == len(BOUND_CSV_COLUMNS)
        assert row[0] == "i0"
        assert row[4] == ""  # delta_min undefined at t = M
