"""Separation, realized error, and the retrieval-error upper bound."""

import csv
import io
import math
import warnings
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopctx import (
    AssociativeOracle,
    BoundViolationError,
    ContextSet,
    ContextualHopfield,
    Exemplar,
    ExemplarPool,
    ExperimentConfig,
    QueryState,
    beta_coefficient,
    error_bound,
    run_bound_sweep,
    separation,
    verify_bound,
)
from hopctx.bounds import BoundReport, BOUND_CSV_COLUMNS, _COLUMNS, _verify_rows, verify_patterns
from hopctx.retrieval import retrieval_update


def reference_beta(c, m, t):
    """Independent evaluation of 1 - (1 + c(M-t)/t)^{-1} + c(M-t)."""
    return 1.0 - 1.0 / (1.0 + c * (m - t) / t) + c * (m - t)


def identity_instance(lam_columns, sigma, gamma=1.0):
    d = len(sigma)
    model = ContextualHopfield.identity(d, gamma=gamma)
    ctx = ContextSet.from_vectors(lam_columns)
    query = QueryState.from_sigma(sigma, model)
    return model, ctx, query


def random_bound_instance(rng, exact=False):
    """A random bound instance; with ``exact``, u* = z_target (dz = 0), so the
    bound is its contextual term alone.  ``exact`` leaves the draws as they are."""
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
    dz = rng.uniform(0.0, 1.0) * rng.standard_normal(d_q)
    return model, ctx, query, z_target + (0.0 if exact else dz)


class TestSeparation:
    def test_orthogonal_pair(self):
        model, ctx, query = identity_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        sep = separation(query.u, ctx.patterns(model), target_index=0)
        assert sep.delta_min == 1.0
        assert sep.duplicate_count == 1
        assert math.isnan(sep.delta_all[0])
        assert sep.delta_all[1] == 1.0

    def test_all_duplicates_flags_undefined(self):
        col = [0.5, -0.25]
        model, ctx, query = identity_instance([col, col, col], [1.0, 2.0])
        sep = separation(query.u, ctx.patterns(model), target_index=1)
        assert sep.duplicate_count == 3
        assert sep.delta_min is None

    def test_matches_exhaustive_pairwise_computation(self):
        rng = np.random.default_rng(11)
        lam = rng.standard_normal((4, 5))
        sigma = rng.standard_normal(4)
        model, ctx, query = identity_instance(lam.T, sigma)
        sep = separation(query.u, ctx.patterns(model), target_index=2)
        sims = [float(query.u @ lam[:, j]) for j in range(5)]
        expected = min(sims[2] - sims[j] for j in range(5) if j != 2)
        assert sep.delta_min == pytest.approx(expected, abs=1e-12)
        assert sep.duplicate_count == 1

    def test_near_duplicates_beyond_tolerance_count_as_distinct(self):
        base = np.array([1.0, 0.0])
        model, ctx, query = identity_instance([base, base + 1e-9], [1.0, 0.0])
        sep = separation(query.u, ctx.patterns(model), target_index=0)
        assert sep.duplicate_count == 1

    @pytest.mark.parametrize("name", ["u", "z"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, name, value):
        # u = (inf, 0) against two orthogonal patterns once warned twice and
        # read delta_min = NaN with t = 1 < M = 2.
        patterns = {"u": np.array([1.0, 0.0]), "z": np.eye(2)}
        patterns[name].flat[0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"^u or z not finite: separation takes finite input$"):
                separation(patterns["u"], patterns["z"], target_index=0)

    def test_rejects_overflowing_scores(self):
        # Finite u and z whose scores u z overflow are rejected with the
        # verifier's message, before anything warns, not reported as an
        # infinite margin that error_bound would turn into a bound of 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"^scores u z are not finite"):
                separation(np.array([1e200, 0.0]), np.array([[1e200, 0.0], [0.0, 1.0]]), 0)

    def test_rejects_out_of_range_index(self):
        model, ctx, query = identity_instance([[1.0, 0.0]], [1.0, 0.0])
        with pytest.raises(IndexError):
            separation(query.u, ctx.patterns(model), target_index=1)


class TestRealizedError:
    def test_perfect_retrieval_is_zero(self):
        model, ctx, query = identity_instance([[1.0, 0.0]], [1.0, 0.0])
        assert verify_bound(model, ctx, query, [1.0, 0.0], target_index=0).realized_error == 0.0

    def test_unit_offset(self):
        model, ctx, query = identity_instance([[1.0, 0.0]], [1.0, 0.0])
        report = verify_bound(model, ctx, query, [0.0, 0.0], target_index=0)
        assert report.realized_error == pytest.approx(1.0, abs=1e-15)

    def test_two_pattern_example(self):
        # ||(0.73106..., 0.26894...) - (1, 0)||, frozen from a direct norm.
        model, ctx, query = identity_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        report = verify_bound(model, ctx, query, [1.0, 0.0], target_index=0)
        assert report.realized_error == pytest.approx(0.3803406055853444, abs=1e-12)

    def test_rejects_dimension_mismatch(self):
        model, ctx, query = identity_instance([[1.0, 0.0]], [1.0, 0.0])
        for u_star in ([1.0, 0.0, 0.0], 1.0):
            with pytest.raises(ValueError, match=r"^u_star shape"):
                verify_bound(model, ctx, query, u_star, target_index=0)


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

    @pytest.mark.parametrize("c", [math.nan, -1.0, [0.5, math.nan]])
    def test_rejects_c_nan_or_negative(self, c):
        with pytest.raises(ValueError, match="c must be nonnegative"):
            beta_coefficient(np.array(c), 3, 1)

    def test_infinite_c_is_valid(self):
        assert beta_coefficient(math.inf, 3, 1) == math.inf


class TestErrorBound:
    def test_full_duplication_gives_instance_error(self):
        col = [1.0, 1.0]
        model, ctx, query = identity_instance([col, col], [0.5, 0.5])
        sep = separation(query.u, ctx.patterns(model), target_index=0)
        report = error_bound(sep, gamma=2.0, instance_error=0.37, z_max_norm=5.0)
        assert report.beta == 0.0
        assert report.upper_bound == 0.37
        assert report.c == 0.0

    def test_exact_retrieval_limit(self):
        # dz = 0, delta_min > 0, huge gamma: c -> 0 and the bound -> 0.
        model, ctx, query = identity_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], gamma=1e4)
        sep = separation(query.u, ctx.patterns(model), target_index=0)
        report = error_bound(sep, gamma=1e4, instance_error=0.0, z_max_norm=1.0)
        assert report.upper_bound == 0.0

    def test_frozen_two_pattern_bound(self):
        model, ctx, query = identity_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        sep = separation(query.u, ctx.patterns(model), target_index=0)
        report = error_bound(sep, gamma=1.0, instance_error=0.1, z_max_norm=1.0)
        assert report.c == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert report.beta == pytest.approx(0.6368208625414374, abs=1e-12)
        assert report.upper_bound == pytest.approx(0.7368208625414374, abs=1e-12)

    def test_rejects_negative_inputs(self):
        model, ctx, query = identity_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        sep = separation(query.u, ctx.patterns(model), target_index=0)
        with pytest.raises(ValueError):
            error_bound(sep, gamma=0.0, instance_error=0.1, z_max_norm=1.0)
        with pytest.raises(ValueError):
            error_bound(sep, gamma=1.0, instance_error=-0.1, z_max_norm=1.0)

    @pytest.mark.parametrize("field", ["instance_error", "z_max_norm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_rejects_norms_not_finite_and_nonnegative(self, field, value):
        # Neither a NaN nor an infinite bound comes out of input that cannot be evaluated.
        sep = separation(np.ones(2), np.eye(2), 0)
        with pytest.raises(ValueError, match="instance_error and z_max_norm must be finite and nonnegative"):
            error_bound(sep, 1.0, **{"instance_error": 1.0, "z_max_norm": 1.0, field: value})

    @pytest.mark.parametrize("delta_min", [math.nan, None])
    def test_rejects_missing_margin_below_full_duplication(self, delta_min):
        # With t < M a margin that could not be evaluated gives no bound: as
        # c = 0 it would make the bound the instance error alone.
        from hopctx.bounds import SeparationReport

        sep = SeparationReport(np.array([math.nan, math.nan]), delta_min, 1, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"^delta_min must be a number when t < M, got "):
                error_bound(sep, 1.0, instance_error=0.0, z_max_norm=1.0)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_gamma_not_finite_and_positive(self, gamma):
        # A tie (delta_min = 0, M = 2, t = 1), bounded by 1.5 at gamma = 2: a
        # NaN gamma must not pass as c = 0 and a bound of 0, nor an inf one warn.
        u, z = np.array([1.0, 0.0]), np.array([[1.0, 1.0], [0.0, 1e-3]])
        assert error_bound(separation(u, z, 0), 2.0, 0.0, 1.0).upper_bound == 1.5
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="gamma must be finite and positive"):
                error_bound(separation(u, z, 0), gamma, 0.0, 1.0)
            with pytest.raises(ValueError, match="gamma must be finite and positive"):
                verify_patterns(u, z, np.ascontiguousarray(z.T), u, gamma, 0)


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

    @given(st.integers(min_value=0, max_value=100_000), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_bound_holds_property(self, seed, exact):
        rng = np.random.default_rng(seed)
        model, ctx, query, u_star = random_bound_instance(rng, exact)
        report = verify_bound(model, ctx, query, u_star, target_index=0)
        if exact:
            assert report.instance_error == 0.0

    def test_rejects_context_of_wrong_dimension(self):
        model = ContextualHopfield.identity(3)
        ctx = ContextSet(np.ones((4, 2)))
        query = QueryState.from_sigma([1.0, 0.0, 0.0], model)
        with pytest.raises(ValueError, match=r"^context dimension 4 != d_m=3$"):
            verify_bound(model, ctx, query, [1.0, 0.0, 0.0], target_index=0)

    def test_nan_error_is_a_violation(self, monkeypatch):
        # An instance that cannot be evaluated must not pass: a retrieval
        # that returns NaN is sabotaged in, since finite input cannot produce
        # one (overflowing input is rejected before the bound check).
        import hopctx.bounds as bounds_module

        def nan_update(u, z, v, gamma):
            return np.full(z.shape[1], np.nan), np.full(u.shape, np.nan)

        monkeypatch.setattr(bounds_module, "retrieval_update", nan_update)
        model, ctx, query = identity_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        with pytest.raises(BoundViolationError) as excinfo:
            bounds_module.verify_bound(model, ctx, query, [1.0, 0.0], target_index=0)
        assert math.isnan(excinfo.value.report.realized_error)

    @pytest.mark.parametrize(
        "contexts, sigma, u_star",
        [
            # u z is inf for one pattern and inf - inf = NaN for the other.
            ([[1e200, 1e200], [-1e200, 1e200]], [1e200, 1e200], [1e200, 1e200]),
            # u z overflows to inf for the target.
            ([[1e200, 0.0], [0.0, 1.0]], [1e200, 0.0], [1e200, 0.0]),
            # Finite scores and eps = 0, but ||z_max|| overflows: the bound
            # would read 0 * inf = NaN.
            ([[1e200, 1e200], [1e200, 1e200]], [1e-200, 0.0], [1e200, 1e200]),
        ],
        ids=["scores-inf-and-nan", "score-inf", "norm-inf"],
    )
    def test_overflowing_finite_input_is_rejected(self, contexts, sigma, u_star):
        model, ctx, query = identity_instance(contexts, sigma)
        with pytest.raises(ValueError, match="not finite"):
            verify_bound(model, ctx, query, u_star, target_index=0)

    @given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=0, max_value=300))
    @settings(max_examples=80, deadline=None)
    def test_large_finite_input_holds_or_is_rejected(self, seed, k):
        # Scaling an instance by 10^k keeps every input finite; past about
        # k = 154 its scores or norms overflow.  The verifier must then
        # reject the input, never report a violation.
        model, ctx, query, u_star = random_bound_instance(np.random.default_rng(seed))
        scale = 10.0**k
        ctx = ContextSet(ctx.lam * scale)
        query = QueryState.from_sigma(query.sigma * scale, model)
        try:
            report = verify_bound(model, ctx, query, u_star * scale, target_index=0)
        except ValueError as exc:
            assert "not finite" in str(exc)
        else:
            assert report.realized_error <= report.upper_bound + 1e-9 * (1 + report.upper_bound)

    @pytest.mark.parametrize("name", ["u", "z", "v", "u_star"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_is_rejected_naming_it(self, name, value):
        # Bad input, not a violation and not an overflow of finite input.
        u, z, v, u_star = (a[0].copy() for a in pattern_stack(4, 1, 3, 2, 1))
        patterns = {"u": u, "z": z, "v": v, "u_star": u_star}
        patterns[name][0] = value
        with pytest.raises(ValueError, match=rf"^{name} not finite: the verifier takes finite input$"):
            verify_patterns(*patterns.values(), 2.0, target_index=0)

    def test_violation_error_carries_report(self, monkeypatch):
        # A genuine violation is impossible, so force one by sabotaging the
        # beta computation and check the diagnostic path.
        import hopctx.bounds as bounds_module

        monkeypatch.setattr(bounds_module, "beta_coefficient", lambda c, m, t: np.full_like(c, -10.0))
        model, ctx, query = identity_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        with pytest.raises(BoundViolationError) as excinfo:
            bounds_module.verify_bound(model, ctx, query, [1.0, 0.0], target_index=0)
        assert excinfo.value.report.realized_error > excinfo.value.report.upper_bound


def pattern_stack(seed, rows, d_q, m, t, exact=()):
    """A stack of instances of one shape, as ``verify_patterns`` takes a batch:
    u (B, d_q), z (B, d_q, M), v (B, M, d_q), u_star (B, d_q); in each row the
    first t patterns duplicate the target (index 0).  Rows listed in ``exact``
    have u* = z_target (dz = 0), with the draws otherwise as they are."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((rows, d_q, m))
    z[:, :, 1:t] = z[:, :, :1]
    u = rng.standard_normal((rows, d_q))
    dz = rng.uniform(0.0, 1.0, (rows, 1)) * rng.standard_normal((rows, d_q))
    dz[list(exact)] = 0.0
    u_star = z[:, :, 0] + dz
    return u, z, z.transpose(0, 2, 1).copy(), u_star  # a copy: at M = 1 the transpose is contiguous


def report_bits(report):
    """Every field of a report, with repr telling apart each float's bits."""
    return [repr(x) for x in astuple(report)]


def first_error_of_loop(u, z, v, u_star, gamma):
    """(row, exception) that verifying the rows one at a time raises first."""
    for i in range(len(u)):
        try:
            verify_patterns(u[i], z[i], v[i], u_star[i], gamma, target_index=0)
        except (ValueError, BoundViolationError) as exc:
            return i, exc
    return None


class TestBuiltinPrediction:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=1e-2, max_value=30.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_prediction_is_a_bound_instance(self, seed, n, d_x, d_y, k, gamma, scale):
        # A context of K pool positions (repeats allowed) over a pool that may
        # hold exact duplicates; u = (x, 0) and u* = (x_i, y) for the
        # best-scoring context pattern i.  The y block of u_new - u* is the
        # prediction error, so it is at most the realized error.
        rng = np.random.default_rng(seed)
        rows = scale * rng.standard_normal((n, d_x + d_y))[rng.integers(0, n, n)]
        pool = ExemplarPool([Exemplar(id=j, x=r[:d_x], y=r[d_x:]) for j, r in enumerate(rows)])
        ids = rng.integers(0, n, k)
        x, y = scale * rng.standard_normal(d_x), scale * rng.standard_normal(d_y)
        v = np.hstack([pool.xs, pool.ys])[ids]
        z = np.ascontiguousarray(v.T)
        u = np.concatenate([x, np.zeros(d_y)])
        i = int(np.argmax(u @ z))
        report = verify_patterns(u, z, v, np.concatenate([v[i, :d_x], y]), gamma, i)
        y_hat = AssociativeOracle(gamma=gamma, y_dim=d_y).predict_pool(pool, ids, x)
        assert np.linalg.norm(y_hat - y) <= report.realized_error


class TestBatchedVerifier:
    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=9),
        st.data(),
        st.sampled_from([0.25, 2.0, 1e4]),
    )
    @settings(max_examples=120, deadline=None)
    def test_batch_equals_one_row_calls_bitwise(self, seed, rows, d_q, m, data, gamma):
        # t = M covers delta_min None and c = 0 (always at M = 1); gamma 1e4
        # with a negative margin gives c = inf and an infinite bound.
        t = data.draw(st.integers(min_value=1, max_value=m))
        exact = data.draw(st.sets(st.integers(min_value=0, max_value=rows - 1)))
        u, z, v, u_star = pattern_stack(seed, rows, d_q, m, t, exact)
        batch = verify_patterns(u, z, v, u_star, gamma, target_index=0)
        assert len(batch) == rows
        for i, report in enumerate(batch):
            one = verify_patterns(u[i], z[i], v[i], u_star[i], gamma, target_index=0)
            assert report_bits(report) == report_bits(one)
            # The same bits as a scalar evaluation of each term of the bound.
            sep = separation(u[i], z[i], target_index=0)
            if sep.delta_min is None:
                c = 0.0
            else:
                try:
                    c = math.exp(-gamma * sep.delta_min)
                except OverflowError:
                    c = math.inf
            t = sep.duplicate_count
            beta = 0.0 if t == m else reference_beta(c, m, t)
            instance_error = float(np.linalg.norm(u_star[i] - z[i][:, 0]))
            assert instance_error == 0.0 or i not in exact
            z_max_norm = float(np.linalg.norm(z[i], axis=0).max())
            _, u_new = retrieval_update(u[i], z[i], v[i], gamma)
            assert report_bits(report) == report_bits(BoundReport(
                instance_error, c, t, m, beta, z_max_norm, instance_error + beta * z_max_norm, gamma,
                sep.delta_min, float(np.linalg.norm(u_new - u_star[i])),
            ))

    def test_draws_reach_infinite_c(self):
        u, z, v, u_star = pattern_stack(5, 20, 3, 4, 1)
        reports = verify_patterns(u, z, v, u_star, 1e4, target_index=0)
        assert any(r.delta_min < 0 and r.c == math.inf and r.upper_bound == math.inf for r in reports)

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.lists(st.sampled_from(["ok", "ok", "input", "score", "norm", "violation"]), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=120, deadline=None)
    def test_batch_raises_the_row_a_loop_raises_first(self, seed, kinds, m):
        u, z, v, u_star = pattern_stack(seed, len(kinds), 3, m, 1)
        for i, kind in enumerate(kinds):
            if kind == "input":  # a NaN input is bad input
                v[i] = np.nan
            elif kind == "score":  # u z overflows
                u[i], z[i] = 1e300, z[i] * 1e100
                v[i] = z[i].T
            elif kind == "norm":  # ||dz|| overflows, the scores do not
                u_star[i] = 1e200
            elif kind == "violation":  # v is not z^T, so the error is far above the bound on z
                v[i] = z[i].T + 1e100
        columns, fault = _verify_rows(u, z, v, u_star, 2.0, 0)
        assert list(columns) == list(_COLUMNS)
        expected = first_error_of_loop(u, z, v, u_star, 2.0)
        if expected is None:
            assert fault is None and all(len(a) == len(kinds) for a in columns.values())
            return
        row, exc = fault
        assert row == expected[0] == next(i for i, kind in enumerate(kinds) if kind != "ok")
        assert (type(exc), str(exc)) == (type(expected[1]), str(expected[1]))
        assert all(len(a) == row for a in columns.values())
        with pytest.raises(type(exc)) as excinfo:
            verify_patterns(u, z, v, u_star, 2.0, target_index=0)
        assert str(excinfo.value) == str(exc)

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=2, max_value=5),
        st.data(),
        st.sampled_from(["nan-error", "nan-bound", "excess", "inf-bound"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_vectorized_check_flags_the_row_a_loop_flags(self, seed, rows, m, data, kind):
        # A mutant puts into one row, found by its values so that a batch and a
        # one-row call both hit it, a NaN error, a NaN bound, an error 1e-6
        # above a bound below 100 (its slack is at most 1.01e-7), or an
        # infinite bound.  The first three must raise at that row with the
        # report of verify_patterns on the row alone; an infinite bound holds.
        import hopctx.bounds as bounds_module

        u, z, v, u_star = pattern_stack(seed, rows, 3, m, 1)
        clean = verify_patterns(u, z, v, u_star, 2.0, target_index=0)
        marked = [i for i, r in enumerate(clean) if kind != "excess" or r.upper_bound < 100.0]
        assume(marked)
        row = data.draw(st.sampled_from(marked))
        offset = np.eye(3)[0] * (clean[row].upper_bound + 1e-6)

        def mutant_update(u_, z_, v_, gamma):
            weights, u_new = retrieval_update(u_, z_, v_, gamma)
            hit = (u_ == u[row]).all(axis=-1)
            u_new[hit] = np.nan if kind == "nan-error" else u_star[row] + offset
            return weights, u_new

        def mutant_beta(c, m_, t):
            beta = np.array(beta_coefficient(c, m_, t), dtype=np.float64)
            beta[c == clean[row].c] = np.nan if kind == "nan-bound" else np.inf
            return beta

        with pytest.MonkeyPatch.context() as mp:
            if kind in ("nan-error", "excess"):
                mp.setattr(bounds_module, "retrieval_update", mutant_update)
            else:
                mp.setattr(bounds_module, "beta_coefficient", mutant_beta)
            columns, fault = _verify_rows(u, z, v, u_star, 2.0, 0)
            expected = first_error_of_loop(u, z, v, u_star, 2.0)
            if kind == "inf-bound":
                assert fault is None and expected is None
                assert columns["upper_bound"][row] == math.inf and math.isfinite(columns["realized_error"][row])
                return
            with pytest.raises(BoundViolationError) as excinfo:
                verify_patterns(u, z, v, u_star, 2.0, target_index=0)
        (i, exc), (j, one) = fault, expected
        assert i == j == row and isinstance(exc, BoundViolationError)
        assert report_bits(exc.report) == report_bits(one.report) == report_bits(excinfo.value.report)
        assert str(exc) == str(one) == str(excinfo.value)
        assert all(len(a) == row for a in columns.values())

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=9),
        st.data(),
        st.sampled_from([0.25, 2.0, 1e4]),
    )
    @settings(max_examples=120, deadline=None)
    def test_columns_equal_the_one_row_reports_bitwise(self, seed, rows, d_q, m, data, gamma):
        # The columns hold each one-row report's fields, bit for bit; delta_min
        # is NaN where the report's is None (t = M, always at M = 1).  dz = 0
        # rows and c = inf at gamma 1e4 are among the draws.
        t = data.draw(st.integers(min_value=1, max_value=m))
        exact = data.draw(st.sets(st.integers(min_value=0, max_value=rows - 1)))
        u, z, v, u_star = pattern_stack(seed, rows, d_q, m, t, exact)
        columns, fault = _verify_rows(u, z, v, u_star, gamma, 0)
        assert fault is None and list(columns) == list(_COLUMNS)
        assert columns["t"].dtype.kind == "i" and all(a.dtype == np.float64 for a in list(columns.values())[1:])
        reports = [verify_patterns(u[i], z[i], v[i], u_star[i], gamma, target_index=0) for i in range(rows)]
        field_names = [f.name for f in fields(BoundReport)]
        for name, column in columns.items():
            one_row = [astuple(r)[field_names.index(name)] for r in reports]
            assert [repr(x) for x in column.tolist()] == [repr(math.nan if x is None else x) for x in one_row]
        assert all(r.m == m and r.gamma == gamma for r in reports)


def sweep_row_of(report, monkeypatch):
    """The CSV line ``run_bound_sweep`` writes for a one-instance sweep whose
    verifier columns are the fields of ``report`` (delta_min None as NaN)."""
    import hopctx.experiments as experiments_module

    columns = {name: np.array([math.nan if getattr(report, name) is None else getattr(report, name)])
               for name in _COLUMNS}
    monkeypatch.setattr(experiments_module, "_verify_row", lambda groups, gamma: columns)
    config = ExperimentConfig(bound_gamma_grid=(report.gamma,), bound_m_grid=(report.m,),
                              bound_dup_fractions=(0.0,), bound_instances=1)
    _, csv_text, summary = run_bound_sweep(config)
    assert summary["instances"] == 1
    return csv_text.splitlines()[2] + "\n"


class TestCsvRow:
    def test_columns_and_undefined_delta(self):
        # t = M in every instance of a fully duplicated cell: delta_min is
        # undefined, NaN in the columns and an empty CSV field.
        config = ExperimentConfig(bound_gamma_grid=(1.0,), bound_m_grid=(3,), bound_dup_fractions=(1.0,),
                                  bound_instances=4)
        columns, csv_text, _ = run_bound_sweep(config)
        assert list(columns) == list(BOUND_CSV_COLUMNS)
        assert columns["instance_id"].tolist() == [f"g0-m0-d0-{j}" for j in range(4)]
        assert (columns["t"] == 3).all() and np.isnan(columns["delta_min"]).all()
        rows = list(csv.reader(io.StringIO(csv_text)))[2:-1]
        assert [len(r) for r in rows] == [len(BOUND_CSV_COLUMNS)] * 4
        assert [r[4] for r in rows] == [""] * 4

    @pytest.mark.parametrize("report", [
        BoundReport(0.25, 0.0, 2, 2, 0.0, 1.5, 0.25, 2.0, None, 0.125),  # t = M: delta_min undefined
        BoundReport(0.1, math.inf, 1, 3, math.inf, 2.0, math.inf, 1e4, -0.3, 0.7),  # c = inf, infinite bound
        BoundReport(0.1, 1e300, 1, 3, 2e300, 1e10, math.inf, 8.0, -86.3, 0.7),  # only the bound overflows
        BoundReport(0.1 + 0.2, 0.1353352832366127, 1, 8, 0.9473469826562889, 1.0 / 3.0, 0.6157823275520963,
                    2.0, 1.0, 0.3),
    ], ids=["delta-none", "c-inf", "bound-inf", "ordinary"])
    def test_writer_gives_the_repr_strings(self, report, monkeypatch):
        # The sweep writes .tolist() columns with csv.writer: floats by repr,
        # and delta_min None (an empty field) where t = M.  That gives the
        # bytes of formatting each field by hand.
        values = [getattr(report, name) for name in BOUND_CSV_COLUMNS[3:]]
        by_hand = ",".join(["g0-m0-d0-0", str(report.m), str(report.t)] + ["" if x is None else repr(x) for x in values])
        assert sweep_row_of(report, monkeypatch) == by_hand + "\n"
