"""Contextual retrieval update and its attention form."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopctx import (
    AssociativeOracle,
    ContextSet,
    ContextualHopfield,
    Exemplar,
    ExemplarPool,
    QueryState,
    attention_view,
    cosine_score,
    hnc_retrieve,
    softmax,
)
from hopctx.retrieval import retrieval_update
from hopctx.selection import POOL_BLOCK_PREDICTIONS, pool_score_matrix, score_rows


def reference_softmax(scores):
    """Straight exp/sum evaluation, no stabilization."""
    e = [float(np.exp(s)) for s in scores]
    return np.array([v / sum(e) for v in e])


def two_d_example():
    """Identity model in 2-D, query (1, 0), context columns (1,0) and (0,1)."""
    model = ContextualHopfield.identity(2, gamma=1.0)
    ctx = ContextSet.from_vectors([[1.0, 0.0], [0.0, 1.0]])
    query = QueryState.from_sigma([1.0, 0.0], model)
    return model, ctx, query


def random_instance(rng):
    d_q = int(rng.integers(2, 9))
    d_m = d_q + int(rng.integers(0, 3))
    model = ContextualHopfield(
        xi_q=rng.standard_normal((d_m, d_q)),
        xi_k=rng.standard_normal((d_m, d_q)),
        gamma=float(rng.uniform(0.1, 10.0)),
        w_v=rng.standard_normal((d_q, d_q)),
    )
    ctx = ContextSet(rng.standard_normal((d_m, int(rng.integers(1, 33)))))
    query = QueryState.from_sigma(rng.standard_normal(d_m), model)
    return model, ctx, query


class TestRetrieve:
    def test_singleton_context(self):
        model = ContextualHopfield.identity(3, gamma=2.5)
        lam = np.array([0.3, -1.2, 0.7])
        ctx = ContextSet.from_vectors([lam])
        query = QueryState.from_sigma([1.0, 0.0, 0.0], model)
        result = hnc_retrieve(model, ctx, query)
        np.testing.assert_array_equal(result.weights, [1.0])
        np.testing.assert_allclose(result.u_new, lam, atol=1e-15)

    def test_two_pattern_softmax_weights(self):
        # Frozen from the reference softmax of scores (1, 0).
        result = hnc_retrieve(*two_d_example())
        np.testing.assert_allclose(
            result.weights, [0.7310585786300049, 0.2689414213699951], atol=1e-15
        )
        np.testing.assert_allclose(
            result.u_new, [0.7310585786300049, 0.2689414213699951], atol=1e-15
        )

    def test_matches_reference_softmax(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            model, ctx, query = random_instance(rng)
            result = hnc_retrieve(model, ctx, query)
            z = model.xi_k.T @ ctx.lam
            np.testing.assert_allclose(
                result.weights, reference_softmax(model.gamma * (query.u @ z)), atol=1e-12
            )

    def test_large_gamma_snaps_to_argmax_pattern(self):
        model = ContextualHopfield.identity(2, gamma=1e6)
        ctx = ContextSet.from_vectors([[1.0, 0.0], [0.0, 1.0]])
        query = QueryState.from_sigma([1.0, 0.0], model)
        result = hnc_retrieve(model, ctx, query)
        np.testing.assert_allclose(result.weights, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(result.u_new, [1.0, 0.0], atol=1e-15)

    def test_gamma_decay_toward_argmax_is_monotone(self):
        rng = np.random.default_rng(12)
        lam = rng.standard_normal((4, 6))
        sigma = rng.standard_normal(4)
        distances = []
        for gamma in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]:
            model = ContextualHopfield.identity(4, gamma=gamma)
            ctx = ContextSet(lam)
            query = QueryState.from_sigma(sigma, model)
            result = hnc_retrieve(model, ctx, query)
            best = int(np.argmax(result.weights))
            z = ctx.patterns(model)
            distances.append(np.linalg.norm(result.u_new - z[:, best]))
        assert all(b <= a + 1e-12 for a, b in zip(distances, distances[1:]))

    def test_rejects_dimension_mismatch(self):
        model = ContextualHopfield.identity(3)
        ctx = ContextSet(np.zeros((4, 2)) + 1.0)
        query = QueryState.from_sigma([1.0, 0.0, 0.0], model)
        with pytest.raises(ValueError, match=r"^context dimension 4 != d_m=3$"):
            hnc_retrieve(model, ctx, query)

    def test_rejects_non_finite(self):
        model = ContextualHopfield.identity(2)
        with pytest.raises(ValueError):
            ContextSet(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            QueryState.from_sigma([np.inf, 0.0], model)

    def test_rejects_overflowing_scores(self):
        # Finite entries whose score u z overflows: inf - inf = NaN weights.
        model = ContextualHopfield.identity(2)
        ctx = ContextSet(np.array([[1e200, -1e200], [1e200, 1e200]]))
        query = QueryState.from_sigma([1e200, 1e200], model)
        with pytest.raises(ValueError, match="scores u z are not finite"):
            hnc_retrieve(model, ctx, query)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_overflowing_products_naming_them(self):
        # Finite entries whose products overflow float64 are rejected
        # before anything warns.
        big = np.array([[1e200, 0.0], [0.0, 1.0]])
        model = ContextualHopfield(xi_q=big, xi_k=big)
        with pytest.raises(ValueError, match=r"^entries of u = sigma xi_q are not finite"):
            QueryState.from_sigma([1e200, 0.0], model)
        with pytest.raises(ValueError, match=r"^entries of Z = xi_k\^T lam are not finite"):
            ContextSet.from_vectors([[1e200, 0.0]]).patterns(model)
        model = ContextualHopfield.identity(2, w_v=big)
        ctx = ContextSet.from_vectors([[1e200, 0.0]])
        query = QueryState.from_sigma([1.0, 0.0], model)
        assert hnc_retrieve(model, ctx, query).weights.tolist() == [1.0]
        with pytest.raises(ValueError, match=r"^entries of V = K w_v are not finite"):
            attention_view(model, ctx, query)

    def test_rejects_empty_context(self):
        with pytest.raises(ValueError):
            ContextSet(np.zeros((3, 0)))


class TestBatchInvariance:
    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_rows_equal_one_row_calls(self, seed, m, n):
        # A row's bits must not depend on how many rows share the call.
        rng = np.random.default_rng(seed)
        d_q = int(rng.integers(1, 9))
        d_m = d_q + int(rng.integers(0, 3))
        xi_k = rng.standard_normal((d_m, d_q))
        lam = rng.standard_normal((d_m, m))
        z, v = xi_k.T @ lam, lam.T @ xi_k
        us = rng.standard_normal((n, d_q))
        gamma = float(rng.uniform(0.1, 10.0))
        weights, u_new = retrieval_update(us, z, v, gamma)
        for i in range(n):
            w_i, u_i = retrieval_update(us[i], z, v, gamma)
            np.testing.assert_array_equal(weights[i], w_i)
            np.testing.assert_array_equal(u_new[i], u_i)

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.one_of(st.just(1), st.integers(min_value=1, max_value=16)),
        st.integers(min_value=1, max_value=64),
        st.booleans(),
        st.floats(min_value=0.1, max_value=1e4),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_pool_prediction_rows_equal_predict(self, seed, k, n, shared, gamma, x_exp, y_exp):
        # Contexts as pool positions, one per query row (n, K) or one for
        # all rows (K,): each row has the bits of predict on that context and
        # query, and of predict_many's row on the whole of xs, signed zeros
        # included (compared as uint64, since -0.0 == 0.0).  x and y rows are
        # drawn at scales 1e-3 to 1e3.  For K = 1 (half the examples) all
        # take the one-exemplar shortcut, which
        # test_one_pattern_equals_softmax_mix checks against the formula.
        rng = np.random.default_rng(seed)
        d_x, d_y = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        x_scale, y_scale = 10.0**x_exp, 10.0**y_exp
        exemplars = [Exemplar(id=i, x=x_scale * rng.standard_normal(d_x), y=y_scale * rng.standard_normal(d_y))
                     for i in range(k + int(rng.integers(0, 8)))]
        pool = ExemplarPool([e.x for e in exemplars], [e.y for e in exemplars])
        ids = rng.integers(0, pool.size, size=(k,) if shared else (n, k))
        xs = x_scale * rng.standard_normal((n, d_x))
        oracle = AssociativeOracle(gamma=gamma)
        got = oracle.predict_pool(pool, ids, xs)
        assert got.shape == (n, d_y)
        for j in range(n):
            context = [exemplars[i] for i in (ids if shared else ids[j])]
            many = oracle.predict_many(context, xs)
            assert many.flags.writeable and many.flags.owndata
            np.testing.assert_array_equal(got[j].view(np.uint64), oracle.predict(context, xs[j]).view(np.uint64))
            np.testing.assert_array_equal(got[j].view(np.uint64), many[j].view(np.uint64))

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.sampled_from([(), (7,), (30,), (5, 7)]),
        st.sampled_from(["shared", "own", "repeated"]),
        st.floats(min_value=0.0, exclude_min=True, max_value=1e300),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_pattern_equals_softmax_mix(self, seed, batch, contexts, gamma):
        # With one exemplar the oracle skips the softmax and the weighted
        # sum; its bits must equal the y-block of the formula's, signed zeros
        # included (1.0 * -0.0 summed from 0 is +0.0).  Contexts are one for
        # every query row ("shared"), one per row ("own"), or one per row of
        # the first axis and repeated over the rest ("repeated"); the
        # prediction must repeat each over the query axes as a read-only view
        # with stride 0.
        rng = np.random.default_rng(seed)
        d_x, d_y = int(rng.integers(1, 17)), int(rng.integers(1, 17))

        def signed_zeros(a):
            return np.where(rng.random(a.shape) < 0.3, np.copysign(0.0, a), a)

        rows = [(signed_zeros(rng.standard_normal(d_x)), signed_zeros(rng.standard_normal(d_y))) for _ in range(8)]
        pool = ExemplarPool(*zip(*rows))
        ids_batch = {"shared": (), "own": batch, "repeated": batch[:1] + (1,) * len(batch[1:])}[contexts]
        ids = rng.integers(0, pool.size, size=ids_batch + (1,))
        xs = signed_zeros(rng.standard_normal(batch + (d_x,)))
        got = AssociativeOracle(gamma=gamma).predict_pool(pool, ids, xs)
        v = np.concatenate([pool.xs[ids], pool.ys[ids]], axis=-1)
        u = np.concatenate([xs, np.zeros(batch + (d_y,))], axis=-1)
        weights, u_new = retrieval_update(u, np.ascontiguousarray(np.swapaxes(v, -1, -2)), v, gamma)
        assert np.all(weights == 1.0)
        assert got.shape == u_new[..., d_x:].shape == batch + (d_y,)
        assert got.tobytes() == u_new[..., d_x:].tobytes()
        assert not got.flags.writeable and u_new.flags.writeable
        ids_axes = (1,) * (len(batch) - len(ids_batch)) + ids_batch
        assert all(got.strides[a] == 0 for a, n in enumerate(ids_axes) if n == 1)

    def test_one_pattern_overflowing_scores_raise(self):
        # One exemplar still forms its score u z, so an overflowing score
        # raises, before anything warns, on every path that takes one.
        e = Exemplar(id=0, x=np.array([1e200]), y=np.array([1e200]))
        pool, oracle, xs = ExemplarPool([e.x], [e.y]), AssociativeOracle(gamma=1.0), np.full((3, 1), 1e200)
        v = np.array([[1e200, 1e200]])
        calls = [
            lambda: retrieval_update(np.array([1e200, 1e200]), v.T.copy(), v, 1.0),
            lambda: retrieval_update(np.full((3, 2), 1e200), v.T.copy(), v, 1.0),
            lambda: oracle.predict_pool(pool, [0], xs[0]),
            lambda: oracle.predict_pool(pool, [[0]] * 3, xs),
            lambda: oracle.predict_many([e], xs),
            lambda: oracle.predict([e], xs[0]),
        ]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="scores u z"):
                    call()

    def test_pool_score_matrix_blocks_equal_one_call_per_exemplar(self):
        rng = np.random.default_rng(4)
        n = 70
        assert n * n > POOL_BLOCK_PREDICTIONS  # more than one block
        rows = rng.standard_normal((n, 7))
        pool = ExemplarPool(rows[:, :4], rows[:, 4:])
        oracle = AssociativeOracle(gamma=3.0)
        scores, ok = pool_score_matrix(pool, oracle, cosine_score)
        for i in range(n):
            s_i, ok_i = score_rows(cosine_score, oracle.predict_pool(pool, [i], pool.xs), pool.ys)
            np.testing.assert_array_equal(scores[i], s_i)
            np.testing.assert_array_equal(ok[i], ok_i)


class TestModelValidation:
    def test_rejects_nonpositive_gamma(self):
        # A non-finite gamma is rejected too: inf makes every weight NaN.  The
        # kernels reject it as the model does: a negative gamma would weight
        # the lower score higher, and 0 would give uniform weights.
        u, z = np.array([1.0, 2.0]), np.eye(2)
        for gamma in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="^gamma must be finite and positive"):
                ContextualHopfield.identity(2, gamma=gamma)
            with pytest.raises(ValueError, match="^gamma must be finite and positive"):
                softmax(u, gamma)
            with pytest.raises(ValueError, match="^gamma must be finite and positive"):
                retrieval_update(u, z, z, gamma)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            ContextualHopfield(xi_q=np.eye(3), xi_k=np.ones((3, 2)))

    def test_rejects_bad_value_map(self):
        with pytest.raises(ValueError):
            ContextualHopfield(xi_q=np.eye(3), xi_k=np.eye(3), w_v=np.ones((2, 2)))

    def test_rejects_matrices_not_2d(self):
        with pytest.raises(ValueError, match="xi_q must be 2-D"):
            ContextualHopfield(xi_q=np.ones(3), xi_k=np.eye(3))
        with pytest.raises(ValueError, match="lam must be 2-D"):
            ContextSet(lam=np.ones(3))

    def test_rejects_query_and_context_of_another_dimension(self):
        model = ContextualHopfield.identity(2)
        ctx = ContextSet.from_vectors([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="sigma shape"):
            QueryState.from_sigma([1.0, 0.0, 0.0], model)
        # A query built for a 3-dimensional model, put to a 2-dimensional one.
        query = QueryState.from_sigma([1.0, 0.0, 0.0], ContextualHopfield.identity(3))
        with pytest.raises(ValueError, match="query dimension"):
            hnc_retrieve(model, ctx, query)
        wide = ContextSet.from_vectors([[1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="context dimension"):
            attention_view(model, wide, QueryState.from_sigma([1.0, 0.0], model))


class TestAttentionView:
    def test_identity_value_map_equals_retrieval(self):
        model, ctx, query = two_d_example()
        view = attention_view(model, ctx, query)
        result = hnc_retrieve(model, ctx, query)
        np.testing.assert_allclose(view.output, result.u_new, atol=1e-15)

    def test_doubled_value_map(self):
        model = ContextualHopfield.identity(2, gamma=1.0, w_v=2 * np.eye(2))
        ctx = ContextSet.from_vectors([[1.0, 0.0], [0.0, 1.0]])
        query = QueryState.from_sigma([1.0, 0.0], model)
        view = attention_view(model, ctx, query)
        np.testing.assert_allclose(
            view.output, [1.4621171572600098, 0.5378828427399903], atol=1e-12
        )

    def test_equivalence_on_random_instance(self):
        rng = np.random.default_rng(3)
        model, ctx, query = random_instance(rng)
        view = attention_view(model, ctx, query)
        ref = hnc_retrieve(model, ctx, query).u_new @ model.w_v
        assert np.max(np.abs(view.output - ref)) <= 1e-12

    def test_matrices_have_documented_shapes(self):
        rng = np.random.default_rng(8)
        model, ctx, query = random_instance(rng)
        view = attention_view(model, ctx, query)
        assert view.q.shape == (model.d_q,)
        assert view.k.shape == (ctx.m, model.d_q)
        assert view.v.shape == (ctx.m, model.d_q)
        assert view.output.shape == (model.d_q,)


class TestInvariants:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_weights_form_probability_vector(self, seed):
        rng = np.random.default_rng(seed)
        model, ctx, query = random_instance(rng)
        result = hnc_retrieve(model, ctx, query)
        assert np.all(result.weights >= 0.0)
        assert np.all(result.weights <= 1.0)
        assert abs(result.weights.sum() - 1.0) <= 1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_result_in_convex_hull_of_patterns(self, seed):
        rng = np.random.default_rng(seed)
        model, ctx, query = random_instance(rng)
        result = hnc_retrieve(model, ctx, query)
        rows = ctx.lam.T @ model.xi_k
        np.testing.assert_allclose(result.u_new, result.weights @ rows, atol=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_context_permutation_permutes_weights_only(self, seed):
        rng = np.random.default_rng(seed)
        model, ctx, query = random_instance(rng)
        perm = rng.permutation(ctx.m)
        permuted = ContextSet(ctx.lam[:, perm])
        base = hnc_retrieve(model, ctx, query)
        shuffled = hnc_retrieve(model, permuted, query)
        assert np.max(np.abs(shuffled.weights - base.weights[perm])) <= 1e-12
        assert np.max(np.abs(shuffled.u_new - base.u_new)) <= 1e-12

    def test_determinism_bit_identical(self):
        rng_a = np.random.default_rng(77)
        rng_b = np.random.default_rng(77)
        res_a = hnc_retrieve(*random_instance(rng_a))
        res_b = hnc_retrieve(*random_instance(rng_b))
        assert np.array_equal(res_a.u_new, res_b.u_new)
        assert np.array_equal(res_a.weights, res_b.weights)

    def test_softmax_handles_large_scores(self):
        w = softmax(np.array([1e4, 1e4 - 1.0]))
        assert np.isfinite(w).all()
        assert abs(w.sum() - 1.0) <= 1e-12

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=16),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_softmax_finite_for_finite_scores_and_any_gamma(self, scores, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = softmax(np.array(scores), gamma)
        assert np.isfinite(w).all()
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert w[int(np.argmax(scores))] == w.max()

    def test_softmax_is_row_wise(self):
        scores = np.array([[3.0, 1.0, -2.0], [0.5, 0.5, 40.0]])
        w = softmax(scores, 2.0)
        for row, s in zip(w, scores):
            np.testing.assert_array_equal(row, softmax(s, 2.0))

    def test_overflowing_gamma_keeps_weights_finite(self):
        # gamma * u Z overflows to inf; shifting before scaling still gives
        # the limit weights (1, 0) instead of NaN, without a warning.
        model = ContextualHopfield.identity(2, gamma=1e300)
        ctx = ContextSet.from_vectors([[1.0, 0.0], [0.0, 1.0]])
        query = QueryState.from_sigma([1e10, 1.0], model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = hnc_retrieve(model, ctx, query)
            view = attention_view(model, ctx, query)
        np.testing.assert_array_equal(result.weights, [1.0, 0.0])
        np.testing.assert_array_equal(result.u_new, [1.0, 0.0])
        np.testing.assert_array_equal(view.output, [1.0, 0.0])
