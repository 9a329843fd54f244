"""Task generators, score functions, and the built-in associative oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopctx import (
    AssociativeOracle,
    Exemplar,
    OracleFailure,
    TaskSpec,
    cosine_score,
    exact_match,
    generate_pool,
    get_score_fn,
    make_benchmark_task,
    make_task,
    negative_error,
    pool_from_jsonl,
    pool_to_jsonl,
    score,
)
from hopctx.selection import safe_score


def reference_single_retrieval(exemplars, x, gamma):
    """Direct evaluation of the retrieval update on the (x, y) embedding."""
    lam = np.column_stack([np.concatenate([e.x, e.y]) for e in exemplars])
    sigma = np.concatenate([x, np.zeros(exemplars[0].y.shape[0])])
    scores = gamma * (sigma @ lam)
    weights = np.exp(scores - scores.max())
    weights /= weights.sum()
    u_new = weights @ lam.T
    return u_new[len(x):]


class TestScoreFunctions:
    def test_exact_match(self):
        y = np.array([1.0, 2.0])
        assert exact_match(y.copy(), y) == 1.0
        assert exact_match(y + 1e-15, y) == 0.0

    def test_cosine_score_bounds(self):
        y = np.array([1.0, 0.0])
        assert cosine_score(y, y) == 1.0
        assert cosine_score(-y, y) == 0.0
        assert cosine_score(np.array([0.0, 1.0]), y) == 0.5

    def test_cosine_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            cosine_score(np.zeros(2), np.array([1.0, 0.0]))

    def test_negative_error(self):
        got = negative_error(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert got == pytest.approx(-1.4142135623730951, abs=1e-12)

    def test_dispatch_by_tag_and_callable(self):
        y = np.array([1.0, 0.0])
        assert score("exact-match", y, y) == 1.0
        assert score(lambda a, b: 0.25, y, y) == 0.25
        with pytest.raises(ValueError):
            get_score_fn("f1")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            negative_error(np.zeros(2), np.zeros(3))


def assert_rows_equal_safe_score(fn, y_hats, ys):
    """The rows form equals ``safe_score`` row by row, bit for bit."""
    scores, ok = fn.rows(y_hats, ys)
    expected = [safe_score(fn, y_hat, y) for y_hat, y in zip(y_hats, ys)]
    assert scores.dtype == np.float64 and scores.shape == (len(ys),)
    assert scores.tobytes() == np.array([s for s, _ in expected], dtype=np.float64).tobytes()
    assert ok.tolist() == [flag for _, flag in expected]


SCORE_FNS = [cosine_score, exact_match, negative_error]


class TestScoreRows:
    @pytest.mark.parametrize("fn", SCORE_FNS, ids=lambda f: f.__name__)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24), d=st.integers(1, 40),
           wide=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_rows_bitwise_equal_safe_score(self, fn, seed, n, d, wide):
        # Rows mix ordinary values, magnitudes near the float64 limits (so
        # norms overflow or underflow), zero rows, exact copies and NaN/inf.
        rng = np.random.default_rng(seed)
        lo, hi = (-320.0, 300.0) if wide else (-3.0, 3.0)
        y_hats = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(lo, hi, size=(n, 1))
        ys = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(lo, hi, size=(n, 1))
        kind = rng.integers(0, 8, size=n)
        y_hats[kind == 1] = 0.0
        ys[kind == 2] = 0.0
        ys[kind == 3] = y_hats[kind == 3]
        y_hats[kind == 4, 0] = np.nan
        ys[kind == 5, -1] = np.inf
        # Predictions as the oracle returns them: a column slice of a wider array.
        wider = np.zeros((n, d + 3))
        wider[:, 3:] = y_hats
        with np.errstate(all="ignore"):
            assert_rows_equal_safe_score(fn, wider[:, 3:], ys)

    @pytest.mark.parametrize("fn", SCORE_FNS, ids=lambda f: f.__name__)
    def test_shape_mismatch_scores_zero_not_ok(self, fn):
        y_hats, ys = np.ones((4, 3)), np.ones((4, 2))
        assert_rows_equal_safe_score(fn, y_hats, ys)
        scores, ok = fn.rows(y_hats, ys)
        assert not ok.any() and not scores.any()

    def test_zero_and_perfect_rows(self):
        y = np.array([[1.0, 0.0], [0.0, 0.0], [3.0, 4.0]])
        scores, ok = cosine_score.rows(y, y)
        assert scores.tolist() == [1.0, 0.0, 1.0] and ok.tolist() == [True, False, True]
        scores, ok = negative_error.rows(y, y)
        assert scores.tolist() == [0.0, 0.0, 0.0] and ok.all()
        scores, ok = exact_match.rows(y, y[::-1])
        assert scores.tolist() == [0.0, 1.0, 0.0] and ok.all()


class TestTaskSpec:
    def test_rejects_bad_kind_and_dims(self):
        protos = np.eye(3)
        with pytest.raises(ValueError):
            TaskSpec(kind="regression", d=3, prototypes=protos, noise_sigma=0.1)
        with pytest.raises(ValueError):
            TaskSpec(kind="key-value-association", d=3, prototypes=protos, noise_sigma=0.1)
        with pytest.raises(ValueError):
            TaskSpec(kind="prototype-completion", d=4, prototypes=protos, noise_sigma=0.1)

    def test_rejects_duplicate_prototypes(self):
        protos = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            TaskSpec(kind="prototype-completion", d=2, prototypes=protos, noise_sigma=0.0)

    def test_warns_when_prototypes_too_close(self):
        protos = np.array([[1.0, 0.0], [1.0, 0.3]])
        with pytest.warns(UserWarning):
            TaskSpec(kind="prototype-completion", d=2, prototypes=protos, noise_sigma=0.2)

    def test_dimensions_per_kind(self):
        completion = make_task("prototype-completion", 6, 3, 0.05, seed=1)
        assert completion.x_dim == 6 and completion.y_dim == 6
        kv = make_benchmark_task(p=5, d=16)
        assert kv.x_dim == 16 and kv.y_dim == 8


class TestGeneratePool:
    def test_zero_noise_single_prototype(self):
        spec = make_task("prototype-completion", 4, 1, 0.0, seed=2)
        pool, queries = generate_pool(spec, 10, seed=0, n_queries=3)
        for e in pool:
            np.testing.assert_array_equal(e.x, spec.prototypes[0])
            np.testing.assert_array_equal(e.y, spec.prototypes[0])
        for q in queries:
            np.testing.assert_array_equal(q.y, spec.prototypes[0])

    def test_deterministic(self):
        spec = make_task("prototype-completion", 5, 3, 0.1, seed=4)
        pool_a, queries_a = generate_pool(spec, 20, seed=9, n_queries=5)
        pool_b, queries_b = generate_pool(spec, 20, seed=9, n_queries=5)
        for a, b in zip(pool_a, pool_b):
            assert a.id == b.id and a.latent_id == b.latent_id
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.y, b.y)
        for qa, qb in zip(queries_a, queries_b):
            np.testing.assert_array_equal(qa.x, qb.x)
            assert qa.latent_id == qb.latent_id

    def test_latent_counts_in_binomial_band(self):
        # P=3, n=300: 99% band around 100 per prototype is roughly +/-21.
        spec = make_task("prototype-completion", 6, 3, 0.05, seed=9)
        pool, _ = generate_pool(spec, 300, seed=9)
        counts = np.bincount([e.latent_id for e in pool], minlength=3)
        assert np.all(counts >= 79) and np.all(counts <= 121)

    def test_key_value_padding_and_clean_values(self):
        spec = make_benchmark_task(p=3, d=8, noise_sigma=0.1)
        pool, _ = generate_pool(spec, 12, seed=5)
        for e in pool:
            assert e.x.shape == (8,)
            np.testing.assert_array_equal(e.x[4:], np.zeros(4))
            np.testing.assert_array_equal(e.y, spec.prototypes[e.latent_id][4:])

    def test_rejects_tiny_pool(self):
        spec = make_task("prototype-completion", 4, 1, 0.0, seed=2)
        with pytest.raises(ValueError):
            generate_pool(spec, 1, seed=0)


class TestAssociativeOracle:
    def test_single_matching_exemplar_returns_its_completion(self):
        e = Exemplar(id=0, x=np.array([0.4, -0.2]), y=np.array([0.9, 0.1, -0.3]))
        oracle = AssociativeOracle(gamma=3.0)
        np.testing.assert_allclose(oracle.predict([e], e.x), e.y, atol=1e-15)

    def test_orthogonal_keys_large_gamma_selects_matching_value(self):
        e1 = Exemplar(id=0, x=np.array([1.0, 0.0]), y=np.array([1.0, 0.0]))
        e2 = Exemplar(id=1, x=np.array([0.0, 1.0]), y=np.array([0.0, 1.0]))
        oracle = AssociativeOracle(gamma=200.0)
        got = oracle.predict([e1, e2], np.array([1.0, 0.0]))
        np.testing.assert_allclose(got, e1.y, atol=1e-12)

    def test_matches_reference_retrieval(self):
        spec = make_task("prototype-completion", 4, 3, 0.1, seed=9)
        pool, queries = generate_pool(spec, 10, seed=9, n_queries=1)
        context = list(pool)[:4]
        oracle = AssociativeOracle(gamma=8.0, y_dim=spec.y_dim)
        got = oracle.predict(context, queries[0].x)
        expected = reference_single_retrieval(context, queries[0].x, gamma=8.0)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_zero_context_is_zero_vector(self):
        oracle = AssociativeOracle(gamma=1.0, y_dim=3)
        np.testing.assert_array_equal(oracle.predict([], np.ones(5)), np.zeros(3))
        with pytest.raises(OracleFailure):
            AssociativeOracle(gamma=1.0).predict([], np.ones(5))

    def test_predict_consistent_with_batch(self):
        spec = make_benchmark_task(p=4, d=8)
        pool, queries = generate_pool(spec, 10, seed=3, n_queries=6)
        context = list(pool)[:3]
        oracle = AssociativeOracle(gamma=2.0, y_dim=spec.y_dim)
        batch = oracle.predict_many(context, np.stack([q.x for q in queries]))
        for row, q in zip(batch, queries):
            np.testing.assert_allclose(row, oracle.predict(context, q.x), atol=1e-13)

    def test_determinism_bit_identical(self):
        spec = make_benchmark_task(p=4, d=8)
        pool, queries = generate_pool(spec, 10, seed=3, n_queries=1)
        oracle = AssociativeOracle(gamma=2.0, y_dim=spec.y_dim)
        a = oracle.predict(list(pool)[:5], queries[0].x)
        b = oracle.predict(list(pool)[:5], queries[0].x)
        assert np.array_equal(a, b)

    def test_zero_noise_high_gamma_recovers_prototype(self):
        # With sigma=0 and the query's prototype in context, cosine score
        # reaches 1 - 1e-6 at gamma=50.
        spec = make_task("prototype-completion", 6, 3, 0.0, seed=12)
        pool, queries = generate_pool(spec, 30, seed=12, n_queries=10)
        oracle = AssociativeOracle(gamma=50.0, y_dim=spec.y_dim)
        for q in queries:
            context = [e for e in pool if e.latent_id == q.latent_id][:1]
            context += [e for e in pool if e.latent_id != q.latent_id][:3]
            got = oracle.predict(context, q.x)
            assert cosine_score(got, q.y) >= 1 - 1e-6

    def test_zero_context_scores_below_prototype_context(self):
        spec = make_benchmark_task(p=4, d=8)
        pool, queries = generate_pool(spec, 20, seed=7, n_queries=10)
        oracle = AssociativeOracle(gamma=2.0, y_dim=spec.y_dim)
        for q in queries:
            zero_pred = oracle.predict([], q.x)
            with pytest.raises(ValueError):
                cosine_score(zero_pred, q.y)  # zero vector: scored as 0 by harnesses
            context = [e for e in pool if e.latent_id == q.latent_id][:2]
            assert cosine_score(oracle.predict(context, q.x), q.y) > 0.0

    def test_custom_projections_must_be_square(self):
        e = Exemplar(id=0, x=np.zeros(2), y=np.zeros(2))
        oracle = AssociativeOracle(gamma=1.0, xi_q=np.ones((3, 2)), xi_k=np.ones((3, 2)))
        with pytest.raises(ValueError):
            oracle.predict([e], np.zeros(2))


class TestBenchmarkGeometry:
    def test_hub_key_dominates_and_values_share_component(self):
        spec = make_benchmark_task(p=5, d=16, hub_gain=60.0, shared_weight=0.4)
        keys = spec.prototypes[:, :8]
        values = spec.prototypes[:, 8:]
        assert np.linalg.norm(keys[0]) == pytest.approx(60.0)
        for j in range(1, 5):
            assert np.linalg.norm(keys[j]) == pytest.approx(1.0)
            assert np.linalg.norm(values[j]) == pytest.approx(1.0, abs=1e-12)
            assert values[j] @ values[0] == pytest.approx(0.4, abs=1e-12)

    def test_tip_values_symmetric(self):
        spec = make_benchmark_task(p=5, d=16, shared_weight=0.4)
        values = spec.prototypes[1:, 8:]
        cross = [values[i] @ values[j] for i in range(4) for j in range(i + 1, 4)]
        assert np.allclose(cross, cross[0])

    def test_rejects_undersized_dimension(self):
        with pytest.raises(ValueError):
            make_benchmark_task(p=5, d=8)


class TestPoolSerialization:
    def test_jsonl_roundtrip(self):
        spec = make_benchmark_task(p=3, d=8)
        pool, _ = generate_pool(spec, 6, seed=11)
        text = pool_to_jsonl(pool)
        back = pool_from_jsonl(text)
        assert back.size == pool.size
        for a, b in zip(pool, back):
            assert a.id == b.id and a.latent_id == b.latent_id
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.y, b.y)

    def test_jsonl_line_schema(self):
        import json

        spec = make_benchmark_task(p=3, d=8)
        pool, _ = generate_pool(spec, 3, seed=11)
        first = json.loads(pool_to_jsonl(pool).splitlines()[0])
        assert set(first) == {"id", "x", "y", "latent_id"}
