"""Task generators, score functions, and the built-in associative oracle."""

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
    OracleFailure,
    QueryState,
    TaskSpec,
    cosine_score,
    exact_match,
    generate_pool,
    get_score_fn,
    hnc_retrieve,
    make_benchmark_task,
    make_task,
    negative_error,
)
from hopctx.selection import score_rows


def reference_single_retrieval(cxs, cys, x, gamma):
    """Direct evaluation of the retrieval update on the (x, y) embedding."""
    lam = np.hstack([cxs, cys]).T
    sigma = np.concatenate([x, np.zeros(cys.shape[1])])
    scores = gamma * (sigma @ lam)
    weights = np.exp(scores - scores.max())
    weights /= weights.sum()
    u_new = weights @ lam.T
    return u_new[len(x):]


def reference_pool(spec, n, seed, n_queries):
    """The draw one exemplar at a time: a prototype index, then its x-noise.
    Returns (x, y, latent) triples for the pool and for the queries."""
    rng = np.random.default_rng(seed)

    def draw():
        latent = int(rng.integers(spec.p))
        proto = spec.prototypes[latent]
        if spec.kind == "prototype-completion":
            x, y = proto + spec.noise_sigma * rng.standard_normal(spec.d), proto.copy()
        else:
            half = spec.d // 2
            x = np.concatenate([proto[:half] + spec.noise_sigma * rng.standard_normal(half), np.zeros(half)])
            y = proto[half:].copy()
        return x, y, latent

    return [draw() for _ in range(n)], [draw() for _ in range(n_queries)]


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
        # Undefined for a zero vector: never finite, so score_rows counts it
        # 0 and not ok.
        with np.errstate(all="ignore"):
            for y_hat, y in ((np.zeros(2), np.array([1.0, 0.0])), (np.array([1.0, 0.0]), np.zeros(2))):
                assert not np.isfinite(cosine_score(y_hat, y))

    def test_negative_error(self):
        got = negative_error(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert got == pytest.approx(-1.4142135623730951, abs=1e-12)

    def test_dispatch_by_tag_and_callable(self):
        # A tag resolves to its built-in; any other callable is the batched
        # kernel itself, and a scalar result stands for every row.
        ys = np.array([[1.0, 0.0]])
        assert get_score_fn("exact-match") is exact_match
        assert score_rows(get_score_fn("exact-match"), ys, ys)[0].tolist() == [1.0]
        assert score_rows(lambda a, b: 0.25, ys, ys)[0].tolist() == [0.25]
        with pytest.raises(ValueError):
            get_score_fn("f1")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            negative_error(np.zeros(2), np.zeros(3))


def assert_rows_equal_safe_score(fn, y_hats, ys):
    """The batch equals the safe score of each row alone, bit for bit: ``fn``
    of that one row, or 0 and not ok where it is not finite."""
    scores, ok = score_rows(fn, y_hats, ys)
    d = ys.shape[-1]
    with np.errstate(all="ignore"):
        alone = np.array([fn(y_hat, y) for y_hat, y in zip(y_hats.reshape(-1, d), ys.reshape(-1, d))])
    assert scores.dtype == np.float64 and scores.shape == ok.shape == ys.shape[:-1]
    assert ok.ravel().tolist() == np.isfinite(alone).tolist()
    assert scores.tobytes() == np.where(np.isfinite(alone), alone, 0.0).reshape(ys.shape[:-1]).tobytes()


SCORE_FNS = [cosine_score, exact_match, negative_error]


class TestScoreRows:
    @pytest.mark.parametrize("fn", SCORE_FNS, ids=lambda f: f.__name__)
    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 6), t=st.integers(1, 6), d=st.integers(1, 40),
           repeated=st.sampled_from([(), (0,), (1,), (0, 1)]), broadcast_targets=st.booleans(), wide=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_rows_bitwise_equal_safe_score(self, fn, seed, b, t, d, repeated, broadcast_targets, wide):
        # A (B, T, d) batch whose predictions repeat along the ``repeated``
        # leading axes (stride 0), as predict_pool returns one-exemplar
        # predictions, against targets repeated over B (as score_contexts
        # passes them) or copied.  Rows mix ordinary values, magnitudes near
        # the float64 limits (so norms overflow or underflow), zero rows,
        # exact copies and NaN/inf.
        rng = np.random.default_rng(seed)
        lo, hi = (-320.0, 300.0) if wide else (-3.0, 3.0)
        shape = tuple(1 if axis in repeated else n for axis, n in enumerate((b, t)))
        # Predictions as the oracle returns them: a column slice of a wider array.
        wider = np.zeros(shape + (d + 3,))
        y_hats = wider[..., 3:]
        y_hats[...] = rng.standard_normal(shape + (d,)) * 10.0 ** rng.uniform(lo, hi, size=shape + (1,))
        ys = rng.standard_normal((t, d)) * 10.0 ** rng.uniform(lo, hi, size=(t, 1))
        kind = rng.integers(0, 8, size=shape)
        y_hats[kind == 1] = 0.0
        y_hats[kind == 2, 0] = np.nan
        y_hats[kind == 3, -1] = np.inf
        target_kind = rng.integers(0, 6, size=t)
        ys[target_kind == 1] = 0.0
        ys[target_kind == 2, -1] = np.inf
        ys[target_kind == 3] = np.broadcast_to(y_hats, (b, t, d))[0, target_kind == 3]
        targets = np.broadcast_to(ys, (b, t, d))
        assert_rows_equal_safe_score(fn, np.broadcast_to(y_hats, (b, t, d)),
                                     targets if broadcast_targets else targets.copy())

    @pytest.mark.parametrize("fn", SCORE_FNS + [lambda y_hats, ys: y_hats[..., 0] / ys[..., 0]],
                             ids=lambda f: f.__name__)
    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 6), t=st.integers(1, 6), d=st.integers(1, 8),
           repeated=st.sampled_from([(1,), (0,), (0, 1)]), broadcast_targets=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_repeated_predictions_score_as_their_copies(self, fn, seed, b, t, d, repeated, broadcast_targets):
        # Predictions (B, T, d) that repeat along some leading axes (stride
        # 0), as predict_pool returns one-exemplar predictions, score with
        # the bits and flags of materialised copies.  Rows draw zero norms,
        # exact copies, NaN/inf and magnitudes whose norms overflow; the
        # custom score divides by zero on a zero first entry.
        rng = np.random.default_rng(seed)
        shape = tuple(1 if axis in repeated else n for axis, n in enumerate((b, t)))
        wider = rng.standard_normal(shape + (d + 2,)) * 10.0 ** rng.uniform(-3.0, 300.0, size=shape + (1,))
        distinct = wider[..., 2:]  # a column slice, as the oracle's y block is
        ys = rng.standard_normal((t, d)) * 10.0 ** rng.uniform(-3.0, 300.0, size=(t, 1))
        kind = rng.integers(0, 7, size=shape)
        distinct[kind == 1] = 0.0
        distinct[kind == 2, 0] = np.nan
        distinct[kind == 3, -1] = np.inf
        ys[rng.integers(0, 5, size=t) == 1] = 0.0
        copies = rng.integers(0, 4, size=t) == 1
        ys[copies] = np.broadcast_to(distinct, (b, t, d))[0, copies]
        y_hats = np.broadcast_to(distinct, (b, t, d))
        targets = np.broadcast_to(ys, (b, t, d))  # as score_contexts passes them
        if not broadcast_targets:
            targets = targets.copy()
        scores, ok = score_rows(fn, y_hats, targets)
        want_scores, want_ok = score_rows(fn, np.ascontiguousarray(y_hats), np.ascontiguousarray(targets))
        assert scores.shape == ok.shape == (b, t)
        assert scores.tobytes() == want_scores.tobytes()
        assert ok.tolist() == want_ok.tolist()

    @pytest.mark.parametrize("fn", SCORE_FNS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("t", [1, 3])
    def test_extra_prediction_axis_raises(self, fn, t):
        # (T, 1, d) predictions against (T, d) targets are not broadcast,
        # nor scored as zeros: the error names both shapes.
        with pytest.raises(ValueError, match=rf"\({t}, 1, 2\) and targets \({t}, 2\)"):
            score_rows(fn, np.ones((t, 1, 2)), np.ones((t, 2)))

    @pytest.mark.parametrize("fn", SCORE_FNS + [lambda y_hat, y: 0.25], ids=lambda f: f.__name__)
    def test_shape_mismatch_raises(self, fn):
        with pytest.raises(ValueError, match=r"\(4, 3\) and targets \(4, 2\)"):
            score_rows(fn, np.ones((4, 3)), np.ones((4, 2)))

    @pytest.mark.parametrize("y_hats, ys", [([[1.0, 0.0], [1.0]], [[1.0, 0.0], [1.0, 0.0]]), (1.0, 1.0)],
                             ids=["ragged", "scalar"])
    def test_ragged_or_scalar_input_raises(self, y_hats, ys):
        with pytest.raises(ValueError):
            score_rows(cosine_score, y_hats, ys)

    def test_zero_and_perfect_rows(self):
        y = np.array([[1.0, 0.0], [0.0, 0.0], [3.0, 4.0]])
        scores, ok = score_rows(cosine_score, y, y)
        assert scores.tolist() == [1.0, 0.0, 1.0] and ok.tolist() == [True, False, True]
        scores, ok = score_rows(negative_error, y, y)
        assert scores.tolist() == [0.0, 0.0, 0.0] and ok.all()
        scores, ok = score_rows(exact_match, y, y[::-1])
        assert scores.tolist() == [0.0, 1.0, 0.0] and ok.all()

    def test_user_kernel_non_finite_rows_score_zero_not_ok(self):
        # A user score kernel: a NaN or inf entry, as from a division by
        # zero, is the undefined case.
        def ratio(y_hats, ys):
            return y_hats[..., 0] / ys[..., 0]

        y_hats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-2.0, 0.0], [np.inf, 0.0]])
        ys = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 1.0], [4.0, 3.0], [1.0, 0.0]])
        assert_rows_equal_safe_score(ratio, y_hats, ys)
        scores, ok = score_rows(ratio, y_hats, ys)
        assert scores.tolist() == [0.5, 0.0, 0.0, -0.5, 0.0]
        assert ok.tolist() == [True, False, False, True, False]


class TestTaskSpec:
    @pytest.mark.parametrize("prototypes", [np.ones(3), np.zeros((0, 3)), [[np.nan, 0.0], [1.0, 0.0]],
                                            [[np.inf, 0.0], [1.0, 0.0]]], ids=["1d", "empty", "nan", "inf"])
    def test_rejects_prototypes_not_a_finite_matrix(self, prototypes):
        with pytest.raises(ValueError, match="prototypes must be a finite"):
            TaskSpec("prototype-completion", 2, prototypes, 0.1)

    def test_make_task_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown task kind"):
            make_task("regression", 4, 2, 0.1)

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

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_rejects_negative_or_non_finite_noise(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma must"):
            TaskSpec(kind="prototype-completion", d=2, prototypes=np.eye(2), noise_sigma=sigma)

    def test_warns_when_prototypes_too_close(self):
        protos = np.array([[1.0, 0.0], [1.0, 0.3]])
        with pytest.warns(UserWarning):
            TaskSpec(kind="prototype-completion", d=2, prototypes=protos, noise_sigma=0.2)

    def test_close_prototypes_warning_points_at_the_caller(self):
        # Not at the dataclass-generated __init__, whose file is "<string>".
        protos = np.array([[1.0, 0.0], [1.0, 0.3]])
        with pytest.warns(UserWarning, match="min prototype distance") as record:
            TaskSpec(kind="prototype-completion", d=2, prototypes=protos, noise_sigma=0.2)
        assert [w.filename for w in record] == [__file__]

    def test_close_prototypes_warning_names_the_noise(self):
        # Unit-norm prototypes are at most 2 apart, so noise 1.0 is close.
        with pytest.warns(UserWarning, match=r"<= 4\*noise_sigma \(noise_sigma=1\.0\)"):
            make_task("prototype-completion", 2, 3, 1.0, seed=0)

    def test_dimensions_per_kind(self):
        completion = make_task("prototype-completion", 6, 3, 0.05, seed=1)
        assert completion.d == 6 and completion.y_dim == 6
        kv = make_benchmark_task(p=5, d=16)
        assert kv.d == 16 and kv.y_dim == 8


class TestGeneratePool:
    def test_zero_noise_single_prototype(self):
        spec = make_task("prototype-completion", 4, 1, 0.0, seed=2)
        pool, queries = generate_pool(spec, 10, seed=0, n_queries=3)
        for rows in (pool.xs, pool.ys, queries.ys):
            np.testing.assert_array_equal(rows, np.broadcast_to(spec.prototypes[0], rows.shape))

    def test_deterministic(self):
        spec = make_task("prototype-completion", 5, 3, 0.1, seed=4)
        pool_a, queries_a = generate_pool(spec, 20, seed=9, n_queries=5)
        pool_b, queries_b = generate_pool(spec, 20, seed=9, n_queries=5)
        for a, b in ((pool_a, pool_b), (queries_a, queries_b)):
            for name in ("xs", "ys", "latents"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_latent_counts_in_binomial_band(self):
        # P=3, n=300: 99% band around 100 per prototype is roughly +/-21.
        spec = make_task("prototype-completion", 6, 3, 0.05, seed=9)
        pool, _ = generate_pool(spec, 300, seed=9)
        counts = np.bincount(pool.latents, minlength=3)
        assert np.all(counts >= 79) and np.all(counts <= 121)

    def test_key_value_padding_and_clean_values(self):
        spec = make_benchmark_task(p=3, d=8, noise_sigma=0.1)
        pool, _ = generate_pool(spec, 12, seed=5)
        assert pool.xs.shape == (12, 8)
        np.testing.assert_array_equal(pool.xs[:, 4:], np.zeros((12, 4)))
        np.testing.assert_array_equal(pool.ys, spec.prototypes[pool.latents, 4:])

    @pytest.mark.parametrize("kind", ["prototype-completion", "key-value-association"])
    @pytest.mark.parametrize("noise", [0.0, 0.1, 3.0])
    @pytest.mark.parametrize("n_queries", [0, 7])
    @pytest.mark.parametrize("seed", [0, 90125])
    def test_draw_replays_the_one_at_a_time_draw(self, kind, noise, n_queries, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # noise 3.0 is close to the prototype gap
            spec = make_task(kind, 8, 4, noise, seed=seed)
        pool, queries = generate_pool(spec, 23, seed, n_queries=n_queries)
        ref_pool, ref_queries = reference_pool(spec, 23, seed, n_queries)
        assert len(pool) == 23 and len(queries) == n_queries
        for got, ref in ((pool, ref_pool), (queries, ref_queries)):
            assert got.latents.dtype == np.intp and got.latents.tolist() == [latent for _, _, latent in ref]
            for i, (x, y, _) in enumerate(ref):
                assert got.xs.dtype == x.dtype and got.xs[i].tobytes() == x.tobytes()
                assert got.ys.dtype == y.dtype and got.ys[i].tobytes() == y.tobytes()

    def test_rejects_tiny_pool(self):
        spec = make_task("prototype-completion", 4, 1, 0.0, seed=2)
        with pytest.raises(ValueError):
            generate_pool(spec, 1, seed=0)

    def test_rejects_negative_query_count(self):
        spec = make_task("prototype-completion", 4, 1, 0.0, seed=2)
        with pytest.raises(ValueError, match="n_queries"):
            generate_pool(spec, 4, seed=0, n_queries=-1)


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
        oracle = AssociativeOracle(gamma=8.0, y_dim=spec.y_dim)
        got = oracle.predict_pool(pool, np.arange(4), queries.xs[0])
        expected = reference_single_retrieval(pool.xs[:4], pool.ys[:4], queries.xs[0], gamma=8.0)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_zero_context_is_zero_vector(self):
        oracle = AssociativeOracle(gamma=1.0, y_dim=3)
        np.testing.assert_array_equal(oracle.predict([], np.ones(5)), np.zeros(3))
        with pytest.raises(OracleFailure):
            AssociativeOracle(gamma=1.0).predict([], np.ones(5))

    def test_predict_consistent_with_batch(self):
        spec = make_benchmark_task(p=4, d=8)
        pool, queries = generate_pool(spec, 10, seed=3, n_queries=6)
        context = [Exemplar(id=i, x=pool.xs[i], y=pool.ys[i]) for i in range(3)]
        oracle = AssociativeOracle(gamma=2.0, y_dim=spec.y_dim)
        batch = oracle.predict_many(context, queries.xs)
        for row, x in zip(batch, queries.xs):
            np.testing.assert_allclose(row, oracle.predict(context, x), atol=1e-13)

    def test_one_exemplar_results_are_writable_and_own_their_memory(self):
        # predict_pool may repeat a one-exemplar prediction over its query
        # rows as a read-only view; the public one-context results may not.
        pool, queries = generate_pool(make_benchmark_task(p=4, d=8), 10, seed=5, n_queries=4)
        exemplars = [Exemplar(id=i, x=pool.xs[i], y=pool.ys[i]) for i in range(len(pool))]
        context, oracle = [exemplars[3]], AssociativeOracle(gamma=2.0)
        pattern = np.concatenate([pool.xs[3], pool.ys[3]])
        d = pattern.shape[0]
        model = ContextualHopfield.identity(d, gamma=2.0)
        ctx = ContextSet(pattern[:, None])
        query = QueryState.from_sigma(np.concatenate([queries.xs[0], np.zeros(d - queries.xs.shape[1])]), model)
        results = {
            "predict": oracle.predict(context, queries.xs[0]),
            "predict_many": oracle.predict_many(context, queries.xs),
            "predict_many, two exemplars": oracle.predict_many([exemplars[3], exemplars[5]], queries.xs),
            "hnc_retrieve": hnc_retrieve(model, ctx, query).u_new,
        }
        for name, got in results.items():
            assert got.flags.writeable, name
            for owner in (pool.xs, pool.ys, context[0].x, context[0].y, ctx.lam, query.u):
                assert not np.shares_memory(got, owner), name
        many = results["predict_many"]
        many[0] = np.nan  # each row is its own
        assert not np.isnan(many[1:]).any()

    def test_determinism_bit_identical(self):
        spec = make_benchmark_task(p=4, d=8)
        pool, queries = generate_pool(spec, 10, seed=3, n_queries=1)
        oracle = AssociativeOracle(gamma=2.0, y_dim=spec.y_dim)
        a = oracle.predict_pool(pool, np.arange(5), queries.xs[0])
        b = oracle.predict_pool(pool, np.arange(5), queries.xs[0])
        assert np.array_equal(a, b)

    def test_zero_noise_high_gamma_recovers_prototype(self):
        # With sigma=0 and the query's prototype in context, cosine score
        # reaches 1 - 1e-6 at gamma=50.
        spec = make_task("prototype-completion", 6, 3, 0.0, seed=12)
        pool, queries = generate_pool(spec, 30, seed=12, n_queries=10)
        oracle = AssociativeOracle(gamma=50.0, y_dim=spec.y_dim)
        for x, y, latent in zip(queries.xs, queries.ys, queries.latents):
            context = np.concatenate([np.flatnonzero(pool.latents == latent)[:1],
                                      np.flatnonzero(pool.latents != latent)[:3]])
            assert cosine_score(oracle.predict_pool(pool, context, x), y) >= 1 - 1e-6

    def test_zero_context_scores_below_prototype_context(self):
        spec = make_benchmark_task(p=4, d=8)
        pool, queries = generate_pool(spec, 20, seed=7, n_queries=10)
        oracle = AssociativeOracle(gamma=2.0, y_dim=spec.y_dim)
        for x, y, latent in zip(queries.xs, queries.ys, queries.latents):
            zero_pred = oracle.predict([], x)
            assert score_rows(cosine_score, zero_pred, y) == (0.0, False)  # zero vector: not ok, scored 0
            context = np.flatnonzero(pool.latents == latent)[:2]
            assert cosine_score(oracle.predict_pool(pool, context, x), y) > 0.0

    @staticmethod
    def hnc_rows(exemplars, xs, gamma):
        """hnc_retrieve on the (x, y) embedding, one query at a time."""
        d_x, d_y = xs.shape[1], exemplars[0].y.shape[0]
        model = ContextualHopfield.identity(d_x + d_y, gamma=gamma)
        ctx = ContextSet.from_vectors([np.concatenate([e.x, e.y]) for e in exemplars])
        sigmas = np.hstack([xs, np.zeros((len(xs), d_y))])
        return np.stack([
            hnc_retrieve(model, ctx, QueryState.from_sigma(sigma, model)).u_new[d_x:]
            for sigma in sigmas
        ])

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=80, deadline=None)
    def test_predict_many_rows_equal_hnc_retrieve(self, seed, gamma):
        # The kernel computes each row of a batch with the same one-row BLAS
        # call as hnc_retrieve's single query, so they agree bit for bit.
        rng = np.random.default_rng(seed)
        d_x, d_y = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        exemplars = [
            Exemplar(id=i, x=rng.standard_normal(d_x), y=rng.standard_normal(d_y))
            for i in range(int(rng.integers(1, 20)))
        ]
        xs = rng.standard_normal((int(rng.integers(1, 12)), d_x))
        got = AssociativeOracle(gamma=gamma).predict_many(exemplars, xs)
        np.testing.assert_array_equal(got, self.hnc_rows(exemplars, xs, gamma))

    def test_overflowing_gamma_predicts_limit(self):
        # gamma * scores overflows to inf for the first query; the weights
        # stay finite and equal hnc_retrieve's.
        exemplars = [
            Exemplar(id=0, x=np.array([1.0, 0.0]), y=np.array([2.0])),
            Exemplar(id=1, x=np.array([0.0, 1.0]), y=np.array([-3.0])),
        ]
        xs = np.array([[1e10, 1.0], [0.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = AssociativeOracle(gamma=1e300).predict_many(exemplars, xs)
        np.testing.assert_array_equal(got, [[2.0], [-3.0]])
        np.testing.assert_array_equal(got, self.hnc_rows(exemplars, xs, 1e300))

    def test_rejects_gamma_not_finite_and_positive(self):
        for gamma in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="^gamma must"):
                AssociativeOracle(gamma=gamma)

    def test_predict_many_rejects_bad_queries_and_exemplars(self):
        e = Exemplar(id=0, x=np.array([0.4, -0.2]), y=np.array([0.9, 0.1]))
        oracle = AssociativeOracle(gamma=3.0)
        with pytest.raises(ValueError, match="expected a \\(n, d_x\\) batch"):
            oracle.predict_many([e], np.ones(2))
        with pytest.raises(ValueError, match="context exemplar dimensions"):
            oracle.predict_many([e], np.ones((1, 3)))
        with pytest.raises(ValueError, match="context exemplar dimensions"):
            oracle.predict_many([e, Exemplar(id=1, x=np.ones(2), y=np.ones(3))], np.ones((1, 2)))
        # An exemplar x or y that is not one row.
        for x, y in ((np.array([[0.4, -0.2]]), e.y), (e.x, np.array([[0.9, 0.1]])), (np.array(0.4), e.y)):
            with pytest.raises(ValueError, match=r"^context exemplar dimensions do not match the query$"):
                oracle.predict_many([Exemplar(id=0, x=x, y=y)], np.ones((1, x.size)))
        # An empty context predicts zeros of width y_dim, and needs y_dim.
        with pytest.raises(OracleFailure, match="^zero-context prediction needs y_dim to be configured$"):
            oracle.predict_many([], np.ones((2, 2)))
        zeros = AssociativeOracle(gamma=3.0, y_dim=3).predict_many([], np.ones((2, 2)))
        np.testing.assert_array_equal(zeros, np.zeros((2, 3)))
        assert zeros.flags.writeable and zeros.flags.owndata
        # List rows and int rows are read as the float rows they hold.
        floats = [Exemplar(id=0, x=np.array([1.0, 2.0]), y=np.array([3.0, 4.0])),
                  Exemplar(id=1, x=np.array([2.0, -1.0]), y=np.array([0.0, 1.0]))]
        want = oracle.predict_many(floats, np.array([[1.0, 0.5]]))
        for as_rows in (lambda a: a.tolist(), lambda a: a.astype(np.int64)):
            rows = [Exemplar(id=f.id, x=as_rows(f.x), y=as_rows(f.y)) for f in floats]
            assert oracle.predict_many(rows, [[1.0, 0.5]]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("ragged", ["x", "y"])
    def test_predict_many_rejects_ragged_context_rows(self, ragged):
        # The first exemplar fits the query; the second has one more x or y entry.
        first = Exemplar(id=0, x=np.array([0.4, -0.2]), y=np.array([0.9, 0.1]))
        rows = {"x": np.array([0.3, 0.5]), "y": np.array([0.2, 0.7])}
        rows[ragged] = np.append(rows[ragged], 1.0)
        with pytest.raises(ValueError, match=r"^context exemplar dimensions do not match the query$"):
            AssociativeOracle(gamma=3.0).predict_many([first, Exemplar(id=1, **rows)], np.ones((1, 2)))


class TestBenchmarkGeometry:
    def test_hub_key_dominates_and_values_share_component(self):
        spec = make_benchmark_task(p=5, d=16)
        keys = spec.prototypes[:, :8]
        values = spec.prototypes[:, 8:]
        assert np.linalg.norm(keys[0]) == pytest.approx(60.0)
        for j in range(1, 5):
            assert np.linalg.norm(keys[j]) == pytest.approx(1.0)
            assert np.linalg.norm(values[j]) == pytest.approx(1.0, abs=1e-12)
            assert values[j] @ values[0] == pytest.approx(0.4, abs=1e-12)

    def test_tip_values_symmetric(self):
        spec = make_benchmark_task(p=5, d=16)
        values = spec.prototypes[1:, 8:]
        cross = [values[i] @ values[j] for i in range(4) for j in range(i + 1, 4)]
        assert np.allclose(cross, cross[0])

    def test_rejects_undersized_dimension(self):
        with pytest.raises(ValueError):
            make_benchmark_task(p=5, d=8)

    def test_rejects_one_association_or_odd_dimension(self):
        with pytest.raises(ValueError, match="at least 2 associations"):
            make_benchmark_task(p=1, d=16)
        with pytest.raises(ValueError, match="even d"):
            make_benchmark_task(p=3, d=15)

    def test_two_associations_have_one_rare_value(self):
        # p = 2: one rare value, its single simplex direction the unit vector.
        values = make_benchmark_task(p=2, d=4).prototypes[:, 2:]
        np.testing.assert_array_equal(values, [[1.0, 0.0], [0.4, np.sqrt(1.0 - 0.4**2)]])
