"""Selection strategies: sampling procedure, ranking rules, value estimates."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopctx import (
    AssociativeOracle,
    Exemplar,
    ExemplarPool,
    active_select,
    cosine_score,
    estimate_pool_values,
    exact_match,
    generate_pool,
    make_benchmark_task,
    make_task,
    negative_error,
    random_select,
    RemoteOracle,
)
from hopctx import selection
from hopctx.selection import metric_rank, pool_score_matrix, score_contexts, score_rows


def reference_prefix(seed_or_rng, n, k):
    """Independent mirror of the documented sampling procedure: Fisher-Yates
    prefix driven by integers(n - i) draws on a default_rng stream."""
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
    slots = list(range(n))
    for i in range(k):
        j = i + int(rng.integers(n - i))
        slots[i], slots[j] = slots[j], slots[i]
    return slots[:k]


def as_tuple(positions):
    return tuple(np.asarray(positions).tolist())


def vector_pool(n, d=2, seed=5):
    rows = np.random.default_rng(seed).standard_normal((n, 2, d))  # each row's x, then its y
    return ExemplarPool(rows[:, 0], rows[:, 1])


def oracle_pool(n=20, seed=13):
    """Pool plus a matching built-in oracle (2-D keys, 2-D values)."""
    rng = np.random.default_rng(seed)
    protos_x = np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]])
    protos_y = np.array([[1.0, 0.0], [0.0, 1.0], [-0.7, 0.7]])
    latents, xs = np.empty(n, dtype=int), np.empty((n, 2))
    for i in range(n):
        latents[i] = rng.integers(3)
        xs[i] = protos_x[latents[i]] + 0.05 * rng.standard_normal(2)
    return ExemplarPool(xs, protos_y[latents], latents), AssociativeOracle(gamma=4.0, y_dim=2)


def zero_pool(n):
    """A pool of n rows whose values nothing reads."""
    return ExemplarPool(np.zeros((n, 1)), np.zeros((n, 1)))


class TestRandomSelect:
    def test_k_equals_pool_size_returns_everything(self):
        pool = vector_pool(6)
        assert sorted(as_tuple(random_select(pool, 6, seed=0))) == list(range(6))

    def test_deterministic_for_same_seed(self):
        pool = vector_pool(10)
        a = as_tuple(random_select(pool, 4, seed=99))
        b = as_tuple(random_select(pool, 4, seed=99))
        assert a == b

    def test_matches_reference_sampler(self):
        pool = vector_pool(10)
        expected = sorted(reference_prefix(42, 10, 3))
        assert list(as_tuple(random_select(pool, 3, seed=42))) == expected

    def test_chosen_in_pool_order(self):
        pool = vector_pool(25)
        positions = list(as_tuple(random_select(pool, 10, seed=3)))
        assert positions == sorted(positions)

    def test_rejects_out_of_range_k(self):
        pool = vector_pool(4)
        with pytest.raises(ValueError):
            random_select(pool, 0, seed=1)
        with pytest.raises(ValueError):
            random_select(pool, 5, seed=1)

    def test_uniformity_over_seeds(self):
        pool = vector_pool(5)
        counts = np.zeros(5)
        for seed in range(2000):
            for chosen in random_select(pool, 2, seed=seed):
                counts[chosen] += 1
        # Each id should appear ~800 times out of 2000 draws of 2-of-5.
        assert np.all(np.abs(counts - 800) < 100)


class TestSamplePrefix:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 1000), seed=st.integers(0, 2**64 - 1), before=st.integers(0, 2))
    def test_matches_scalar_loop_and_leaves_same_state(self, data, n, seed, before):
        # The k bounds are drawn in one array call: its values, and where it
        # leaves the stream, must be the scalar loop's.  numpy's algorithm for
        # array bounds is an implementation detail, pinned here.  ``before``
        # scalar draws leave half a 64-bit output buffered in some examples.
        k = data.draw(st.integers(0, n))
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for gen in (rng, ref):
            gen.integers(1000, size=before)
        assert selection.sample_prefix(rng, n, k) == reference_prefix(ref, n, k)
        assert rng.bit_generator.state == ref.bit_generator.state


def metric_top(pool, k, query_x, metric="euclidean"):
    """Positions of the k closest exemplars, from a one-query ``metric_rank``."""
    orders, _ = metric_rank(pool, [query_x], metric)
    return as_tuple(orders[0, :k])


class TestMetricSelect:
    def test_exact_match_wins_at_k1(self):
        pool = vector_pool(8)
        assert metric_top(pool, 1, pool.xs[5]) == (5,)

    def test_equidistant_ties_break_by_ascending_id(self):
        angles = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        pool = ExemplarPool(np.column_stack([np.cos(angles), np.sin(angles)]), np.zeros((4, 1)))
        assert metric_top(pool, 2, np.array([0.0, 0.0])) == (0, 1)

    def test_matches_brute_force_sort(self):
        pool = vector_pool(8, seed=5)
        query = np.array([0.25, -0.5])
        brute = sorted(range(8), key=lambda i: (np.linalg.norm(pool.xs[i] - query), i))
        assert list(metric_top(pool, 3, query)) == brute[:3]

    def test_cosine_ranking(self):
        pool = ExemplarPool([[1.0, 0.0], [10.0, 1.0], [0.0, 1.0]], np.zeros((3, 1)))
        assert metric_top(pool, 2, np.array([1.0, 0.0]), metric="cosine") == (0, 1)

    def test_cosine_rejects_zero_vectors(self):
        pool = vector_pool(4)
        with pytest.raises(ValueError):
            metric_rank(pool, [np.zeros(2)], "cosine")

    def test_rejects_unknown_metric_and_bad_query(self):
        pool = vector_pool(4)
        with pytest.raises(ValueError):
            metric_rank(pool, [np.zeros(2)], "manhattan")
        with pytest.raises(ValueError):
            metric_rank(pool, [np.zeros(3)], "euclidean")


def reference_metric_select(pool, k, query_x, metric):
    """Per-query loop the batched ranker must reproduce: closeness of each
    pool x to the query, then a Python sort by (-closeness, position)."""
    query_x = np.asarray(query_x, dtype=np.float64)
    xs = pool.xs
    if metric == "euclidean":
        closeness = -np.linalg.norm(xs - query_x, axis=1)
    else:
        qn = np.linalg.norm(query_x)
        xn = np.linalg.norm(xs, axis=1)
        if qn == 0.0 or np.any(xn == 0.0):
            raise ValueError("cosine metric undefined for zero vectors")
        closeness = (xs @ query_x) / (xn * qn)
    order = sorted(range(pool.size), key=lambda i: (-closeness[i], i))
    return order, [float(closeness[i]).hex() for i in order[:k]]


# Few distinct coordinates, so rows repeat, distances tie and exact matches
# give -0.0 euclidean closeness; plus arbitrary finite values.
coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


def check_rank_against_reference(pool, queries, k, metric):
    """Batched ranker rows and one-query ranker calls both equal the
    reference, bit for bit; a reference ValueError must be raised too."""
    try:
        refs = [reference_metric_select(pool, k, q, metric) for q in queries]
    except ValueError:
        with pytest.raises(ValueError):
            metric_rank(pool, queries, metric)
        return
    orders, closeness = metric_rank(pool, queries, metric)
    assert orders.shape == closeness.shape == (len(queries), pool.size)
    for j, (q, (ref_order, ref_closeness)) in enumerate(zip(queries, refs)):
        one_order, one_closeness = metric_rank(pool, [q], metric)
        for row_order, row_closeness in ((orders[j], closeness[j]), (one_order[0], one_closeness[0])):
            assert row_order.tolist() == ref_order
            assert [float(row_closeness[i]).hex() for i in row_order[:k]] == ref_closeness


class TestMetricRank:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 10), d=st.integers(1, 4),
           metric=st.sampled_from(["euclidean", "cosine"]))
    def test_rows_equal_per_query_select_bitwise(self, data, n, d, metric):
        row = st.lists(coordinate, min_size=d, max_size=d)
        distinct = data.draw(st.lists(row, min_size=1, max_size=n))
        xs = [distinct[data.draw(st.integers(0, len(distinct) - 1))] for _ in range(n)]
        pool = ExemplarPool(xs, np.zeros((n, 1)))
        # Queries include copies of pool rows (exact matches) and fresh rows.
        queries = np.array(data.draw(st.lists(st.one_of(st.sampled_from(xs), row), min_size=1, max_size=4)))
        k = data.draw(st.integers(1, n))
        check_rank_against_reference(pool, queries, k, metric)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_duplicate_rows_and_zero_closeness(self, metric):
        # Duplicated x rows; exact matches give -0.0 euclidean closeness,
        # orthogonal rows 0.0 cosine closeness.
        xs = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        pool = ExemplarPool(xs, np.zeros((6, 1)))
        queries = np.array([[1.0, 0.0], [0.0, -1.0], [-0.0, 2.0]])
        for k in (1, 3, 6):
            check_rank_against_reference(pool, queries, k, metric)
        _, closeness = metric_rank(pool, queries, metric)
        zero = closeness[closeness == 0.0]
        assert zero.size and (metric == "cosine" or np.all(np.signbit(zero)))

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_no_queries_give_empty_rows(self, metric):
        orders, closeness = metric_rank(vector_pool(4), np.zeros((0, 2)), metric)
        assert orders.shape == closeness.shape == (0, 4)
        assert orders.dtype == np.intp and closeness.dtype == np.float64

    def test_cosine_rejects_a_zero_query_anywhere_in_the_batch(self):
        with pytest.raises(ValueError):
            metric_rank(vector_pool(4), np.array([[1.0, 0.0], [0.0, 0.0]]), "cosine")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("metric, query", [
        ("euclidean", [1e200, -1e200]),  # (x - q)^2 overflows to inf
        ("cosine", [1.0, 1.0]),  # ||x|| overflows while x . q stays finite: a closeness of 0, not 1
    ])
    def test_overflowing_closeness_is_rejected(self, metric, query):
        pool = ExemplarPool([[1e200, 1e200], [1.0, 0.0]], np.zeros((2, 1)))
        with pytest.raises(ValueError, match=f"{metric} closeness is not finite"):
            metric_rank(pool, np.array([query]), metric)


class TestValueEstimate:
    def test_constant_score_gives_value_one(self):
        pool, oracle = oracle_pool(6)
        values, failures = estimate_pool_values(pool, pool_score_matrix(pool, oracle, lambda y_hat, y: 1.0))
        assert values.dtype == np.float64 and values.shape == failures.shape == (6,)
        assert np.all(values == 1.0) and np.all(failures == 0)

    def test_pool_of_two_single_term(self):
        pool, oracle = oracle_pool(2)
        values, failures = estimate_pool_values(pool, pool_score_matrix(pool, oracle, cosine_score))
        expected = cosine_score(oracle.predict_pool(pool, [0], pool.xs[1]), pool.ys[1])
        assert values.shape == (2,) and failures[0] == 0
        assert values[0] == pytest.approx(expected, abs=1e-15)

    def test_full_pool_matches_scripted_mean(self):
        pool, oracle = oracle_pool(20, seed=13)
        values, failures = estimate_pool_values(pool, pool_score_matrix(pool, oracle, cosine_score), subsample="all")
        scripted = [cosine_score(oracle.predict_pool(pool, [7], pool.xs[j]), pool.ys[j]) for j in range(20) if j != 7]
        assert len(scripted) == 19 and failures[7] == 0
        assert values[7] == pytest.approx(float(np.mean(scripted)), abs=1e-12)

    def test_oracle_failure_scores_zero_and_counts(self):
        pool, _ = oracle_pool(4)

        class BrokenOracle:
            def predict_pool(self, pool, ids, xs):
                return np.zeros(np.broadcast_shapes(np.shape(ids)[:-1], np.shape(xs)[:-1]) + (2,))

        values, failures = estimate_pool_values(pool, pool_score_matrix(pool, BrokenOracle(), cosine_score))
        assert np.all(values == 0.0)
        assert np.issubdtype(failures.dtype, np.integer) and np.all(failures == 3)

    def test_rejects_tiny_pool_and_bad_subsample(self):
        pool, oracle = oracle_pool(4)
        solo = ExemplarPool(pool.xs[:1], pool.ys[:1])
        solo_matrix, matrix = pool_score_matrix(solo, oracle, cosine_score), pool_score_matrix(pool, oracle, cosine_score)
        with pytest.raises(ValueError):
            estimate_pool_values(solo, solo_matrix)
        with pytest.raises(ValueError):
            estimate_pool_values(pool, matrix, subsample=4)

    @pytest.mark.parametrize("subsample", ["ALL", None, 2.5, True, False, 0, 4, np.int64(4), "2"])
    def test_bad_subsample_is_a_value_error_naming_it(self, subsample):
        pool, oracle = oracle_pool(4)
        matrix = pool_score_matrix(pool, oracle, cosine_score)
        for select in (lambda: estimate_pool_values(pool, matrix, subsample),
                       lambda: active_select(pool, 2, matrix, subsample)):
            with pytest.raises(ValueError, match=r"^subsample must be 'all' or an integer in \[1, 3\], got "):
                select()

    def test_numpy_integer_subsample_equals_int(self):
        pool, oracle = oracle_pool(4)
        matrix = pool_score_matrix(pool, oracle, cosine_score)
        a = estimate_pool_values(pool, matrix, np.int64(2), seed=5)
        b = estimate_pool_values(pool, matrix, 2, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestActiveSelect:
    def test_pool_of_two_picks_higher_single_term_value(self):
        pool, oracle = oracle_pool(2, seed=3)
        matrix = pool_score_matrix(pool, oracle, cosine_score)
        values, _ = estimate_pool_values(pool, matrix)
        assert as_tuple(active_select(pool, 1, matrix)) == (int(np.argmax(values)),)

    def test_dominant_exemplar_ranks_first(self):
        pool = ExemplarPool([[1.0, 0.0]] * 6, [[1.0, 0.0]] * 5 + [[-1.0, 0.0]])
        oracle = AssociativeOracle(gamma=4.0, y_dim=2)
        assert active_select(pool, 1, pool_score_matrix(pool, oracle, cosine_score))[0] != 5

    def test_matches_independent_rerun_of_documented_procedure(self):
        pool, oracle = oracle_pool(20, seed=13)
        chosen = as_tuple(active_select(pool, 5, pool_score_matrix(pool, oracle, cosine_score), subsample=10, seed=13))
        shared = reference_prefix(np.random.default_rng(13), 20, 20)
        values = []
        for i in range(20):
            probe = [j for j in shared if j != i][:10]
            values.append(float(np.mean([cosine_score(oracle.predict_pool(pool, [i], pool.xs[j]), pool.ys[j])
                                         for j in probe])))
        expected = sorted(range(20), key=lambda i: -values[i])[:5]
        assert list(chosen) == expected

    def test_full_subsample_invariant_to_pool_order(self):
        # Each value is the mean over the same other rows in either order, so
        # it moves with its row, up to the order of the sum.
        pool, oracle = oracle_pool(10, seed=2)
        reversed_pool = ExemplarPool(pool.xs[::-1], pool.ys[::-1])
        a, _ = estimate_pool_values(pool, pool_score_matrix(pool, oracle, cosine_score), subsample="all", seed=0)
        b, _ = estimate_pool_values(reversed_pool, pool_score_matrix(reversed_pool, oracle, cosine_score),
                                    subsample="all", seed=0)
        np.testing.assert_allclose(a, b[::-1], rtol=0, atol=1e-12)

    def test_shared_probe_within_one_call(self):
        pool, oracle = oracle_pool(10, seed=4)
        values, _ = estimate_pool_values(pool, pool_score_matrix(pool, oracle, cosine_score), subsample=4, seed=9)
        shared = reference_prefix(np.random.default_rng(9), 10, 10)
        for i, value in enumerate(values):
            probe = [j for j in shared if j != i][:4]
            expected = np.mean([cosine_score(oracle.predict_pool(pool, [i], pool.xs[j]), pool.ys[j]) for j in probe])
            assert value == pytest.approx(float(expected), abs=1e-12)


def reference_pool_values(pool, oracle, score_fn, subsample, seed):
    """The per-probe procedure, one exemplar at a time: shared permutation,
    own position dropped, first ``subsample`` probes in position order, each
    predicted and scored alone by the safe-score rule.  Returns (mean,
    len(pairs), failures) per exemplar."""
    shared = reference_prefix(seed, pool.size, pool.size)
    out = []
    for i in range(pool.size):
        probe = [j for j in shared if j != i]
        if subsample != "all":
            probe = probe[:subsample]
        probe.sort()
        pairs = [score_rows(score_fn, oracle.predict_pool(pool, [i], pool.xs[j]), pool.ys[j]) for j in probe]
        out.append((float(np.mean([s for s, _ in pairs])), len(pairs), sum(not ok for _, ok in pairs)))
    return out


def reference_values_from_matrix(pool, scores, ok, subsample, seed):
    """Per-row loop over a pool score matrix: the shared permutation without
    the row's own position, cut to m probes, in position order, then ``np.mean``."""
    shared = reference_prefix(seed, pool.size, pool.size)
    m = pool.size - 1 if subsample == "all" else subsample
    values, failures = [], []
    for i in range(pool.size):
        probes = sorted([j for j in shared if j != i][:m])
        values.append(np.mean(scores[i, probes]))
        failures.append(sum(not ok[i, j] for j in probes))
    return np.array(values), np.array(failures)


class TestValuesFromMatrix:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1), probe_seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["one", "n-2", "n-1", "all"]))
    def test_matches_per_row_loop(self, n, seed, probe_seed, kind):
        # No oracle: random scores and ok mask.
        rng = np.random.default_rng(seed)
        pool = zero_pool(n)
        scores, ok = rng.standard_normal((n, n)), rng.random((n, n)) < 0.9
        subsample = {"one": 1, "n-2": max(1, n - 2), "n-1": n - 1, "all": "all"}[kind]
        values, failures = estimate_pool_values(pool, (scores, ok), subsample, probe_seed)
        expected_values, expected_failures = reference_values_from_matrix(pool, scores, ok, subsample, probe_seed)
        assert np.array_equal(values.view(np.int64), expected_values.view(np.int64))
        assert np.array_equal(failures, expected_failures)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
           seeds=st.lists(st.integers(0, 2**32 - 1), min_size=4, max_size=9),
           kind=st.sampled_from(["one", "n-1", "all"]), block=st.integers(1, 3), discrete=st.booleans())
    def test_seed_blocks_equal_per_seed_calls(self, n, seed, seeds, kind, block, discrete):
        # The k-study's active gather: several seeds per gather, blocks of
        # ``block`` seeds so the seeds cross block boundaries, and (discrete
        # scores) tied values that rank by position.
        rng = np.random.default_rng(seed)
        pool = zero_pool(n)
        scores = rng.integers(0, 3, (n, n)).astype(np.float64) if discrete else rng.standard_normal((n, n))
        ok = rng.random((n, n)) < 0.9
        subsample = {"one": 1, "n-1": n - 1, "all": "all"}[kind]
        m = n - 1 if subsample == "all" else subsample
        with mock.patch.object(selection, "VALUE_BLOCK_PROBES", block * n * m):
            values, failures = selection._pool_values(pool, (scores, ok), subsample, seeds)
        assert values.shape == failures.shape == (len(seeds), n)
        orders = pool.rank(values)
        for t, probe_seed in enumerate(seeds):
            one_values, one_failures = estimate_pool_values(pool, (scores, ok), subsample, probe_seed)
            expected_values, expected_failures = reference_values_from_matrix(pool, scores, ok, subsample, probe_seed)
            for expected in (one_values, expected_values):
                assert np.array_equal(values[t].view(np.int64), expected.view(np.int64))
            assert np.array_equal(failures[t], one_failures) and np.array_equal(failures[t], expected_failures)
            assert np.array_equal(orders[t], active_select(pool, n, (scores, ok), subsample, probe_seed))


class TestPoolScoreMatrix:
    @given(
        pool_seed=st.integers(0, 2**32 - 1),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
        n=st.integers(2, 24),
        subsample=st.one_of(st.just("all"), st.integers(1, 23)),
        fn=st.sampled_from([cosine_score, negative_error, exact_match, lambda y_hats, ys: y_hats[..., 0]]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matrix_values_equal_per_probe_reference(self, pool_seed, seeds, n, subsample, fn):
        # A few zero targets make cosine scores fail and count as failures.
        rng = np.random.default_rng(pool_seed)
        if subsample != "all":
            subsample = min(subsample, n - 1)
        ys = rng.standard_normal((n, 3))
        ys[rng.random(n) < 0.15] = 0.0
        pool = ExemplarPool(rng.standard_normal((n, 2)), ys)
        oracle = AssociativeOracle(gamma=float(rng.uniform(0.5, 8.0)), y_dim=3)
        matrix = pool_score_matrix(pool, oracle, fn)
        for seed in seeds:
            values, failures = estimate_pool_values(pool, matrix, subsample=subsample, seed=seed)
            assert values.shape == failures.shape == (n,)
            m = n - 1 if subsample == "all" else subsample
            assert list(zip(values, [m] * n, failures)) == \
                reference_pool_values(pool, oracle, fn, subsample, seed)

    def test_entries_are_single_exemplar_scores(self):
        pool, oracle = oracle_pool(8, seed=3)
        scores, ok = pool_score_matrix(pool, oracle, cosine_score)
        assert scores.shape == ok.shape == (8, 8) and ok.all()
        for i in range(8):
            for j in range(8):
                assert scores[i, j] == cosine_score(oracle.predict_pool(pool, [i], pool.xs[j]), pool.ys[j])

    def test_default_builds_the_same_matrix(self):
        pool, oracle = oracle_pool(12, seed=5)
        matrix = pool_score_matrix(pool, oracle, cosine_score)
        a = estimate_pool_values(pool, pool_score_matrix(pool, oracle, cosine_score), subsample=5, seed=3)
        b = estimate_pool_values(pool, matrix, subsample=5, seed=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert as_tuple(active_select(pool, 4, pool_score_matrix(pool, oracle, cosine_score), subsample=5, seed=3)) == \
            as_tuple(active_select(pool, 4, matrix, subsample=5, seed=3))

    def test_rejects_matrix_of_another_pool(self):
        # An 8-exemplar pool's matrix passed with a pool of its last 5
        # exemplars once ranked from unrelated rows: (1, 4), not (3, 0).
        pool8 = vector_pool(8, seed=26)
        oracle = AssociativeOracle(gamma=2.0, y_dim=2)
        matrix8 = pool_score_matrix(pool8, oracle, cosine_score)
        pool5 = ExemplarPool(pool8.xs[3:], pool8.ys[3:])
        scores, ok = pool_score_matrix(pool5, oracle, cosine_score)
        assert as_tuple(active_select(pool5, 2, (scores, ok), subsample=2, seed=7)) == (3, 0)
        with pytest.raises(ValueError, match="matrix"):
            active_select(pool5, 2, matrix8, subsample=2, seed=7)
        for bad in ((scores, ok[:, :4]), (scores[:4], ok), (scores.ravel(), ok)):
            with pytest.raises(ValueError, match="matrix"):
                estimate_pool_values(pool5, bad)


class TestScoreContexts:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 10),
        shape=st.tuples(st.integers(1, 8), st.integers(1, 6), st.integers(1, 4)),
        per_target=st.booleans(),
        block=st.one_of(st.none(), st.integers(1, 12)),
        fn=st.sampled_from([cosine_score, negative_error, exact_match, lambda y_hats, ys: y_hats[..., 0] / ys[..., 0]]),
        one_exemplar=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_entries_equal_safe_score_of_one_prediction(self, seed, n, shape, per_target, block, fn, one_exemplar):
        # Contexts (B, 1, K) or (B, T, K), repeats allowed, and half the time
        # (B, 1, 1), whose prediction the built-in oracle repeats over the
        # targets; a block size below B x T splits the batch.  Zero targets,
        # and zero y rows predicted by one-exemplar contexts, make cosine
        # scores and the custom score fail; a prediction equal to its target
        # scores -0.0.  Each entry is the safe score of that one prediction
        # (0 and not ok where not finite).
        b, t, k = shape
        if one_exemplar:
            k, per_target = 1, False
        rng = np.random.default_rng(seed)
        pool = ExemplarPool(rng.standard_normal((n, 2)), rng.integers(-1, 2, (n, 3)))
        oracle = AssociativeOracle(gamma=float(rng.uniform(0.5, 8.0)), y_dim=3)
        ids = rng.integers(n, size=(b, t if per_target else 1, k))
        xs, ys = rng.standard_normal((t, 2)), rng.integers(-1, 2, (t, 3)).astype(np.float64)
        with mock.patch.object(selection, "POOL_BLOCK_PREDICTIONS", block or selection.POOL_BLOCK_PREDICTIONS):
            scores, ok = score_contexts(pool, oracle, fn, ids, xs, ys)
        assert scores.shape == ok.shape == (b, t)
        for i in range(b):
            for j in range(t):
                ctx = ids[i, j if per_target else 0]
                with np.errstate(all="ignore"):
                    s = fn(oracle.predict_pool(pool, ctx, xs[j]), ys[j])
                expected = (np.float64(s if np.isfinite(s) else 0.0).tobytes(), bool(np.isfinite(s)))
                assert (scores[i, j].tobytes(), ok[i, j]) == expected

    @pytest.mark.parametrize("remote", [False, True])
    @pytest.mark.parametrize("b, t", [(3, 0), (0, 4), (0, 0)])
    def test_no_contexts_or_no_targets_give_empty_scores(self, remote, b, t):
        pool, oracle = oracle_pool(6)
        if remote:
            oracle = RemoteOracle("http://127.0.0.1:1/predict")
        unused = AssertionError("the oracle was asked for an empty batch")
        with mock.patch.object(type(oracle), "predict_pool", side_effect=unused):
            scores, ok = score_contexts(pool, oracle, cosine_score, np.zeros((b, 1, 2), dtype=int), pool.xs[:t],
                                        pool.ys[:t])
        assert scores.shape == ok.shape == (b, t)
        assert scores.dtype == np.float64 and ok.dtype == bool

    @pytest.mark.parametrize("fn", [cosine_score, negative_error, exact_match, lambda y_hats, ys: y_hats[..., 0]])
    @pytest.mark.parametrize("ids", [[[[0, 3, 5]], [[8, 1, 1]]], [[[0, 3], [5, 5]], [[8, 1], [2, 7]]], [[[4]], [[6]]]])
    def test_predict_only_scores_equal_predict_pool_scores(self, fn, ids):
        # ``predict``, the front-end on ``Exemplar`` pairs, asked for one
        # (context, target) at a time and scored alone, gives the scores of
        # the batched predict_pool.
        pool, oracle = oracle_pool(9, seed=4)
        exemplars = [Exemplar(id=i, x=x, y=y) for i, (x, y) in enumerate(zip(pool.xs, pool.ys))]
        xs, ys = pool.xs[:2] + 0.1, np.array([[1.0, 0.5], [0.0, 0.0]])  # cosine fails on the zero target
        ids = np.array(ids)
        scores, ok = score_contexts(pool, oracle, fn, ids, xs, ys)
        one = [[score_rows(fn, oracle.predict([exemplars[i] for i in ids[b, j % ids.shape[1]]], x), y)
                for j, (x, y) in enumerate(zip(xs, ys))] for b in range(len(ids))]
        assert scores.tobytes() == np.array([[s for s, _ in row] for row in one]).tobytes()
        assert ok.tolist() == [[bool(flag) for _, flag in row] for row in one]

    @pytest.mark.parametrize("t", [1, 3])
    def test_mis_shaped_pool_predictions_raise(self, t):
        # A predict_pool whose output has an extra axis is not scored as
        # zeros: score_rows names both shapes.
        pool, oracle = oracle_pool(5)

        class ExtraAxisOracle:
            def predict_pool(self, pool, ids, xs):
                return oracle.predict_pool(pool, ids, xs)[..., None, :]

        with pytest.raises(ValueError, match=rf"\(2, {t}, 1, 2\) and targets \(2, {t}, 2\)"):
            score_contexts(pool, ExtraAxisOracle(), cosine_score, np.zeros((2, 1, 1), int), pool.xs[:t], pool.ys[:t])

    @pytest.mark.parametrize("fn", [cosine_score, negative_error, exact_match])
    def test_safe_score_of_non_finite_prediction_does_not_warn(self, fn):
        # The safe-score rule flags an inf or NaN prediction, or one whose
        # norm overflows, without a warning: a non-finite score is 0, not ok.
        for y_hat in ([np.inf, 1.0], [np.nan, 1.0], [1e200, 1e200]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scores, ok = score_rows(fn, np.array([y_hat]), np.ones((1, 2)))
                with np.errstate(all="ignore"):
                    alone = fn(np.array(y_hat), np.ones(2))
            assert (scores[0], ok[0]) == ((alone, True) if np.isfinite(alone) else (0.0, False))




class TestPredictRows:
    """``predict_pool``, which predicts the rows of pool-indexed contexts,
    rejects contexts without positions and queries of another dimension."""

    def test_rejects_empty_context_and_mismatched_query(self):
        pool, oracle = oracle_pool(5)
        with pytest.raises(ValueError, match="at least one pool position"):
            oracle.predict_pool(pool, np.zeros((2, 0), dtype=int), pool.xs[:2])
        with pytest.raises(ValueError, match="dimensions"):
            oracle.predict_pool(pool, [0, 1], np.ones((2, 3)))


def instance_best(pool, query, k, oracle, score_fn):
    """Positions of the k best exemplars on one (x, y) query, ranked the way
    the k-study runner ranks instance-best: the query's column of the score
    matrix, by descending score, ties by ascending position."""
    x, y = (np.asarray(a, dtype=np.float64)[None] for a in query)
    scores, _ = score_contexts(pool, oracle, score_fn, np.arange(pool.size)[:, None, None], x, y)
    return as_tuple(pool.rank(scores[:, 0])[:k])


def sole_context_score(pool, oracle, i, x, y):
    """Cosine score of row i as the sole context on the query (x, y)."""
    return cosine_score(oracle.predict_pool(pool, [i], x), y)


class TestInstanceBest:
    def test_identical_exemplar_chosen(self):
        pool, oracle = oracle_pool(10, seed=6)
        target = (pool.xs[3], pool.ys[3])
        chosen = instance_best(pool, target, 1, oracle, cosine_score)[0]
        assert sole_context_score(pool, oracle, chosen, *target) == pytest.approx(1.0, abs=1e-12)

    def test_all_equal_scores_tie_break_to_smallest_ids(self):
        pool, oracle = oracle_pool(6)
        assert instance_best(pool, (pool.xs[0], pool.ys[0]), 3, oracle, lambda y_hat, y: 0.5) == (0, 1, 2)

    def test_matches_brute_force_ranking(self):
        pool, oracle = oracle_pool(20, seed=13)
        query = (np.array([0.9, 0.1]), np.array([1.0, 0.0]))
        chosen = instance_best(pool, query, 3, oracle, cosine_score)
        scores = [sole_context_score(pool, oracle, i, *query) for i in range(20)]
        expected = sorted(range(20), key=lambda i: -scores[i])[:3]
        assert list(chosen) == expected

    def test_k1_choice_dominates_every_other_strategy(self):
        # Instance-best maximizes the scored objective, so its K=1 pick is at
        # least as good as any other strategy's K=1 pick on the same query.
        pool, oracle = oracle_pool(15, seed=8)
        rng = np.random.default_rng(0)
        for _ in range(10):
            query_x = rng.standard_normal(2)
            query_y = rng.standard_normal(2)
            best = instance_best(pool, (query_x, query_y), 1, oracle, cosine_score)
            best_score = sole_context_score(pool, oracle, best[0], query_x, query_y)
            rivals = [
                random_select(pool, 1, seed=3)[0],
                metric_top(pool, 1, query_x)[0],
                active_select(pool, 1, pool_score_matrix(pool, oracle, cosine_score))[0],
            ]
            for rival in rivals:
                assert best_score >= sole_context_score(pool, oracle, rival, query_x, query_y) - 1e-12


class TestPoolRank:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), rows=st.one_of(st.none(), st.integers(1, 4)))
    def test_matches_python_sort(self, data, n, rows):
        # 1-D scores, or 2-D ranked row by row; ``coordinate`` gives few
        # distinct values, -0.0 and 0.0 among them.
        pool = zero_pool(n)
        shape = (n,) if rows is None else (rows, n)
        size = n * (rows or 1)
        scores = np.array(data.draw(st.lists(coordinate, min_size=size, max_size=size))).reshape(shape)
        orders = pool.rank(scores)
        assert orders.shape == shape
        for s, order in zip(np.atleast_2d(scores), np.atleast_2d(orders)):
            assert order.tolist() == sorted(range(n), key=lambda i: (-s[i], i))


class TestPoolValidation:
    def test_empty_pool_rejected(self):
        # An empty pool is valid as a query set; every selector rejects it.
        pool = zero_pool(0)
        matrix = (np.zeros((0, 0)), np.zeros((0, 0), dtype=bool))
        for select in (lambda: random_select(pool, 1, seed=0), lambda: estimate_pool_values(pool, matrix),
                       lambda: active_select(pool, 1, matrix)):
            with pytest.raises(ValueError):
                select()

    @pytest.mark.parametrize("xs, ys, latents", [
        (np.zeros(3), np.zeros((3, 1)), None),  # x not (N, d_x)
        (np.zeros((3, 2)), np.zeros((3, 1, 1)), None),  # y not (N, d_y)
        (np.zeros((3, 2)), np.zeros((2, 1)), None),  # row counts differ
        (np.zeros((3, 2)), np.zeros((3, 1)), [0, 1]),  # a latent short
        (np.zeros((3, 2)), np.zeros((3, 1)), [[0], [1], [2]]),  # latents not one per row
    ])
    def test_mis_shaped_rows_rejected(self, xs, ys, latents):
        with pytest.raises(ValueError, match="^pool rows must be"):
            ExemplarPool(xs, ys, latents)


def given_rows():
    """x and y rows, and latent ids out of order, negative and far apart."""
    rng = np.random.default_rng(11)
    return rng.standard_normal((5, 3)), rng.standard_normal((5, 2)), np.array([40, -7, 3, 1000, -1])


POOL_CASES = {
    "sparse-ids": lambda: ExemplarPool(*given_rows()),
    "key-value-pool": lambda: generate_pool(make_benchmark_task(p=3, d=8), 12, seed=4, n_queries=5)[0],
    "key-value-queries": lambda: generate_pool(make_benchmark_task(p=3, d=8), 12, seed=4, n_queries=5)[1],
    "prototype-pool": lambda: generate_pool(make_task("prototype-completion", 6, 3, 0.2, seed=1), 9, seed=2)[0],
}


class TestPoolRows:
    @pytest.mark.parametrize("case", sorted(POOL_CASES))
    def test_pool_of_its_exemplars_has_the_same_rows(self, case):
        pool = POOL_CASES[case]()
        rebuilt = ExemplarPool(pool.xs, pool.ys, pool.latents)
        for name in ("xs", "ys", "latents"):
            a, b = getattr(pool, name), getattr(rebuilt, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
            for arr in (a, b):
                assert not arr.flags.writeable and arr.flags.c_contiguous
        assert len(rebuilt) == len(pool) == pool.size

    @pytest.mark.parametrize("case", sorted(POOL_CASES))
    def test_arrays_cannot_be_written(self, case):
        pool = POOL_CASES[case]()
        for arr in (pool.xs, pool.ys, pool.latents):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_row_is_the_exemplar_given(self):
        # The pool keeps its own float64 copy: writing the given arrays later
        # does not change it.
        xs, ys, latents = given_rows()
        pool = ExemplarPool(xs, ys, latents.tolist())
        want = [a.copy() for a in (xs, ys, latents)]
        for a in (xs, ys, latents):
            a[0] = 0
        for got, given in zip((pool.xs, pool.ys, pool.latents), want):
            assert got.tobytes() == given.astype(got.dtype).tobytes()
        assert pool.xs.dtype == pool.ys.dtype == np.float64 and pool.latents.dtype == np.intp
        assert ExemplarPool(xs, ys).latents is None

    def test_generated_rows_are_numbered_from_zero_with_their_latents(self):
        spec = make_benchmark_task(p=3, d=8)
        pool, queries = generate_pool(spec, 12, seed=4, n_queries=5)
        for part in (pool, queries):
            assert part.latents.dtype == np.intp and part.latents.min() >= 0 and part.latents.max() < spec.p
            # Each y row is its latent prototype's value block.
            np.testing.assert_array_equal(part.ys, spec.prototypes[part.latents, 4:])

    def test_no_queries_is_an_empty_query_pool(self):
        _, queries = generate_pool(make_benchmark_task(p=3, d=8), 12, seed=4)
        assert len(queries) == 0 and queries.latents.shape == (0,)
        assert queries.xs.shape == (0, 8) and queries.ys.shape == (0, 4)
