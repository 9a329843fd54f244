"""Selection strategies: sampling procedure, ranking rules, value estimates."""

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
)
from hopctx import selection
from hopctx.selection import metric_rank, pool_score_matrix, safe_score, score_contexts


def reference_prefix(seed_or_rng, n, k):
    """Independent mirror of the documented sampling procedure: Fisher-Yates
    prefix driven by integers(n - i) draws on a default_rng stream."""
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
    slots = list(range(n))
    for i in range(k):
        j = i + int(rng.integers(n - i))
        slots[i], slots[j] = slots[j], slots[i]
    return slots[:k]


def ids_of(pool, positions):
    """The ids at the given pool positions, as a tuple."""
    return tuple(pool.ids[positions].tolist())


def exemplar_by_id(pool, exemplar_id):
    return next(e for e in pool if e.id == exemplar_id)


def vector_pool(n, d=2, seed=5):
    rng = np.random.default_rng(seed)
    return ExemplarPool([
        Exemplar(id=i, x=rng.standard_normal(d), y=rng.standard_normal(d))
        for i in range(n)
    ])


def oracle_pool(n=20, seed=13):
    """Pool plus a matching built-in oracle (2-D keys, 2-D values)."""
    rng = np.random.default_rng(seed)
    protos_x = np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]])
    protos_y = np.array([[1.0, 0.0], [0.0, 1.0], [-0.7, 0.7]])
    exemplars = []
    for i in range(n):
        latent = int(rng.integers(3))
        exemplars.append(Exemplar(
            id=i,
            x=protos_x[latent] + 0.05 * rng.standard_normal(2),
            y=protos_y[latent].copy(),
            latent_id=latent,
        ))
    return ExemplarPool(exemplars), AssociativeOracle(gamma=4.0, y_dim=2)


class TestRandomSelect:
    def test_k_equals_pool_size_returns_everything(self):
        pool = vector_pool(6)
        assert sorted(ids_of(pool, random_select(pool, 6, seed=0))) == [e.id for e in pool]

    def test_deterministic_for_same_seed(self):
        pool = vector_pool(10)
        a = ids_of(pool, random_select(pool, 4, seed=99))
        b = ids_of(pool, random_select(pool, 4, seed=99))
        assert a == b

    def test_matches_reference_sampler(self):
        pool = vector_pool(10)
        expected = sorted(pool[i].id for i in reference_prefix(42, 10, 3))
        assert list(ids_of(pool, random_select(pool, 3, seed=42))) == expected

    def test_chosen_in_pool_order(self):
        pool = vector_pool(25)
        chosen = ids_of(pool, random_select(pool, 10, seed=3))
        positions = [next(i for i, e in enumerate(pool) if e.id == c) for c in chosen]
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
    """Ids of the k closest exemplars, from a one-query ``metric_rank``."""
    orders, _ = metric_rank(pool, [query_x], metric)
    return tuple(pool[i].id for i in orders[0, :k])


class TestMetricSelect:
    def test_exact_match_wins_at_k1(self):
        pool = vector_pool(8)
        target = pool[5]
        assert metric_top(pool, 1, target.x) == (target.id,)

    def test_equidistant_ties_break_by_ascending_id(self):
        pool = ExemplarPool([
            Exemplar(id=i, x=np.array([np.cos(a), np.sin(a)]), y=np.zeros(1))
            for i, a in enumerate([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        ])
        assert metric_top(pool, 2, np.array([0.0, 0.0])) == (0, 1)

    def test_matches_brute_force_sort(self):
        pool = vector_pool(8, seed=5)
        query = np.array([0.25, -0.5])
        brute = sorted(pool, key=lambda e: (np.linalg.norm(e.x - query), e.id))
        assert list(metric_top(pool, 3, query)) == [e.id for e in brute[:3]]

    def test_cosine_ranking(self):
        pool = ExemplarPool([
            Exemplar(id=0, x=np.array([1.0, 0.0]), y=np.zeros(1)),
            Exemplar(id=1, x=np.array([10.0, 1.0]), y=np.zeros(1)),
            Exemplar(id=2, x=np.array([0.0, 1.0]), y=np.zeros(1)),
        ])
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
    pool x to the query, then a Python sort by (-closeness, id)."""
    query_x = np.asarray(query_x, dtype=np.float64)
    xs = np.stack([e.x for e in pool])
    if metric == "euclidean":
        closeness = -np.linalg.norm(xs - query_x, axis=1)
    else:
        qn = np.linalg.norm(query_x)
        xn = np.linalg.norm(xs, axis=1)
        if qn == 0.0 or np.any(xn == 0.0):
            raise ValueError("cosine metric undefined for zero vectors")
        closeness = (xs @ query_x) / (xn * qn)
    order = sorted(range(pool.size), key=lambda i: (-closeness[i], pool[i].id))
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
        ids = data.draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n, unique=True))
        pool = ExemplarPool([Exemplar(id=i, x=x, y=np.zeros(1)) for i, x in zip(ids, xs)])
        # Queries include copies of pool rows (exact matches) and fresh rows.
        queries = np.array(data.draw(st.lists(st.one_of(st.sampled_from(xs), row), min_size=1, max_size=4)))
        k = data.draw(st.integers(1, n))
        check_rank_against_reference(pool, queries, k, metric)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_duplicate_rows_and_zero_closeness(self, metric):
        # Duplicated x rows under unsorted, sparse ids; exact matches give
        # -0.0 euclidean closeness, orthogonal rows 0.0 cosine closeness.
        xs = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        pool = ExemplarPool([Exemplar(id=i, x=x, y=np.zeros(1)) for i, x in zip([7, -3, 12, 0, 5, 40], xs)])
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
        pool = ExemplarPool([Exemplar(id=0, x=[1e200, 1e200], y=np.zeros(1)),
                             Exemplar(id=1, x=[1.0, 0.0], y=np.zeros(1))])
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
        e0, e1 = pool[0], pool[1]
        values, failures = estimate_pool_values(pool, pool_score_matrix(pool, oracle, cosine_score))
        expected = cosine_score(oracle.predict([e0], e1.x), e1.y)
        assert values.shape == (2,) and failures[0] == 0
        assert values[0] == pytest.approx(expected, abs=1e-15)

    def test_full_pool_matches_scripted_mean(self):
        pool, oracle = oracle_pool(20, seed=13)
        e = pool[7]
        values, failures = estimate_pool_values(pool, pool_score_matrix(pool, oracle, cosine_score), subsample="all")
        scripted = [
            cosine_score(oracle.predict([e], other.x), other.y)
            for other in pool
            if other.id != e.id
        ]
        assert len(scripted) == 19 and failures[7] == 0
        assert values[7] == pytest.approx(float(np.mean(scripted)), abs=1e-12)

    def test_oracle_failure_scores_zero_and_counts(self):
        pool, _ = oracle_pool(4)

        class BrokenOracle:
            def predict(self, exemplars, x):
                return np.zeros(2)

        values, failures = estimate_pool_values(pool, pool_score_matrix(pool, BrokenOracle(), cosine_score))
        assert np.all(values == 0.0)
        assert np.issubdtype(failures.dtype, np.integer) and np.all(failures == 3)

    def test_rejects_tiny_pool_and_bad_subsample(self):
        pool, oracle = oracle_pool(4)
        solo = ExemplarPool([pool[0]])
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
        values = {e.id: v for e, v in zip(pool, values)}
        best = max(sorted(values), key=lambda i: values[i])
        assert ids_of(pool, active_select(pool, 1, matrix)) == (best,)

    def test_dominant_exemplar_ranks_first(self):
        target = np.array([1.0, 0.0])
        exemplars = [Exemplar(id=i, x=np.array([1.0, 0.0]), y=target.copy()) for i in range(5)]
        exemplars.append(Exemplar(id=5, x=np.array([1.0, 0.0]), y=np.array([-1.0, 0.0])))
        pool = ExemplarPool(exemplars)
        oracle = AssociativeOracle(gamma=4.0, y_dim=2)
        assert ids_of(pool, active_select(pool, 1, pool_score_matrix(pool, oracle, cosine_score)))[0] != 5

    def test_matches_independent_rerun_of_documented_procedure(self):
        pool, oracle = oracle_pool(20, seed=13)
        chosen = ids_of(pool, active_select(pool, 5, pool_score_matrix(pool, oracle, cosine_score), subsample=10, seed=13))
        shared = reference_prefix(np.random.default_rng(13), 20, 20)
        values = {}
        for e in pool:
            probe = [pool[i] for i in shared if pool[i].id != e.id][:10]
            values[e.id] = float(np.mean([
                cosine_score(oracle.predict([e], o.x), o.y) for o in probe
            ]))
        expected = sorted(sorted(values), key=lambda i: -values[i])[:5]
        assert list(chosen) == expected

    def test_full_subsample_invariant_to_pool_order(self):
        pool, oracle = oracle_pool(10, seed=2)
        reversed_pool = ExemplarPool(list(pool)[::-1])
        a = ids_of(pool, active_select(pool, 3, pool_score_matrix(pool, oracle, cosine_score), subsample="all", seed=0))
        b = ids_of(reversed_pool, active_select(reversed_pool, 3, pool_score_matrix(reversed_pool, oracle, cosine_score),
                                                subsample="all", seed=0))
        assert a == b

    def test_shared_probe_within_one_call(self):
        pool, oracle = oracle_pool(10, seed=4)
        values, _ = estimate_pool_values(pool, pool_score_matrix(pool, oracle, cosine_score), subsample=4, seed=9)
        shared = reference_prefix(np.random.default_rng(9), 10, 10)
        for e, value in zip(pool, values):
            probe_ids = [pool[j].id for j in shared if pool[j].id != e.id][:4]
            expected = np.mean([
                cosine_score(oracle.predict([e], exemplar_by_id(pool, pid).x), exemplar_by_id(pool, pid).y)
                for pid in probe_ids
            ])
            assert value == pytest.approx(float(expected), abs=1e-12)


def reference_pool_values(pool, oracle, score_fn, subsample, seed):
    """The per-probe procedure, one exemplar at a time: shared permutation,
    own position dropped, first ``subsample`` probes in id order, each scored
    by ``safe_score``.  Returns (mean, len(pairs), failures) per exemplar."""
    shared = reference_prefix(seed, pool.size, pool.size)
    out = []
    for e in pool:
        probe = [pool[i] for i in shared if pool[i].id != e.id]
        if subsample != "all":
            probe = probe[:subsample]
        probe.sort(key=lambda o: o.id)
        pairs = [safe_score(score_fn, oracle.predict([e], o.x), o.y) for o in probe]
        out.append((float(np.mean([s for s, _ in pairs])), len(pairs), sum(not ok for _, ok in pairs)))
    return out


def reference_values_from_matrix(pool, scores, ok, subsample, seed):
    """Per-row loop over a pool score matrix: the shared permutation without
    the row's own position, cut to m probes, in id order, then ``np.mean``."""
    shared = reference_prefix(seed, pool.size, pool.size)
    m = pool.size - 1 if subsample == "all" else subsample
    values, failures = [], []
    for i in range(pool.size):
        probes = sorted([j for j in shared if j != i][:m], key=lambda j: pool[j].id)
        values.append(np.mean(scores[i, probes]))
        failures.append(sum(not ok[i, j] for j in probes))
    return np.array(values), np.array(failures)


class TestValuesFromMatrix:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1), probe_seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["one", "n-2", "n-1", "all"]))
    def test_matches_per_row_loop(self, n, seed, probe_seed, kind):
        # No oracle: random scores and ok mask, sparse shuffled ids.
        rng = np.random.default_rng(seed)
        ids = rng.choice(10**6, size=n, replace=False)
        pool = ExemplarPool([Exemplar(id=int(i), x=np.zeros(1), y=np.zeros(1)) for i in ids])
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
        # ``block`` seeds so the seeds cross block boundaries, sparse shuffled
        # ids, and (discrete scores) tied values that rank by id.
        rng = np.random.default_rng(seed)
        ids = rng.choice(10**6, size=n, replace=False)
        pool = ExemplarPool([Exemplar(id=int(i), x=np.zeros(1), y=np.zeros(1)) for i in ids])
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
        fn=st.sampled_from([cosine_score, negative_error, exact_match, lambda y_hat, y: float(y_hat[0])]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matrix_values_equal_per_probe_reference(self, pool_seed, seeds, n, subsample, fn):
        # Ids are shuffled and sparse so id order differs from pool order; a
        # few zero targets make cosine scores fail and count as failures.
        rng = np.random.default_rng(pool_seed)
        if subsample != "all":
            subsample = min(subsample, n - 1)
        ids = rng.permutation(10 * n)[:n]
        ys = rng.standard_normal((n, 3))
        ys[rng.random(n) < 0.15] = 0.0
        pool = ExemplarPool([
            Exemplar(id=int(i), x=rng.standard_normal(2), y=y) for i, y in zip(ids, ys)
        ])
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
        for i, e in enumerate(pool):
            for j, other in enumerate(pool):
                assert scores[i, j] == cosine_score(oracle.predict([e], other.x), other.y)

    def test_ragged_predictions_score_row_by_row(self):
        # A duck-typed oracle without predict_many whose predictions differ
        # in length: the mismatched rows count as failures, as per probe.
        pool, _ = oracle_pool(8, seed=2)

        class RaggedOracle:
            def predict(self, exemplars, x):
                return np.ones(x.shape[0] + 1) if x[0] > 0.5 else np.ones(x.shape[0])

        oracle = RaggedOracle()
        values, failures = estimate_pool_values(pool, pool_score_matrix(pool, oracle, cosine_score), subsample=4, seed=7)
        expected = reference_pool_values(pool, oracle, cosine_score, 4, 7)
        assert list(zip(values, [4] * pool.size, failures)) == expected
        assert failures.sum() > 0

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_predictions_with_an_extra_axis_score_zero_not_ok(self, n):
        # A duck-typed oracle without predict_many that returns (1, d_y)
        # rows: none of them scores, at any number of targets.
        pool, _ = oracle_pool(n, seed=2)

        class RowOracle:
            def predict(self, exemplars, x):
                return np.ones((1, 2))

        for fn in (cosine_score, negative_error, exact_match):
            scores, ok = pool_score_matrix(pool, RowOracle(), fn)
            assert scores.shape == ok.shape == (n, n)
            assert not ok.any() and not scores.any()
            assert np.array_equal(score_contexts(pool, RowOracle(), fn, np.zeros((1, 1, 1), int), pool.xs[:1],
                                                 pool.ys[:1])[1], [[False]])

    def test_default_builds_the_same_matrix(self):
        pool, oracle = oracle_pool(12, seed=5)
        matrix = pool_score_matrix(pool, oracle, cosine_score)
        a = estimate_pool_values(pool, pool_score_matrix(pool, oracle, cosine_score), subsample=5, seed=3)
        b = estimate_pool_values(pool, matrix, subsample=5, seed=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert ids_of(pool, active_select(pool, 4, pool_score_matrix(pool, oracle, cosine_score), subsample=5, seed=3)) == \
            ids_of(pool, active_select(pool, 4, matrix, subsample=5, seed=3))

    def test_rejects_matrix_of_another_pool(self):
        # An 8-exemplar pool's matrix passed with a pool of its last 5
        # exemplars once ranked from unrelated rows: (4, 7), not (6, 3).
        pool8 = vector_pool(8, seed=26)
        oracle = AssociativeOracle(gamma=2.0, y_dim=2)
        matrix8 = pool_score_matrix(pool8, oracle, cosine_score)
        pool5 = ExemplarPool(list(pool8)[3:])
        scores, ok = pool_score_matrix(pool5, oracle, cosine_score)
        assert ids_of(pool5, active_select(pool5, 2, (scores, ok), subsample=2, seed=7)) == (6, 3)
        with pytest.raises(ValueError, match="matrix"):
            active_select(pool5, 2, matrix8, subsample=2, seed=7)
        for bad in ((scores, ok[:, :4]), (scores[:4], ok), (scores.ravel(), ok)):
            with pytest.raises(ValueError, match="matrix"):
                estimate_pool_values(pool5, bad)


class PredictOnly:
    """An oracle with only the documented ``predict`` of the one it wraps."""

    def __init__(self, oracle):
        self.predict = oracle.predict


class TestScoreContexts:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 10),
        shape=st.tuples(st.integers(1, 8), st.integers(1, 6), st.integers(1, 4)),
        per_target=st.booleans(),
        block=st.one_of(st.none(), st.integers(1, 12)),
        fn=st.sampled_from([cosine_score, negative_error, exact_match, lambda y_hat, y: float(y_hat[0]) / float(y[0])]),
        predict_only=st.booleans(),
        one_exemplar=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_entries_equal_safe_score_of_one_prediction(self, seed, n, shape, per_target, block, fn, predict_only,
                                                        one_exemplar):
        # Contexts (B, 1, K) or (B, T, K), repeats allowed, and half the time
        # (B, 1, 1), whose prediction the built-in oracle repeats over the
        # targets; a block size below B x T splits the batch.  Zero targets,
        # and zero y rows predicted by one-exemplar contexts, make cosine
        # scores and the custom score fail; a prediction equal to its target
        # scores -0.0.
        b, t, k = shape
        if one_exemplar:
            k, per_target = 1, False
        rng = np.random.default_rng(seed)
        pool = ExemplarPool([Exemplar(id=int(i), x=rng.standard_normal(2), y=rng.integers(-1, 2, 3))
                             for i in rng.permutation(3 * n)[:n]])
        oracle = AssociativeOracle(gamma=float(rng.uniform(0.5, 8.0)), y_dim=3)
        ids = rng.integers(n, size=(b, t if per_target else 1, k))
        xs, ys = rng.standard_normal((t, 2)), rng.integers(-1, 2, (t, 3)).astype(np.float64)
        with mock.patch.object(selection, "POOL_BLOCK_PREDICTIONS", block or selection.POOL_BLOCK_PREDICTIONS):
            scores, ok = score_contexts(pool, PredictOnly(oracle) if predict_only else oracle, fn, ids, xs, ys)
        assert scores.shape == ok.shape == (b, t)
        for i in range(b):
            for j in range(t):
                ctx = ids[i, j if per_target else 0]
                s, s_ok = safe_score(fn, oracle.predict([pool[c] for c in ctx], xs[j]), ys[j])
                assert (scores[i, j].tobytes(), ok[i, j]) == (np.float64(s).tobytes(), s_ok)

    @pytest.mark.parametrize("predict_only", [False, True])
    @pytest.mark.parametrize("b, t", [(3, 0), (0, 4), (0, 0)])
    def test_no_contexts_or_no_targets_give_empty_scores(self, predict_only, b, t):
        pool, oracle = oracle_pool(6)
        unused = AssertionError("the oracle was asked for an empty batch")
        with mock.patch.object(AssociativeOracle, "predict", side_effect=unused), \
                mock.patch.object(AssociativeOracle, "predict_pool", side_effect=unused):
            scores, ok = score_contexts(pool, PredictOnly(oracle) if predict_only else oracle, cosine_score,
                                        np.zeros((b, 1, 2), dtype=int), pool.xs[:t], pool.ys[:t])
        assert scores.shape == ok.shape == (b, t)
        assert scores.dtype == np.float64 and ok.dtype == bool


    def test_predict_only_oracle_is_asked_per_broadcast_row_in_c_order(self):
        # Each prediction is scored against its own target before the next
        # is asked for.
        pool = vector_pool(4)
        calls = []

        class RecordingOracle:
            def predict(self, exemplars, x):
                calls.append(("predict", [e.id for e in exemplars], x.tolist()))
                return np.array([float(len(calls))])

        def score(y_hat, y):
            calls.append(("score", y_hat.tolist(), y.tolist()))
            return float(y_hat[0])

        ids = np.array([[[0, 1]], [[2, 3]]])  # (2, 1, K): broadcast against 3 targets
        xs, ys = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), np.array([[4.0], [5.0], [6.0]])
        scores, ok = score_contexts(pool, RecordingOracle(), score, ids, xs, ys)
        predicts, scored = calls[::2], calls[1::2]
        assert [c[:2] for c in predicts] == [("predict", [0, 1])] * 3 + [("predict", [2, 3])] * 3
        assert [c[2] for c in predicts] == xs.tolist() * 2
        assert scored == [("score", [2.0 * r + 1.0], ys[r % 3].tolist()) for r in range(6)]
        assert scores.tolist() == [[1.0, 3.0, 5.0], [7.0, 9.0, 11.0]] and ok.all()

    @pytest.mark.parametrize("fn", [cosine_score, negative_error, exact_match, lambda y_hat, y: float(y_hat[0])])
    @pytest.mark.parametrize("ids", [[[[0, 3, 5]], [[8, 1, 1]]], [[[0, 3], [5, 5]], [[8, 1], [2, 7]]], [[[4]], [[6]]]])
    def test_predict_only_scores_equal_predict_pool_scores(self, fn, ids):
        pool, oracle = oracle_pool(9, seed=4)
        xs, ys = pool.xs[:2] + 0.1, np.array([[1.0, 0.5], [0.0, 0.0]])  # cosine fails on the zero target
        scores, ok = score_contexts(pool, oracle, fn, np.array(ids), xs, ys)
        only_scores, only_ok = score_contexts(pool, PredictOnly(oracle), fn, np.array(ids), xs, ys)
        assert scores.tobytes() == only_scores.tobytes() and np.array_equal(ok, only_ok)

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
    """Ids of the k best exemplars on one (x, y) query, ranked the way the
    k-study runner ranks instance-best: the query's column of the score
    matrix, by descending score, ties by ascending id."""
    x, y = (np.asarray(a, dtype=np.float64)[None] for a in query)
    scores, _ = score_contexts(pool, oracle, score_fn, np.arange(pool.size)[:, None, None], x, y)
    return tuple(pool[i].id for i in pool.rank(scores[:, 0])[:k])


class TestInstanceBest:
    def test_identical_exemplar_chosen(self):
        pool, oracle = oracle_pool(10, seed=6)
        target = pool[3]
        chosen = exemplar_by_id(pool, instance_best(pool, (target.x, target.y), 1, oracle, cosine_score)[0])
        assert cosine_score(oracle.predict([chosen], target.x), target.y) == pytest.approx(1.0, abs=1e-12)

    def test_all_equal_scores_tie_break_to_smallest_ids(self):
        pool, oracle = oracle_pool(6)
        assert instance_best(pool, (pool[0].x, pool[0].y), 3, oracle, lambda y_hat, y: 0.5) == (0, 1, 2)

    def test_matches_brute_force_ranking(self):
        pool, oracle = oracle_pool(20, seed=13)
        query = (np.array([0.9, 0.1]), np.array([1.0, 0.0]))
        chosen = instance_best(pool, query, 3, oracle, cosine_score)
        scores = {
            e.id: cosine_score(oracle.predict([e], query[0]), query[1]) for e in pool
        }
        expected = sorted(sorted(scores), key=lambda i: -scores[i])[:3]
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
            best_score = cosine_score(oracle.predict([exemplar_by_id(pool, best[0])], query_x), query_y)
            rivals = [
                ids_of(pool, random_select(pool, 1, seed=3))[0],
                metric_top(pool, 1, query_x)[0],
                ids_of(pool, active_select(pool, 1, pool_score_matrix(pool, oracle, cosine_score)))[0],
            ]
            for rival in rivals:
                rival_score = cosine_score(oracle.predict([exemplar_by_id(pool, rival)], query_x), query_y)
                assert best_score >= rival_score - 1e-12


class TestPoolRank:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), rows=st.one_of(st.none(), st.integers(1, 4)))
    def test_matches_python_sort(self, data, n, rows):
        # Sparse, unsorted and negative ids; 1-D scores, or 2-D ranked row by
        # row; ``coordinate`` gives few distinct values, -0.0 and 0.0 among them.
        ids = data.draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n, unique=True))
        pool = ExemplarPool([Exemplar(id=i, x=np.zeros(1), y=np.zeros(1)) for i in ids])
        shape = (n,) if rows is None else (rows, n)
        size = n * (rows or 1)
        scores = np.array(data.draw(st.lists(coordinate, min_size=size, max_size=size))).reshape(shape)
        orders = pool.rank(scores)
        assert orders.shape == shape
        for s, order in zip(np.atleast_2d(scores), np.atleast_2d(orders)):
            assert order.tolist() == sorted(range(n), key=lambda i: (-s[i], ids[i]))

    def test_ids_read_only_and_built_once(self):
        pool = ExemplarPool([Exemplar(id=i, x=np.zeros(1), y=np.zeros(1)) for i in (7, -3, 12)])
        assert pool.ids.tolist() == [7, -3, 12]
        assert pool.ids is pool.ids and not pool.ids.flags.writeable

    def test_pairs_read_only_and_built_once(self):
        pool = ExemplarPool([Exemplar(id=i, x=np.full(2, i), y=np.ones(1)) for i in (7, -3, 12)])
        assert pool.pairs.tolist() == [[7, 7, 1], [-3, -3, 1], [12, 12, 1]]
        assert pool.pairs is pool.pairs and not pool.pairs.flags.writeable


class TestPoolValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ExemplarPool([
                Exemplar(id=1, x=np.zeros(2), y=np.zeros(2)),
                Exemplar(id=1, x=np.ones(2), y=np.ones(2)),
            ])

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            ExemplarPool([])


def sparse_exemplars():
    """Ids out of order, negative and far apart; latent ids None or not."""
    rng = np.random.default_rng(11)
    return [Exemplar(id=i, x=rng.standard_normal(3), y=rng.standard_normal(2), latent_id=latent)
            for i, latent in zip((40, -7, 3, 1000, -1), (None, 2, None, 0, 5))]


POOL_CASES = {
    "sparse-ids": lambda: ExemplarPool(sparse_exemplars()),
    "key-value-pool": lambda: generate_pool(make_benchmark_task(p=3, d=8), 12, seed=4, n_queries=5)[0],
    "key-value-queries": lambda: generate_pool(make_benchmark_task(p=3, d=8), 12, seed=4, n_queries=5)[1],
    "prototype-pool": lambda: generate_pool(make_task("prototype-completion", 6, 3, 0.2, seed=1), 9, seed=2)[0],
}


class TestPoolRows:
    @pytest.mark.parametrize("case", sorted(POOL_CASES))
    def test_pool_of_its_exemplars_has_the_same_rows(self, case):
        pool = POOL_CASES[case]()
        rebuilt = ExemplarPool(list(pool))
        for name in ("ids", "xs", "ys", "pairs"):
            a, b = getattr(pool, name), getattr(rebuilt, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
            for arr in (a, b):
                assert not arr.flags.writeable and arr.flags.c_contiguous
        assert [e.latent_id for e in rebuilt] == [e.latent_id for e in pool]
        assert len(rebuilt) == len(pool) == pool.size

    @pytest.mark.parametrize("case", sorted(POOL_CASES))
    def test_arrays_cannot_be_written(self, case):
        pool = POOL_CASES[case]()
        for arr in (pool.ids, pool.xs, pool.ys, pool.pairs, pool[0].x, pool[0].y):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_row_is_the_exemplar_given(self):
        given = sparse_exemplars()
        pool = ExemplarPool(given)
        for i, g in enumerate(given):
            for e in (pool[i], list(pool)[i], pool[i - len(given)]):
                assert (type(e.id), e.id, e.latent_id) == (int, g.id, g.latent_id)
                assert e.x.tobytes() == g.x.tobytes() and e.y.tobytes() == g.y.tobytes()
        with pytest.raises(IndexError):
            pool[len(given)]

    def test_generated_rows_are_numbered_from_zero_with_their_latents(self):
        spec = make_benchmark_task(p=3, d=8)
        pool, queries = generate_pool(spec, 12, seed=4, n_queries=5)
        for part in (pool, queries):
            assert part.ids.tolist() == list(range(len(part)))
            assert all(type(e.latent_id) is int and 0 <= e.latent_id < spec.p for e in part)
            # Each y row is its latent prototype's value block.
            assert all(np.array_equal(e.y, spec.prototypes[e.latent_id, 4:]) for e in part)

    def test_no_queries_is_an_empty_query_pool(self):
        _, queries = generate_pool(make_benchmark_task(p=3, d=8), 12, seed=4)
        assert len(queries) == 0 and list(queries) == []
        assert queries.xs.shape == (0, 8) and queries.ys.shape == (0, 4)
