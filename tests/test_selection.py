"""Selection strategies: sampling procedure, ranking rules, value estimates."""

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
    instance_best_select,
    metric_select,
    mode_pattern,
    negative_error,
    random_select,
    value_estimate,
)
from hopctx.selection import pool_score_matrix, safe_score


def reference_prefix(seed_or_rng, n, k):
    """Independent mirror of the documented sampling procedure: Fisher-Yates
    prefix driven by integers(n - i) draws on a default_rng stream."""
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
    slots = list(range(n))
    for i in range(k):
        j = i + int(rng.integers(n - i))
        slots[i], slots[j] = slots[j], slots[i]
    return slots[:k]


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
        result = random_select(pool, 6, seed=0)
        assert sorted(result.chosen) == [e.id for e in pool]

    def test_deterministic_for_same_seed(self):
        pool = vector_pool(10)
        a = random_select(pool, 4, seed=99)
        b = random_select(pool, 4, seed=99)
        assert a == b

    def test_matches_reference_sampler(self):
        pool = vector_pool(10)
        result = random_select(pool, 3, seed=42)
        expected = sorted(pool[i].id for i in reference_prefix(42, 10, 3))
        assert list(result.chosen) == expected

    def test_chosen_in_pool_order(self):
        pool = vector_pool(25)
        result = random_select(pool, 10, seed=3)
        positions = [next(i for i, e in enumerate(pool) if e.id == c) for c in result.chosen]
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
            for chosen in random_select(pool, 2, seed=seed).chosen:
                counts[chosen] += 1
        # Each id should appear ~800 times out of 2000 draws of 2-of-5.
        assert np.all(np.abs(counts - 800) < 100)


class TestMetricSelect:
    def test_exact_match_wins_at_k1(self):
        pool = vector_pool(8)
        target = pool[5]
        result = metric_select(pool, 1, target.x, metric="euclidean")
        assert result.chosen == (target.id,)

    def test_equidistant_ties_break_by_ascending_id(self):
        pool = ExemplarPool([
            Exemplar(id=i, x=np.array([np.cos(a), np.sin(a)]), y=np.zeros(1))
            for i, a in enumerate([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        ])
        result = metric_select(pool, 2, np.array([0.0, 0.0]), metric="euclidean")
        assert result.chosen == (0, 1)

    def test_matches_brute_force_sort(self):
        pool = vector_pool(8, seed=5)
        query = np.array([0.25, -0.5])
        result = metric_select(pool, 3, query, metric="euclidean")
        brute = sorted(pool, key=lambda e: (np.linalg.norm(e.x - query), e.id))
        assert list(result.chosen) == [e.id for e in brute[:3]]

    def test_cosine_ranking(self):
        pool = ExemplarPool([
            Exemplar(id=0, x=np.array([1.0, 0.0]), y=np.zeros(1)),
            Exemplar(id=1, x=np.array([10.0, 1.0]), y=np.zeros(1)),
            Exemplar(id=2, x=np.array([0.0, 1.0]), y=np.zeros(1)),
        ])
        result = metric_select(pool, 2, np.array([1.0, 0.0]), metric="cosine")
        assert result.chosen == (0, 1)

    def test_cosine_rejects_zero_vectors(self):
        pool = vector_pool(4)
        with pytest.raises(ValueError):
            metric_select(pool, 1, np.zeros(2), metric="cosine")

    def test_rejects_unknown_metric_and_bad_query(self):
        pool = vector_pool(4)
        with pytest.raises(ValueError):
            metric_select(pool, 1, np.zeros(2), metric="manhattan")
        with pytest.raises(ValueError):
            metric_select(pool, 1, np.zeros(3), metric="euclidean")


class TestValueEstimate:
    def test_constant_score_gives_value_one(self):
        pool, oracle = oracle_pool(6)
        est = value_estimate(pool[0], pool, oracle, lambda y_hat, y: 1.0)
        assert est.value == 1.0
        assert est.sample_count == 5

    def test_pool_of_two_single_term(self):
        pool, oracle = oracle_pool(2)
        e0, e1 = pool[0], pool[1]
        est = value_estimate(e0, pool, oracle, cosine_score)
        expected = cosine_score(oracle.predict([e0], e1.x), e1.y)
        assert est.sample_count == 1
        assert est.value == pytest.approx(expected, abs=1e-15)

    def test_full_pool_matches_scripted_mean(self):
        pool, oracle = oracle_pool(20, seed=13)
        e = pool[7]
        est = value_estimate(e, pool, oracle, cosine_score, subsample="all", keep_scores=True)
        scripted = [
            cosine_score(oracle.predict([e], other.x), other.y)
            for other in pool
            if other.id != e.id
        ]
        assert est.sample_count == 19
        assert est.value == pytest.approx(float(np.mean(scripted)), abs=1e-12)
        assert est.scores is not None and len(est.scores) == 19

    def test_subsample_probe_matches_documented_procedure(self):
        pool, oracle = oracle_pool(12)
        e = pool[4]
        est = value_estimate(e, pool, oracle, cosine_score, subsample=5, seed=21)
        order = reference_prefix(np.random.default_rng([21, e.id]), 12, 12)
        probe = [pool[i] for i in order if pool[i].id != e.id][:5]
        expected = np.mean([cosine_score(oracle.predict([e], o.x), o.y) for o in probe])
        assert est.sample_count == 5
        assert est.value == pytest.approx(float(expected), abs=1e-12)

    def test_oracle_failure_scores_zero_and_counts(self):
        pool, _ = oracle_pool(4)

        class BrokenOracle:
            def predict(self, exemplars, x):
                return np.zeros(2)

        est = value_estimate(pool[0], pool, BrokenOracle(), cosine_score)
        assert est.value == 0.0
        assert est.failures == est.sample_count == 3

    def test_rejects_tiny_pool_and_bad_subsample(self):
        pool, oracle = oracle_pool(4)
        solo = ExemplarPool([pool[0]])
        with pytest.raises(ValueError):
            value_estimate(pool[0], solo, oracle, cosine_score)
        with pytest.raises(ValueError):
            value_estimate(pool[0], pool, oracle, cosine_score, subsample=4)


class TestActiveSelect:
    def test_pool_of_two_picks_higher_single_term_value(self):
        pool, oracle = oracle_pool(2, seed=3)
        result = active_select(pool, 1, oracle, cosine_score)
        values = {v.exemplar_id: v.value for v in result.diagnostics["values"]}
        best = max(sorted(values), key=lambda i: values[i])
        assert result.chosen == (best,)

    def test_dominant_exemplar_ranks_first(self):
        target = np.array([1.0, 0.0])
        exemplars = [Exemplar(id=i, x=np.array([1.0, 0.0]), y=target.copy()) for i in range(5)]
        exemplars.append(Exemplar(id=5, x=np.array([1.0, 0.0]), y=np.array([-1.0, 0.0])))
        pool = ExemplarPool(exemplars)
        oracle = AssociativeOracle(gamma=4.0, y_dim=2)
        result = active_select(pool, 1, oracle, cosine_score)
        assert result.chosen[0] != 5

    def test_matches_independent_rerun_of_documented_procedure(self):
        pool, oracle = oracle_pool(20, seed=13)
        result = active_select(pool, 5, oracle, cosine_score, subsample=10, seed=13)
        shared = reference_prefix(np.random.default_rng(13), 20, 20)
        values = {}
        for e in pool:
            probe = [pool[i] for i in shared if pool[i].id != e.id][:10]
            values[e.id] = float(np.mean([
                cosine_score(oracle.predict([e], o.x), o.y) for o in probe
            ]))
        expected = sorted(sorted(values), key=lambda i: -values[i])[:5]
        assert list(result.chosen) == expected

    def test_full_subsample_invariant_to_pool_order(self):
        pool, oracle = oracle_pool(10, seed=2)
        reversed_pool = ExemplarPool(list(pool)[::-1])
        a = active_select(pool, 3, oracle, cosine_score, subsample="all", seed=0)
        b = active_select(reversed_pool, 3, oracle, cosine_score, subsample="all", seed=0)
        assert a.chosen == b.chosen

    def test_shared_probe_within_one_call(self):
        pool, oracle = oracle_pool(10, seed=4)
        estimates = estimate_pool_values(pool, oracle, cosine_score, subsample=4, seed=9)
        shared = reference_prefix(np.random.default_rng(9), 10, 10)
        for est in estimates:
            probe_ids = [pool[i].id for i in shared if pool[i].id != est.exemplar_id][:4]
            e = pool.by_id(est.exemplar_id)
            expected = np.mean([
                cosine_score(oracle.predict([e], pool.by_id(pid).x), pool.by_id(pid).y)
                for pid in probe_ids
            ])
            assert est.value == pytest.approx(float(expected), abs=1e-12)


def reference_pool_values(pool, oracle, score_fn, subsample, seed):
    """The per-probe procedure, one exemplar at a time: shared permutation,
    own position dropped, first ``subsample`` probes in id order, each scored
    by ``safe_score``.  Returns (value, sample_count, failures) per exemplar."""
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
            got = estimate_pool_values(pool, oracle, fn, subsample=subsample, seed=seed, matrix=matrix)
            assert [v.exemplar_id for v in got] == [e.id for e in pool]
            assert [(v.value, v.sample_count, v.failures) for v in got] == \
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
        got = estimate_pool_values(pool, oracle, cosine_score, subsample=4, seed=7)
        expected = reference_pool_values(pool, oracle, cosine_score, 4, 7)
        assert [(v.value, v.sample_count, v.failures) for v in got] == expected
        assert sum(v.failures for v in got) > 0

    def test_default_builds_the_same_matrix(self):
        pool, oracle = oracle_pool(12, seed=5)
        matrix = pool_score_matrix(pool, oracle, cosine_score)
        a = active_select(pool, 4, oracle, cosine_score, subsample=5, seed=3)
        b = active_select(pool, 4, oracle, cosine_score, subsample=5, seed=3, matrix=matrix)
        assert a.chosen == b.chosen and a.diagnostics["values"] == b.diagnostics["values"]


class TestInstanceBest:
    def test_identical_exemplar_chosen(self):
        pool, oracle = oracle_pool(10, seed=6)
        target = pool[3]
        result = instance_best_select(pool, (target.x, target.y), 1, oracle, cosine_score)
        chosen = pool.by_id(result.chosen[0])
        assert cosine_score(oracle.predict([chosen], target.x), target.y) == pytest.approx(1.0, abs=1e-12)

    def test_all_equal_scores_tie_break_to_smallest_ids(self):
        pool, oracle = oracle_pool(6)
        result = instance_best_select(
            pool, (pool[0].x, pool[0].y), 3, oracle, lambda y_hat, y: 0.5
        )
        assert result.chosen == (0, 1, 2)

    def test_matches_brute_force_ranking(self):
        pool, oracle = oracle_pool(20, seed=13)
        query = (np.array([0.9, 0.1]), np.array([1.0, 0.0]))
        result = instance_best_select(pool, query, 3, oracle, cosine_score)
        scores = {
            e.id: cosine_score(oracle.predict([e], query[0]), query[1]) for e in pool
        }
        expected = sorted(sorted(scores), key=lambda i: -scores[i])[:3]
        assert list(result.chosen) == expected

    def test_k1_choice_dominates_every_other_strategy(self):
        # Instance-best maximizes the scored objective, so its K=1 pick is at
        # least as good as any other strategy's K=1 pick on the same query.
        pool, oracle = oracle_pool(15, seed=8)
        rng = np.random.default_rng(0)
        for _ in range(10):
            query_x = rng.standard_normal(2)
            query_y = rng.standard_normal(2)
            best = instance_best_select(pool, (query_x, query_y), 1, oracle, cosine_score)
            best_score = cosine_score(oracle.predict([pool.by_id(best.chosen[0])], query_x), query_y)
            rivals = [
                random_select(pool, 1, seed=3).chosen[0],
                metric_select(pool, 1, query_x).chosen[0],
                active_select(pool, 1, oracle, cosine_score).chosen[0],
            ]
            for rival in rivals:
                rival_score = cosine_score(oracle.predict([pool.by_id(rival)], query_x), query_y)
                assert best_score >= rival_score - 1e-12


class TestModePattern:
    def test_all_identical(self):
        p = np.array([1.0, 2.0])
        rep, count = mode_pattern([p, p.copy(), p.copy()], tolerance=1e-9)
        np.testing.assert_array_equal(rep, p)
        assert count == 3

    def test_majority_of_three(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        rep, count = mode_pattern([a, a.copy(), b], tolerance=1e-9)
        np.testing.assert_array_equal(rep, a)
        assert count == 2

    def test_tie_breaks_to_first_occurrence(self):
        a = np.array([1.0])
        b = np.array([2.0])
        rep, count = mode_pattern([b, a, b.copy(), a.copy()], tolerance=1e-9)
        np.testing.assert_array_equal(rep, b)
        assert count == 2

    def test_noisy_prototype_clusters_match_exact_grouping(self):
        rng = np.random.default_rng(31)
        prototypes = [np.array([5.0, 0.0]), np.array([0.0, 5.0]), np.array([-5.0, -5.0])]
        assignments = rng.integers(0, 3, size=50)
        patterns = [prototypes[a] + 1e-8 * rng.standard_normal(2) for a in assignments]
        rep, count = mode_pattern(patterns, tolerance=1e-4)
        counts = np.bincount(assignments, minlength=3)
        best = int(np.argmax(counts))
        assert count == counts[best]
        assert np.linalg.norm(rep - prototypes[best]) < 1e-3

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            mode_pattern([], tolerance=1e-9)


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
