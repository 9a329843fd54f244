"""Config parsing and the three experiment runners."""

import numpy as np
import pytest

from hopctx import (
    ExperimentConfig,
    active_select,
    cosine_score,
    derive_seed,
    run_bound_sweep,
    run_k_study,
    run_strategy_comparison,
)
from hopctx.experiments import parse_config_text


def small_config(**overrides):
    base = dict(
        task_kind="key-value-association",
        task_d=16,
        task_prototypes=5,
        task_noise_sigma=0.1,
        pool_size=30,
        queries_size=12,
        trials=5,
        k_values=(1, 2, 4),
        subsample=10,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_parse_text_and_overrides(self):
        text = """
        # benchmark settings
        task.kind = prototype-completion
        task.d = 6
        k_values = 1, 2, 4
        subsample = all
        trials = 3
        """
        mapping = parse_config_text(text)
        mapping["seed"] = "11"
        config = ExperimentConfig.from_mapping(mapping)
        assert config.task_kind == "prototype-completion"
        assert config.k_values == (1, 2, 4)
        assert config.subsample == "all"
        assert config.seed == 11

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_mapping({"task.shape": "round"})

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("task.kind prototype-completion")

    def test_k_values_must_be_sorted_and_in_range(self):
        with pytest.raises(ValueError):
            ExperimentConfig(k_values=(4, 2))
        with pytest.raises(ValueError):
            ExperimentConfig(k_values=(1, 500), pool_size=100)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(strategies=("greedy",))

    def test_mapping_roundtrip(self):
        config = ExperimentConfig()
        back = ExperimentConfig.from_mapping(config.as_mapping())
        assert back == config

    def test_derive_seed_deterministic_and_order_sensitive(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(3, 2, 1)


class TestBoundSweep:
    def test_full_duplication_cell_bound_equals_instance_error(self):
        config = small_config()
        config.bound_gamma_grid = (1.0,)
        config.bound_m_grid = (4,)
        config.bound_dup_fractions = (1.0,)
        config.bound_instances = 25
        reports, csv_text, summary = run_bound_sweep(config)
        assert summary["violations"] == 0
        for r in reports:
            assert r.t == r.m == 4
            assert r.upper_bound == r.instance_error

    def test_default_grid_row_count_and_summary(self):
        config = small_config()
        config.bound_instances = 5
        reports, csv_text, summary = run_bound_sweep(config)
        assert summary["instances"] == len(reports) == 3 * 3 * 3 * 5
        lines = csv_text.strip().splitlines()
        assert lines[0] == "# hopctx bound-sweep v1"
        assert lines[1].startswith("instance_id,M,t,gamma,")
        assert lines[-1].startswith("# summary")
        assert len(lines) == 2 + len(reports) + 1

    def test_byte_identical_reruns(self):
        config = small_config()
        config.bound_instances = 10
        _, csv_a, _ = run_bound_sweep(config)
        _, csv_b, _ = run_bound_sweep(config)
        assert csv_a == csv_b


class TestGammaMonotonicity:
    def test_bound_non_increasing_in_gamma_at_fixed_geometry(self):
        # Positive separation: larger gamma shrinks c and hence the bound.
        from hopctx import ContextSet, ContextualHopfield, QueryState, error_bound, separation

        ctx = ContextSet.from_vectors([[1.0, 0.0], [0.0, 1.0], [0.4, 0.4]])
        bounds_by_gamma = []
        for gamma in (0.5, 1.0, 2.0):
            model = ContextualHopfield.identity(2, gamma=gamma)
            query = QueryState.from_sigma([1.0, 0.0], model)
            sep = separation(query, ctx, model, target_index=0)
            assert sep.delta_min is not None and sep.delta_min > 0
            report = error_bound(sep, gamma, instance_error=0.05, z_max_norm=1.0)
            bounds_by_gamma.append(report.upper_bound)
        assert bounds_by_gamma[0] >= bounds_by_gamma[1] >= bounds_by_gamma[2]


class TestKStudy:
    def test_mean_matches_per_query_scores_exactly(self):
        records, _ = run_k_study(small_config(trials=2))
        for r in records:
            assert r.mean_score == pytest.approx(float(np.mean(r.per_query_scores)), abs=1e-12)
            assert len(r.per_query_scores) == 12

    def test_byte_identical_reruns(self):
        config = small_config(trials=3)
        _, csv_a = run_k_study(config)
        _, csv_b = run_k_study(config)
        assert csv_a == csv_b

    def test_random_at_full_pool_has_zero_variance(self):
        config = small_config(trials=4, k_values=(30,), strategies=("random",))
        records, _ = run_k_study(config)
        means = {r.mean_score for r in records}
        assert len(means) == 1

    def test_instance_best_at_k1_not_below_random(self):
        config = small_config(trials=5, k_values=(1,), strategies=("random", "instance-best"))
        records, _ = run_k_study(config)
        random_means = [r.mean_score for r in records if r.strategy == "random"]
        best_means = [r.mean_score for r in records if r.strategy == "instance-best"]
        assert np.mean(best_means) >= np.mean(random_means)

    def test_active_records_match_direct_selector(self):
        """Per-trial slicing of one estimate pass equals active_select per K."""
        from hopctx import AssociativeOracle, generate_pool
        from hopctx.experiments import _build_task, derive_seed

        config = small_config(trials=1, strategies=("active",))
        task = _build_task(config)
        pool, queries = generate_pool(
            task, config.pool_size, derive_seed(config.seed, 1), n_queries=config.queries_size
        )
        oracle = AssociativeOracle(gamma=config.oracle_gamma, y_dim=task.y_dim)
        active_seed = derive_seed(config.seed, 2, 0, 2)
        records, _ = run_k_study(config)
        for k in config.k_values:
            direct = active_select(pool, k, oracle, cosine_score, subsample=config.subsample,
                                   seed=active_seed)
            rec = next(r for r in records if r.k == k)
            context = [pool.by_id(i) for i in direct.chosen]
            xs = np.stack([q.x for q in queries])
            y_hats = oracle.predict_many(context, xs)
            expected = [round(float(cosine_score(y_hat, q.y)), 12) for y_hat, q in zip(y_hats, queries)]
            assert list(rec.per_query_scores) == expected

    def test_instance_best_matches_per_query_selector(self):
        from hopctx import AssociativeOracle, generate_pool, instance_best_select
        from hopctx.experiments import _build_task, derive_seed

        config = small_config(trials=1, k_values=(2,), strategies=("instance-best",))
        task = _build_task(config)
        pool, queries = generate_pool(
            task, config.pool_size, derive_seed(config.seed, 1), n_queries=config.queries_size
        )
        oracle = AssociativeOracle(gamma=config.oracle_gamma, y_dim=task.y_dim)
        records, _ = run_k_study(config)
        rec = records[0]
        for j, q in enumerate(queries):
            direct = instance_best_select(pool, (q.x, q.y), 2, oracle, cosine_score)
            context = [pool.by_id(i) for i in direct.chosen]
            expected = round(float(cosine_score(oracle.predict(context, q.x), q.y)), 12)
            assert rec.per_query_scores[j] == expected

    def test_instance_best_orders_match_python_sort(self):
        from hopctx import Exemplar, ExemplarPool
        from hopctx.experiments import _instance_best_orders

        rng = np.random.default_rng(4)
        ids = [int(i) for i in rng.permutation(40)[:12]]
        pool = ExemplarPool([Exemplar(id=i, x=np.zeros(1), y=np.zeros(1)) for i in ids])
        # Few distinct values, so most scores tie; -0.0 and 0.0 must tie too.
        matrix = rng.choice([0.0, -0.0, 0.5, 1.0], size=(12, 9))
        orders = _instance_best_orders(matrix, pool)
        for j in range(9):
            expected = sorted(range(12), key=lambda i: (-matrix[i, j], ids[i]))
            assert orders[:, j].tolist() == expected

    def test_metric_strategy_runs(self):
        config = small_config(trials=2, k_values=(1, 2), strategies=("random", "metric"))
        records, _ = run_k_study(config)
        assert {r.strategy for r in records} == {"random", "metric"}


class TestStrategyComparison:
    def test_full_pool_contexts_are_identical_across_strategies(self):
        config = small_config(
            trials=3, k_values=(30,), strategies=("random", "active"), subsample="all"
        )
        summary, _, _ = run_strategy_comparison(config)
        means = [entry["mean"] for entry in summary["strategies"].values()]
        assert means[0] == pytest.approx(means[1], abs=1e-12)

    def test_zero_noise_single_prototype_reaches_perfect_score(self):
        config = ExperimentConfig(
            task_kind="prototype-completion",
            task_d=6,
            task_prototypes=1,
            task_noise_sigma=0.0,
            pool_size=20,
            queries_size=10,
            oracle_gamma=50.0,
            strategies=("random", "metric", "active"),
            k_values=(1,),
            trials=3,
            subsample="all",
            seed=3,
        )
        summary, _, _ = run_strategy_comparison(config)
        assert summary["strategies"]["metric"]["mean"] >= 1 - 1e-6
        assert summary["strategies"]["active"]["mean"] >= 1 - 1e-6

    def test_outputs_mirror_each_other(self):
        import json

        config = small_config(trials=3, k_values=(2,), strategies=("random", "active"))
        summary, csv_text, json_text = run_strategy_comparison(config)
        parsed = json.loads(json_text)
        assert parsed["k"] == 2
        assert set(parsed["strategies"]) == set(summary["strategies"])
        lines = csv_text.strip().splitlines()
        assert lines[0] == "# hopctx strategy-comparison v1"
        assert len(lines) == 2 + len(summary["strategies"])

    def test_win_rate_against_random_present(self):
        config = small_config(trials=4, k_values=(2,), strategies=("random", "active"))
        summary, _, _ = run_strategy_comparison(config)
        assert 0.0 <= summary["strategies"]["active"]["win_rate_vs_random"] <= 1.0
        assert summary["strategies"]["random"]["win_rate_vs_random"] == 0.5
