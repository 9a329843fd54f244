"""Config parsing and the three experiment runners."""

import re

import numpy as np
import pytest

from hopctx import (
    AssociativeOracle,
    ContextSet,
    ContextualHopfield,
    ExperimentConfig,
    QueryState,
    active_select,
    cosine_score,
    derive_seed,
    run_bound_sweep,
    run_k_study,
    run_strategy_comparison,
    verify_bound,
)
from hopctx.bounds import bound_report_csv_row
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

    @pytest.mark.parametrize("key, value", [
        ("metric", "manhattan"),
        ("score", "f1"),
        ("oracle.kind", "grpc"),
        ("oracle.gamma", "0"),
        ("oracle.gamma", "-1.5"),
        ("oracle.gamma", "nan"),
        ("pool.size", "1"),
        ("queries.size", "0"),
        ("subsample", "0"),
        ("subsample", "200"),
        ("subsample", "1000000"),
        ("oracle.gamma", "inf"),
        ("bound.gamma_grid", "0.5,inf"),
        ("bound.gamma_grid", "nan"),
        ("bound.gamma_grid", "0"),
        ("bound.m_grid", "0,8"),
        ("bound.dup_fractions", "-0.5"),
        ("bound.dup_fractions", "0,1.5"),
        ("task.noise_sigma", "nan"),
        ("task.noise_sigma", "inf"),
        ("task.noise_sigma", "-0.1"),
        ("bound.instances", "0"),
        ("bound.gamma_grid", ""),
        ("bound.m_grid", ""),
        ("bound.dup_fractions", ""),
        ("strategies", ""),
        ("k_values", ""),
        ("strategies", "random,active,random"),
        ("k_values", "1,1"),
        ("k_values", "1,2,2"),
        ("oracle.endpoint", "localhost:1/predict"),
        ("oracle.endpoint", "ftp://127.0.0.1/predict"),
        ("oracle.endpoint", "http:///predict"),
        ("oracle.endpoint", "http://127.0.0.1:port/predict"),
        ("oracle.endpoint", "http://127.0.0.1:70000/predict"),
        ("oracle.endpoint", "http://127.0.0.1/pre dict"),
        ("pool.size", "abc"),
        ("k_values", "1,x"),
        ("subsample", "ALL"),
        ("oracle.gamma", "fast"),
        ("bound.instances", ""),
        ("seed", "-1"),
        ("task.kind", "bogus"),
        ("task.d", "0"),
        ("task.prototypes", "0"),
        ("task.d", "4"),
        ("task.d", "7"),
        ("task.prototypes", "1"),
    ])
    def test_bad_value_rejected_naming_key(self, key, value):
        mapping = {"k_values": "1", "subsample": "all", key: value}
        with pytest.raises(ValueError, match=rf"^{re.escape(key)} must"):
            ExperimentConfig.from_mapping(mapping)

    def test_zero_d_prototype_task_rejected_naming_key(self):
        with pytest.raises(ValueError, match=r"^task.d must be >= 1"):
            ExperimentConfig.from_mapping({"task.kind": "prototype-completion", "task.d": "0"})

    def test_boundary_values_accepted(self):
        config = ExperimentConfig.from_mapping({
            "pool.size": "2", "queries.size": "1", "k_values": "1,2", "subsample": "1",
            "oracle.gamma": "1e-300", "oracle.kind": "remote", "metric": "cosine", "score": "exact-match",
        })
        assert (config.pool_size, config.subsample, config.metric) == (2, 1, "cosine")
        config = ExperimentConfig.from_mapping({"task.d": "4", "task.prototypes": "2"})
        assert (config.task_d, config.task_prototypes) == (4, 2)
        config = ExperimentConfig.from_mapping({"task.kind": "prototype-completion", "task.d": "1",
                                                "task.prototypes": "1"})
        assert (config.task_d, config.task_prototypes) == (1, 1)

    @pytest.mark.parametrize("endpoint", [
        "http://127.0.0.1:8080/predict", "https://example.com/v1/predict?model=a", "http://[::1]:9/p",
    ])
    def test_http_endpoint_accepted(self, endpoint):
        config = ExperimentConfig.from_mapping({"oracle.kind": "remote", "oracle.endpoint": endpoint})
        assert config.oracle_endpoint == endpoint

    def test_remote_run_without_endpoint_rejected_naming_key(self):
        # The config itself may leave the endpoint empty; the run may not.
        config = small_config(oracle_kind="remote")
        with pytest.raises(ValueError, match=r"^oracle.endpoint must be set"):
            run_k_study(config)

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

    def test_rows_equal_verify_bound_on_the_same_draws(self):
        # The sweep verifies raw patterns.  Drawing its instances again, in
        # its order, and verifying them through the model, context and query
        # objects must give the same CSV rows.
        config = small_config()
        config.bound_instances = 5
        _, csv_text, _ = run_bound_sweep(config)
        expected = []
        for gi, gamma in enumerate(config.bound_gamma_grid):
            for mi, m in enumerate(config.bound_m_grid):
                for di, frac in enumerate(config.bound_dup_fractions):
                    rng = np.random.default_rng(derive_seed(config.seed, 3, gi, mi, di))
                    for j in range(config.bound_instances):
                        d_q = int(rng.integers(2, 9))
                        d_m = d_q + int(rng.integers(0, 3))
                        model = ContextualHopfield(
                            xi_q=rng.standard_normal((d_m, d_q)),
                            xi_k=rng.standard_normal((d_m, d_q)),
                            gamma=gamma,
                        )
                        lam = rng.standard_normal((d_m, m))
                        for i in range(1, max(1, round(frac * m))):
                            lam[:, i] = lam[:, 0]
                        ctx = ContextSet(lam)
                        query = QueryState.from_sigma(rng.standard_normal(d_m), model)
                        dz = rng.uniform(0.0, 1.0) * rng.standard_normal(d_q)
                        report = verify_bound(model, ctx, query, ctx.patterns(model)[:, 0] + dz, target_index=0)
                        row = bound_report_csv_row(f"g{gi}-m{mi}-d{di}-{j}", report)
                        expected.append(",".join(map(str, row)))
        assert csv_text.splitlines()[2:-1] == expected


class TestGammaMonotonicity:
    def test_bound_non_increasing_in_gamma_at_fixed_geometry(self):
        # Positive separation: larger gamma shrinks c and hence the bound.
        from hopctx import ContextSet, ContextualHopfield, QueryState, error_bound, separation

        ctx = ContextSet.from_vectors([[1.0, 0.0], [0.0, 1.0], [0.4, 0.4]])
        bounds_by_gamma = []
        for gamma in (0.5, 1.0, 2.0):
            model = ContextualHopfield.identity(2, gamma=gamma)
            query = QueryState.from_sigma([1.0, 0.0], model)
            sep = separation(query.u, ctx.patterns(model), target_index=0)
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

    def test_csv_does_not_depend_on_prediction_batching(self, monkeypatch):
        configs = [
            # Seed 23 once wrote a different CSV when each query was predicted
            # in its own call: a batched product rounded one row differently.
            ExperimentConfig(strategies=("random", "metric"), trials=1, seed=23),
            small_config(strategies=("active", "instance-best"), trials=2),
        ]
        batched_csvs = [run_k_study(config)[1] for config in configs]
        batched = AssociativeOracle.predict_pool
        rows = []

        def one_row_per_call(self, pool, ids, xs):
            ids, xs = np.asarray(ids), np.asarray(xs)
            batch = np.broadcast_shapes(ids.shape[:-1], xs.shape[:-1])
            ids_rows = np.broadcast_to(ids, batch + ids.shape[-1:]).reshape(-1, ids.shape[-1])
            xs_rows = np.broadcast_to(xs, batch + xs.shape[-1:]).reshape(-1, xs.shape[-1])
            out = np.stack([batched(self, pool, i, x[None, :])[0] for i, x in zip(ids_rows, xs_rows)])
            rows.append(len(out))
            return out.reshape(batch + out.shape[-1:])

        monkeypatch.setattr(AssociativeOracle, "predict_pool", one_row_per_call)
        for config, batched_csv in zip(configs, batched_csvs):
            rows.clear()
            assert run_k_study(config)[1] == batched_csv
            assert max(rows) > 1  # the k-study predicted through predict_pool

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
            context = [pool.by_id(i) for i in direct]
            xs = np.stack([q.x for q in queries])
            y_hats = oracle.predict_many(context, xs)
            expected = [round(float(cosine_score(y_hat, q.y)), 12) for y_hat, q in zip(y_hats, queries)]
            assert list(rec.per_query_scores) == expected

    def test_instance_best_matches_per_query_selector(self):
        from hopctx import AssociativeOracle, generate_pool
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
            # Brute force: every exemplar as the sole context, sorted by (-score, id).
            scores = {e.id: float(cosine_score(oracle.predict([e], q.x), q.y)) for e in pool}
            context = [pool.by_id(i) for i in sorted(sorted(scores), key=lambda i: -scores[i])[:2]]
            expected = round(float(cosine_score(oracle.predict(context, q.x), q.y)), 12)
            assert rec.per_query_scores[j] == expected

    def test_instance_best_orders_match_python_sort(self):
        from hopctx import Exemplar, ExemplarPool

        rng = np.random.default_rng(4)
        ids = [int(i) for i in rng.permutation(40)[:12]]
        pool = ExemplarPool([Exemplar(id=i, x=np.zeros(1), y=np.zeros(1)) for i in ids])
        # Few distinct values, so most scores tie; -0.0 and 0.0 must tie too.
        # The runner ranks instance-best as pool.rank(query_scores.T).
        matrix = rng.choice([0.0, -0.0, 0.5, 1.0], size=(12, 9))
        orders = pool.rank(matrix.T).T
        for j in range(9):
            expected = sorted(range(12), key=lambda i: (-matrix[i, j], ids[i]))
            assert orders[:, j].tolist() == expected

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_metric_records_match_per_trial_selector(self, metric):
        """The once-per-run ranking gives the records of a per-query metric
        sort and a one-row predict per query, trial by trial."""
        from hopctx import AssociativeOracle, generate_pool
        from hopctx.experiments import _build_task

        config = small_config(trials=3, k_values=(1, 2, 4, 30), strategies=("random", "metric"), metric=metric)
        task = _build_task(config)
        pool, queries = generate_pool(
            task, config.pool_size, derive_seed(config.seed, 1), n_queries=config.queries_size
        )
        oracle = AssociativeOracle(gamma=config.oracle_gamma, y_dim=task.y_dim)
        records, _ = run_k_study(config)
        xs = np.stack([e.x for e in pool])
        got = {(r.trial_index, r.k): r for r in records if r.strategy == "metric"}
        assert len(got) == config.trials * len(config.k_values)
        for trial in range(config.trials):
            for k in config.k_values:
                expected = []
                for q in queries:
                    if metric == "euclidean":
                        closeness = -np.linalg.norm(xs - q.x, axis=1)
                    else:
                        closeness = (xs @ q.x) / (np.linalg.norm(xs, axis=1) * np.linalg.norm(q.x))
                    order = sorted(range(pool.size), key=lambda i: (-closeness[i], pool[i].id))
                    y_hat = oracle.predict([pool[i] for i in order[:k]], q.x)
                    expected.append(round(float(cosine_score(y_hat, q.y)), 12))
                rec = got[trial, k]
                assert list(rec.per_query_scores) == expected
                assert rec.mean_score == float(np.mean(expected))
                assert rec.trial_seed == derive_seed(config.seed, 2, trial, 1, k)
                assert rec.per_query_scores == got[0, k].per_query_scores

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

    def test_win_rate_cell_empty_without_random(self):
        config = small_config(trials=3, k_values=(2,), strategies=("metric", "active"))
        summary, csv_text, _ = run_strategy_comparison(config)
        rows = csv_text.splitlines()[2:]
        assert [row.split(",")[0] for row in rows] == ["metric", "active"]
        assert all(row.endswith(",") and row.count(",") == 5 for row in rows)
        assert all("win_rate_vs_random" not in entry for entry in summary["strategies"].values())
