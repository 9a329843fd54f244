"""Config parsing and the three experiment runners."""

import csv
import io
import math
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopctx import (
    AssociativeOracle,
    ContextSet,
    ContextualHopfield,
    ExperimentConfig,
    QueryState,
    active_select,
    cosine_score,
    derive_seed,
    experiments,
    run_bound_sweep,
    run_k_study,
    run_strategy_comparison,
    verify_bound,
)
from hopctx.bounds import BOUND_CSV_COLUMNS
from hopctx.experiments import _draw_row, _verify_row, parse_config_text
from hopctx.selection import pool_score_matrix


def k_study_rows(csv_text):
    """The k-study CSV's rows as dicts, after its one comment line."""
    return list(csv.DictReader(csv_text.splitlines()[1:]))


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
        # A bool is not a number, though Python counts it as one.
        ("trials", True),
        ("task.noise_sigma", True),
        ("oracle.gamma", True),
        ("k_values", (True, 2)),
        ("subsample", True),
        ("trials", "0"),
    ])
    def test_bad_value_rejected_naming_key(self, key, value):
        mapping = {"k_values": "1", "subsample": "all", key: value}
        with pytest.raises(ValueError, match=rf"^{re.escape(key)} must"):
            ExperimentConfig.from_mapping(mapping)

    @pytest.mark.parametrize("field, value, expected", [
        ("pool_size", "abc", ValueError("pool.size must be an integer")),
        ("trials", 2.5, ValueError("trials must be an integer")),
        ("k_values", (1, 2.5), ValueError("k_values must be a comma-separated list of integers")),
        ("output", None, ValueError("output must be a string")),
        ("strategies", "random,metric", ("random", "metric")),
        ("task_d", "16", 16),
    ])
    def test_direct_construction_converts_as_a_file_does(self, field, value, expected):
        if isinstance(expected, ValueError):
            with pytest.raises(ValueError, match=rf"^{re.escape(str(expected))}"):
                ExperimentConfig(**{field: value})
        else:
            got = getattr(ExperimentConfig(**{field: value}), field)
            assert (got, type(got)) == (expected, type(expected))

    def test_keys_are_field_names_as_documented(self):
        # A key is its field's name with the first "_" a "." after a section
        # name (test_cli checks that README lists every key, in field order).
        keys = list(ExperimentConfig().as_mapping())
        assert len(keys) == 21
        assert [key.replace(".", "_") for key in keys] == [f.name for f in fields(ExperimentConfig)]

    def test_zero_d_prototype_task_rejected_naming_key(self):
        with pytest.raises(ValueError, match=r"^task.d must be >= 1"):
            ExperimentConfig.from_mapping({"task.kind": "prototype-completion", "task.d": "0"})

    @pytest.mark.parametrize("prototypes", ["2", "3"])
    def test_one_dimensional_prototypes_rejected_naming_key(self, prototypes):
        # Unit-norm prototypes in d = 1 are +1 or -1, so two or more of them
        # may coincide: the config says so before any task is drawn.
        with pytest.raises(ValueError, match=r"^task.d must be >= 2 for prototype-completion"):
            ExperimentConfig.from_mapping({"task.kind": "prototype-completion", "task.d": "1",
                                           "task.prototypes": prototypes})

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

    def test_fields_are_frozen_and_replace_rechecks(self):
        config = ExperimentConfig()
        for f in fields(ExperimentConfig):
            with pytest.raises(FrozenInstanceError):
                setattr(config, f.name, getattr(config, f.name))
        with pytest.raises(ValueError, match=r"^bound\.instances must be >= 1"):
            replace(config, bound_instances=0)

    def test_mapping_roundtrip(self):
        config = ExperimentConfig()
        back = ExperimentConfig.from_mapping(config.as_mapping())
        assert back == config

    def test_derive_seed_deterministic_and_order_sensitive(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(3, 2, 1)


class TestBoundSweep:
    def test_full_duplication_cell_bound_equals_instance_error(self):
        config = small_config(bound_gamma_grid=(1.0,), bound_m_grid=(4,), bound_dup_fractions=(1.0,),
                              bound_instances=25)
        columns, csv_text, summary = run_bound_sweep(config)
        assert summary["violations"] == 0
        assert (columns["t"] == 4).all() and (columns["M"] == 4).all()
        assert (columns["upper_bound"] == columns["instance_error"]).all()

    def test_default_grid_row_count_and_summary(self):
        config = small_config(bound_instances=5)
        columns, csv_text, summary = run_bound_sweep(config)
        assert summary["instances"] == 3 * 3 * 3 * 5
        assert list(columns) == list(BOUND_CSV_COLUMNS)
        assert all(len(a) == summary["instances"] for a in columns.values())
        lines = csv_text.strip().splitlines()
        assert lines[0] == "# hopctx bound-sweep v1"
        assert lines[1].startswith("instance_id,M,t,gamma,")
        assert lines[-1].startswith("# summary")
        assert len(lines) == 2 + summary["instances"] + 1

    def test_byte_identical_reruns(self):
        config = small_config(bound_instances=10)
        _, csv_a, _ = run_bound_sweep(config)
        _, csv_b, _ = run_bound_sweep(config)
        assert csv_a == csv_b

    @staticmethod
    def object_path_rows(config):
        """The sweep's instances drawn again, in its order, with eight Generator
        calls each, verified one at a time through the model, context and query
        objects and written by ``csv.writer``."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
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
                        row = verify_bound(model, ctx, query, ctx.patterns(model)[:, 0] + dz, target_index=0)
                        row = {"M": m, "gamma": gamma, **{name: a.item() for name, a in row.items()}}
                        if row["t"] == m:  # delta_min is NaN in the columns, an empty CSV field
                            row["delta_min"] = None
                        writer.writerow([f"g{gi}-m{mi}-d{di}-{j}"] + [row[name] for name in BOUND_CSV_COLUMNS[1:]])
        return buf.getvalue().splitlines()

    def test_rows_equal_verify_bound_on_the_same_draws(self):
        # The sweep draws a (gamma, M) row with five Generator calls per
        # instance and verifies raw patterns, batched per d_q; the
        # per-instance object path must give the same CSV rows.
        config = small_config(bound_instances=5)
        _, csv_text, _ = run_bound_sweep(config)
        assert csv_text.splitlines()[2:-1] == self.object_path_rows(config)

    def test_rows_equal_verify_bound_at_single_patterns_and_infinite_c(self):
        # M = 1 (t = M, no delta_min, c = 0) and a gamma at which a negative
        # margin sends c, beta and the bound to inf, on the same comparison.
        config = small_config(bound_gamma_grid=(0.5, 1e4), bound_m_grid=(1, 3, 8),
                              bound_dup_fractions=(0.0, 1.0), bound_instances=12)
        columns, csv_text, _ = run_bound_sweep(config)
        assert csv_text.splitlines()[2:-1] == self.object_path_rows(config)
        assert np.any((columns["M"] == 1) & (columns["t"] == 1) & np.isnan(columns["delta_min"])
                      & (columns["c"] == 0.0))
        assert np.any((columns["c"] == math.inf) & (columns["upper_bound"] == math.inf))

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(st.sampled_from([0.5, 2.0, 1e4]), min_size=1, max_size=2, unique=True),
        st.lists(st.sampled_from([1, 2, 3, 8]), min_size=1, max_size=2, unique=True),
        st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=1, max_size=2, unique=True),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_the_eight_call_stream(self, seed, gammas, ms, fracs, instances):
        # One normal block per instance in place of four draws, and random()
        # in place of uniform(0.0, 1.0), keep the stream and the CSV bytes,
        # across M = 1, full duplication and c = inf at gamma 1e4.
        config = small_config(seed=seed, bound_gamma_grid=tuple(gammas), bound_m_grid=tuple(ms),
                              bound_dup_fractions=tuple(fracs), bound_instances=instances)
        _, csv_text, _ = run_bound_sweep(config)
        assert csv_text.splitlines()[2:-1] == self.object_path_rows(config)

    def test_row_raises_the_first_failing_instance(self):
        # A row is verified in one batch per d_q, its cells and d_m groups
        # mixed.  Of two faults, the error raised is the one of the lower row
        # position, as a loop over the row's instances raises: across d_q
        # groups, across d_m groups of one d_q and across the row's cells.
        m, n = 4, 40
        config = small_config(bound_m_grid=(m,), bound_dup_fractions=(0.0, 0.5), bound_instances=n)
        shapes = []  # (d_q, d_m) at each row position, replaying the stream
        for di in range(2):
            rng = np.random.default_rng(derive_seed(config.seed, 3, 0, 0, di))
            for _ in range(n):
                d_q = int(rng.integers(2, 9))
                d_m = d_q + int(rng.integers(0, 3))
                rng.standard_normal(d_m * (2 * d_q + m + 1)), rng.random(), rng.standard_normal(d_q)
                shapes.append((d_q, d_m))
        first = {shape: shapes.index(shape) for shape in set(shapes)}
        # Another d_q than position 0's, before a later instance of position 0's shape.
        other_d_q = next(k for k, s in enumerate(shapes) if s[0] != shapes[0][0])
        pairs = [(other_d_q, next(k for k, s in enumerate(shapes) if s == shapes[0] and k > other_d_q))]
        # Same d_q, a d_m group first seen later than the one of the second fault.
        pairs.append(next((i, j) for j, b in enumerate(shapes) for i, a in enumerate(shapes[:j])
                          if a[0] == b[0] and a[1] != b[1] and first[a] > first[b]))
        # Same shape, in cell 0 and in cell 1.
        pairs.append(next((i, j) for i in range(n) for j in range(n, 2 * n) if shapes[i] == shapes[j]))

        def row_with_faults(faults):
            groups = list(_draw_row(config, 0, 0))
            for k, kind in faults.items():
                pos, u, z, v, u_star = next(g for g in groups if k in g[0])
                i = int(np.searchsorted(pos, k))
                if kind == "score":  # u z overflows
                    u[i], z[i] = 1e300, z[i] * 1e100
                    v[i] = z[i].T
                else:  # ||dz|| overflows, the scores do not
                    u_star[i] = 1e200
            return groups

        for i, j in pairs:
            assert i < j
            for kinds, message in ((("score", "norm"), r"^scores u z are not finite"),
                                   (("norm", "score"), r"^norms are not finite")):
                with pytest.raises(ValueError, match=message):
                    _verify_row(row_with_faults(dict(zip((i, j), kinds))), 2.0)
        columns = _verify_row(list(_draw_row(config, 0, 0)), 2.0)
        assert columns["t"].tolist() == [1] * n + [2] * n  # dup fraction 0.5 of M = 4: t = 2


class TestGammaMonotonicity:
    def test_bound_non_increasing_in_gamma_at_fixed_geometry(self):
        # Positive separation: larger gamma shrinks c and hence the bound.
        ctx = ContextSet.from_vectors([[1.0, 0.0], [0.0, 1.0], [0.4, 0.4]])
        bounds_by_gamma = []
        for gamma in (0.5, 1.0, 2.0):
            model = ContextualHopfield.identity(2, gamma=gamma)
            query = QueryState.from_sigma([1.0, 0.0], model)
            # u* at distance 0.05 from z_0 = (1, 0); ||z_max|| = 1.
            columns = verify_bound(model, ctx, query, [1.0, 0.05], target_index=0)
            assert columns["instance_error"] == 0.05 and columns["z_max_norm"] == 1.0
            assert columns["delta_min"] > 0
            bounds_by_gamma.append(columns["upper_bound"])
        assert bounds_by_gamma[0] >= bounds_by_gamma[1] >= bounds_by_gamma[2]


def _near_tie(k, ulps):
    """A value ``ulps`` floats away from the 12-decimal tie (k + 0.5) / 1e12."""
    bits = np.float64((k + 0.5) / 1e12).view(np.int64) + ulps
    return float(bits.view(np.float64))


# Scores the k-study rounds: cosine-like [0, 1), negative errors, values that
# take the fallback (|s| >= 9e3), tiny values and +-0.0, near ties, any finite.
ROUNDING_CASES = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(-1e4, 0.0),
    st.builds(lambda s, sign: sign * s, st.floats(9e3, 1.7e308), st.sampled_from([1.0, -1.0])),
    st.floats(-1e-9, 1e-9),
    st.sampled_from([0.0, -0.0]),
    st.builds(_near_tie, st.integers(-9 * 10**15, 9 * 10**15), st.integers(-4, 4)),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestRoundScores:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda q: st.lists(
        st.lists(ROUNDING_CASES, min_size=q, max_size=q), min_size=1, max_size=4)))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bit_equal_to_round(self, rows):
        # int64 views tell -0.0 from 0.0; no finite score may warn.
        rounded = experiments._round_scores(np.array(rows))
        expected = np.array([[round(s, 12) for s in row] for row in rows])
        assert np.array_equal(rounded.view(np.int64), expected.view(np.int64))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), q=st.integers(1, 400),
           scale=st.sampled_from([1.0, -1e4]))
    def test_row_means_equal_mean_of_each_row(self, seed, rows, q, scale):
        # The k-study takes each row's mean over the rounded array; it must be
        # the mean of that row's tuple of scores, as recorded.
        rounded = experiments._round_scores(scale * np.random.default_rng(seed).random((rows, q)))
        for row, mean in zip(rounded.tolist(), rounded.mean(axis=1).tolist()):
            assert mean == float(np.mean(tuple(row)))


class TestKStudy:
    def test_mean_matches_per_query_scores_exactly(self):
        scores, csv_text = run_k_study(small_config(trials=2))
        for row in k_study_rows(csv_text):
            per_query = scores[row["strategy"], int(row["k"])][int(row["trial_index"])]
            assert float(row["mean_score"]) == pytest.approx(float(np.mean(per_query)), abs=1e-12)
            assert len(per_query) == int(row["n_queries"]) == 12

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
            batch = np.broadcast_shapes(np.shape(ids)[:-1], np.shape(xs)[:-1])
            ids, xs = (np.broadcast_to(a, batch + np.shape(a)[-1:]) for a in (ids, xs))
            out = np.stack([batched(self, pool, ids[b], xs[b][None, :])[0] for b in np.ndindex(batch)])
            rows.append(len(out))
            return out.reshape(batch + out.shape[-1:])

        monkeypatch.setattr(AssociativeOracle, "predict_pool", one_row_per_call)
        for config, batched_csv in zip(configs, batched_csvs):
            rows.clear()
            assert run_k_study(config)[1] == batched_csv
            assert max(rows) > 1  # the k-study predicted through predict_pool

    def test_random_at_full_pool_has_zero_variance(self):
        config = small_config(trials=4, k_values=(30,), strategies=("random",))
        scores, _ = run_k_study(config)
        means = set(scores["random", 30].mean(axis=1).tolist())
        assert len(means) == 1

    def test_instance_best_at_k1_not_below_random(self):
        config = small_config(trials=5, k_values=(1,), strategies=("random", "instance-best"))
        scores, _ = run_k_study(config)
        assert scores["instance-best", 1].mean(axis=1).mean() >= scores["random", 1].mean(axis=1).mean()

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
        matrix = pool_score_matrix(pool, oracle, cosine_score)
        scores, _ = run_k_study(config)
        for k in config.k_values:
            direct = active_select(pool, k, matrix, subsample=config.subsample, seed=active_seed)
            y_hats = oracle.predict_pool(pool, direct, queries.xs)
            expected = [round(float(cosine_score(y_hat, y)), 12) for y_hat, y in zip(y_hats, queries.ys)]
            assert scores["active", k][0].tolist() == expected

    def test_trial_seed_selects_the_scored_context(self):
        """Each random and active CSV row's trial_seed, passed to its selector,
        gives the context whose rounded per-query scores its trial holds."""
        from hopctx import generate_pool, random_select
        from hopctx.experiments import _build_task

        config = small_config(trials=2, strategies=("random", "active"))
        task = _build_task(config)
        pool, queries = generate_pool(
            task, config.pool_size, derive_seed(config.seed, 1), n_queries=config.queries_size
        )
        oracle = AssociativeOracle(gamma=config.oracle_gamma, y_dim=task.y_dim)
        matrix = pool_score_matrix(pool, oracle, cosine_score)
        scores, csv_text = run_k_study(config)
        rows = k_study_rows(csv_text)
        assert len(rows) == 2 * 2 * len(config.k_values)
        for row in rows:
            k, trial_seed = int(row["k"]), int(row["trial_seed"])
            if row["strategy"] == "random":
                context = random_select(pool, k, trial_seed)
            else:
                context = active_select(pool, k, matrix, config.subsample, trial_seed)
            y_hats = oracle.predict_pool(pool, context, queries.xs)
            expected = [round(float(cosine_score(y_hat, y)), 12) for y_hat, y in zip(y_hats, queries.ys)]
            assert scores[row["strategy"], k][int(row["trial_index"])].tolist() == expected

    def test_instance_best_matches_per_query_selector(self):
        from hopctx import AssociativeOracle, generate_pool
        from hopctx.experiments import _build_task, derive_seed

        config = small_config(trials=1, k_values=(2,), strategies=("instance-best",))
        task = _build_task(config)
        pool, queries = generate_pool(
            task, config.pool_size, derive_seed(config.seed, 1), n_queries=config.queries_size
        )
        oracle = AssociativeOracle(gamma=config.oracle_gamma, y_dim=task.y_dim)
        got = run_k_study(config)[0]["instance-best", 2][0]
        for j, (x, y) in enumerate(zip(queries.xs, queries.ys)):
            # Brute force: every exemplar as the sole context, sorted by (-score, position).
            scores = [float(cosine_score(oracle.predict_pool(pool, [i], x), y)) for i in range(pool.size)]
            context = sorted(range(pool.size), key=lambda i: -scores[i])[:2]
            expected = round(float(cosine_score(oracle.predict_pool(pool, context, x), y)), 12)
            assert got[j] == expected

    def test_instance_best_orders_match_python_sort(self):
        from hopctx import ExemplarPool

        rng = np.random.default_rng(4)
        pool = ExemplarPool(np.zeros((12, 1)), np.zeros((12, 1)))
        # Few distinct values, so most scores tie; -0.0 and 0.0 must tie too.
        # The runner ranks instance-best as pool.rank(query_scores.T).
        matrix = rng.choice([0.0, -0.0, 0.5, 1.0], size=(12, 9))
        orders = pool.rank(matrix.T).T
        for j in range(9):
            expected = sorted(range(12), key=lambda i: (-matrix[i, j], i))
            assert orders[:, j].tolist() == expected

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_metric_records_match_per_trial_selector(self, metric):
        """The once-per-run ranking gives the scores and CSV rows of a
        per-query metric sort and a one-row predict per query, trial by trial."""
        from hopctx import AssociativeOracle, generate_pool
        from hopctx.experiments import _build_task

        config = small_config(trials=3, k_values=(1, 2, 4, 30), strategies=("random", "metric"), metric=metric)
        task = _build_task(config)
        pool, queries = generate_pool(
            task, config.pool_size, derive_seed(config.seed, 1), n_queries=config.queries_size
        )
        oracle = AssociativeOracle(gamma=config.oracle_gamma, y_dim=task.y_dim)
        scores, csv_text = run_k_study(config)
        xs = pool.xs
        got = {(int(r["trial_index"]), int(r["k"])): r for r in k_study_rows(csv_text) if r["strategy"] == "metric"}
        assert len(got) == config.trials * len(config.k_values)
        for trial in range(config.trials):
            for k in config.k_values:
                expected = []
                for q_x, q_y in zip(queries.xs, queries.ys):
                    if metric == "euclidean":
                        closeness = -np.linalg.norm(xs - q_x, axis=1)
                    else:
                        closeness = (xs @ q_x) / (np.linalg.norm(xs, axis=1) * np.linalg.norm(q_x))
                    order = sorted(range(pool.size), key=lambda i: (-closeness[i], i))
                    y_hat = oracle.predict_pool(pool, order[:k], q_x)
                    expected.append(round(float(cosine_score(y_hat, q_y)), 12))
                row = got[trial, k]
                assert scores["metric", k][trial].tolist() == expected
                assert float(row["mean_score"]) == float(np.mean(expected))
                assert int(row["trial_seed"]) == derive_seed(config.seed, 2, trial, 1, k)
                assert scores["metric", k][trial].tolist() == scores["metric", k][0].tolist()

    def test_metric_strategy_runs(self):
        config = small_config(trials=2, k_values=(1, 2), strategies=("random", "metric"))
        scores, csv_text = run_k_study(config)
        assert {strategy for strategy, _ in scores} == {"random", "metric"}
        assert {row["strategy"] for row in k_study_rows(csv_text)} == {"random", "metric"}

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["key-value-association", "prototype-completion"]),
           strategies=st.lists(st.sampled_from(["random", "metric", "active", "instance-best"]),
                               min_size=1, max_size=4, unique=True),
           trials=st.integers(1, 4),
           k_values=st.lists(st.integers(1, 16), min_size=1, max_size=3, unique=True).map(sorted),
           seed=st.integers(0, 2**16))
    def test_scores_table_is_what_the_csv_and_comparison_read(self, kind, strategies, trials, k_values, seed):
        config = small_config(task_kind=kind, strategies=tuple(strategies), trials=trials,
                              k_values=tuple(k_values), pool_size=16, queries_size=5, subsample=8, seed=seed)
        scores, csv_text = run_k_study(config)
        assert list(scores) == [(s, k) for s in config.strategies for k in config.k_values]
        for (strategy, k), block in scores.items():
            assert block.dtype == np.float64 and block.shape == (trials, config.queries_size)
            if strategy in ("metric", "instance-best"):
                assert not block.flags.writeable
                assert np.array_equal(block, np.broadcast_to(block[0], block.shape))

        # The CSV is the table, trial-major, one row per (trial, strategy, K).
        rows = k_study_rows(csv_text)
        assert [(int(r["trial_index"]), r["strategy"], int(r["k"])) for r in rows] == [
            (t, s, k) for t in range(trials) for s, k in scores]
        for row in rows:
            block = scores[row["strategy"], int(row["k"])]
            assert row["mean_score"] == repr(float(block[int(row["trial_index"])].mean()))
            assert int(row["n_queries"]) == block.shape[1]

        k = config.k_values[0]
        means = {s: scores[s, k].mean(axis=1) for s in config.strategies}
        expected = {"k": k, "trials": trials, "strategies": {}}
        for strategy, m in means.items():
            entry = {"mean": float(m.mean()), "std": float(m.std(ddof=1)) if trials > 1 else 0.0}
            if "random" in means:
                wins = np.sum(m > means["random"]) + 0.5 * np.sum(m == means["random"])
                entry["win_rate_vs_random"] = float(wins / trials)
            expected["strategies"][strategy] = entry
        assert run_strategy_comparison(config)[0] == expected


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
