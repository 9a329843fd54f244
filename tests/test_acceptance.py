"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria:
  1. retrieval-error bound holds on >= 10,000 random instances (< 60 s)
  2. attention output equals retrieval output on 1,000 instances (<= 1e-12, < 10 s)
  3. beta formula exact at 1,000+ grid points (1e-12) and monotone in c, M, t
  4. classic network: exact fixed points, 95/100 capacity trials, energy descent
  5. degenerate bound cases: t = M collapse and the gamma = 50 envelope
  6. Monte-Carlo value estimator: exact full-pool mean, unbiased sub-sampling
  7. trend suite on the default benchmark (100 seeds, < 5 min)
  8. zero-context predictions score strictly below prototype-bearing contexts
  9. byte-identical CSV output on re-runs
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from hopctx import (
    AssociativeOracle,
    ContextSet,
    ContextualHopfield,
    ExperimentConfig,
    QueryState,
    attention_view,
    beta_coefficient,
    classic_energy,
    classic_store,
    classic_update,
    cosine_score,
    estimate_pool_values,
    generate_pool,
    hnc_retrieve,
    make_benchmark_task,
    run_bound_sweep,
    run_k_study,
    verify_bound,
)
from hopctx.selection import pool_score_matrix, score_rows


def _report(line):
    print(f"\n{line}")


# ---------------------------------------------------------------------------
# Shared expensive runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def default_k_study():
    config = ExperimentConfig()
    t0 = time.perf_counter()
    scores, csv_text = run_k_study(config)
    elapsed = time.perf_counter() - t0
    return config, scores, csv_text, elapsed


# ---------------------------------------------------------------------------
# Criterion 1: bound soundness at scale
# ---------------------------------------------------------------------------


def test_criterion_1_bound_soundness():
    rng = np.random.default_rng(10_001)
    n_instances = 10_000
    t0 = time.perf_counter()
    for _ in range(n_instances):
        d_q = int(rng.integers(2, 9))
        d_m = d_q + int(rng.integers(0, 3))
        gamma = float(rng.uniform(0.1, 10.0))
        m = int(rng.integers(1, 33))
        model = ContextualHopfield(
            xi_q=rng.standard_normal((d_m, d_q)),
            xi_k=rng.standard_normal((d_m, d_q)),
            gamma=gamma,
        )
        lam = rng.standard_normal((d_m, m))
        n_dup = max(1, int(round(float(rng.uniform(0.0, 1.0)) * m)))
        for i in range(1, n_dup):
            lam[:, i] = lam[:, 0]
        ctx = ContextSet(lam)
        query = QueryState.from_sigma(rng.standard_normal(d_m), model)
        z_target = ctx.patterns(model)[:, 0]
        u_star = z_target + rng.uniform(0.0, 1.0) * rng.standard_normal(d_q)
        columns = verify_bound(model, ctx, query, u_star, target_index=0)
        assert columns["realized_error"] <= columns["upper_bound"] + 1e-9 * (1 + columns["upper_bound"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"bound verification too slow: {elapsed:.1f}s"
    _report(f"PASS 1 bound soundness: {n_instances} instances, 0 violations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: attention equivalence
# ---------------------------------------------------------------------------


def test_criterion_2_attention_equivalence():
    rng = np.random.default_rng(10_002)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
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
        out = attention_view(model, ctx, query).output
        ref = hnc_retrieve(model, ctx, query).u_new @ model.w_v
        worst = max(worst, float(np.max(np.abs(out - ref))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12, f"max attention/retrieval gap {worst:.2e}"
    assert elapsed < 10.0, f"equivalence check too slow: {elapsed:.1f}s"
    _report(f"PASS 2 attention equivalence: 1000 instances, max gap {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: beta exactness and monotonicity
# ---------------------------------------------------------------------------


def test_criterion_3_beta_exact_and_monotone():
    cs = [Fraction(i, 4) for i in range(20)]  # 0, 0.25, ..., 4.75
    ms = list(range(1, 11))
    points = 0
    worst = 0.0
    for c in cs:
        for m in ms:
            for t in range(1, m + 1):
                # Exact rational evaluation of 1 - (1 + c(M-t)/t)^{-1} + c(M-t).
                exact = 1 - 1 / (1 + c * (m - t) / t) + c * (m - t)
                got = beta_coefficient(float(c), m, t)
                worst = max(worst, abs(got - float(exact)))
                points += 1
    assert points >= 1000
    assert worst <= 1e-12, f"beta formula max error {worst:.2e}"

    grid_c = np.linspace(0.0, 4.0, 33)
    for m in (2, 3, 8, 32):
        for t in range(1, m + 1):
            betas = [beta_coefficient(float(c), m, t) for c in grid_c]
            assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:])), "not monotone in c"
    for c in (0.0, 0.3, 1.0, 4.0):
        for t in (1, 2, 5):
            betas = [beta_coefficient(c, m, t) for m in range(t, t + 30)]
            assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:])), "not monotone in M"
    for c in (0.3, 1.0, 4.0):
        for m in (2, 8, 32):
            betas = [beta_coefficient(c, m, t) for t in range(1, m + 1)]
            assert all(b2 <= b1 for b1, b2 in zip(betas, betas[1:])), "not monotone in t"
    _report(f"PASS 3 beta formula: {points} grid points exact (max err {worst:.2e}), monotone in c/M/t")


# ---------------------------------------------------------------------------
# Criterion 4: classic network behaviour
# ---------------------------------------------------------------------------


def test_criterion_4_classic_network():
    m = np.where(np.arange(36) % 5 < 3, 1.0, -1.0)
    net = classic_store([m])
    for probe in (m, -m):
        state, converged = classic_update(net, probe)
        assert converged
        np.testing.assert_array_equal(state, probe)

    fixed_point_trials = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        patterns = [np.where(rng.standard_normal(100) >= 0, 1.0, -1.0) for _ in range(5)]
        net = classic_store(patterns)
        if all(np.array_equal(classic_update(net, p, max_sweeps=1)[0], p) for p in patterns):
            fixed_point_trials += 1
    assert fixed_point_trials >= 95, f"only {fixed_point_trials}/100 trials kept all patterns fixed"

    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        patterns = [np.where(rng.standard_normal(40) >= 0, 1.0, -1.0) for _ in range(3)]
        net = classic_store(patterns)
        state = np.where(rng.standard_normal(40) >= 0, 1.0, -1.0)
        energy = classic_energy(net, state)
        for _ in range(15):
            state, converged = classic_update(net, state, max_sweeps=1)
            new_energy = classic_energy(net, state)
            assert new_energy <= energy + 1e-12, "energy increased along a trajectory"
            energy = new_energy
            if converged:
                break
    _report(f"PASS 4 classic network: exact fixed points, {fixed_point_trials}/100 capacity trials, energy descent")


# ---------------------------------------------------------------------------
# Criterion 5: degenerate bound cases
# ---------------------------------------------------------------------------


def test_criterion_5_degenerate_cases():
    rng = np.random.default_rng(10_005)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        m = int(rng.integers(1, 9))
        col = rng.standard_normal(d)
        model = ContextualHopfield.identity(d, gamma=float(rng.uniform(0.5, 5.0)))
        ctx = ContextSet(np.tile(col[:, None], (1, m)))
        query = QueryState.from_sigma(rng.standard_normal(d), model)
        u_star = col + rng.standard_normal(d)
        columns = verify_bound(model, ctx, query, u_star, target_index=0)
        assert columns["t"] == m
        assert columns["upper_bound"] == columns["instance_error"], "t=M must collapse the bound to ||dz||"

    for m in (2, 4, 8, 16, 32):
        d = 3
        model = ContextualHopfield.identity(d, gamma=50.0)
        cols = [np.array([3.0, 0.0, 0.0])]
        for j in range(m - 1):
            cols.append(np.array([2.0 - j * 0.01, 0.5, -0.25]))
        ctx = ContextSet.from_vectors(cols)
        query = QueryState.from_sigma(np.array([1.0, 0.0, 0.0]), model)
        # u* = z_0, so the bound is its contextual term alone.
        columns = verify_bound(model, ctx, query, ctx.patterns(model)[:, 0], target_index=0)
        assert columns["t"] == 1 and columns["delta_min"] >= 1.0
        assert columns["upper_bound"] <= 1e-18 * columns["z_max_norm"], (
            f"M={m}: bound {columns['upper_bound']:.3e} above the exp(-50) envelope"
        )
    _report("PASS 5 degenerate cases: t=M collapse exact, gamma=50 envelope <= 1e-18*||z_max||")


# ---------------------------------------------------------------------------
# Criterion 6: Monte-Carlo value estimator
# ---------------------------------------------------------------------------


def test_criterion_6_value_estimator():
    spec = make_benchmark_task(p=4, d=8, noise_sigma=0.1)
    pool, _ = generate_pool(spec, 20, seed=13)
    oracle = AssociativeOracle(gamma=2.0, y_dim=spec.y_dim)

    worst = 0.0
    matrix = pool_score_matrix(pool, oracle, cosine_score)
    full_values, _ = estimate_pool_values(pool, matrix, subsample="all")
    for i, value in enumerate(full_values):
        others = np.delete(np.arange(pool.size), i)
        brute = np.mean(cosine_score(oracle.predict_pool(pool, [i], pool.xs[others]), pool.ys[others]))
        worst = max(worst, abs(value - float(brute)))
    assert worst <= 1e-12, f"full-pool estimate deviates from brute force by {worst:.2e}"

    full = full_values[3]
    estimates = np.array([
        estimate_pool_values(pool, matrix, subsample=8, seed=s)[0][3]
        for s in range(200)
    ])
    se = estimates.std(ddof=1) / np.sqrt(len(estimates))
    gap = abs(estimates.mean() - full)
    assert gap <= 3 * se, f"sub-sampled mean off by {gap:.3e} (> 3 SE = {3 * se:.3e})"
    _report(f"PASS 6 value estimator: exact full-pool mean (max err {worst:.2e}), "
            f"sub-sample bias {gap:.2e} <= 3 SE {3 * se:.2e}")


# ---------------------------------------------------------------------------
# Criterion 7: trend suite on the default benchmark
# ---------------------------------------------------------------------------


def test_criterion_7_trend_suite(default_k_study):
    config, scores, _, elapsed = default_k_study
    assert elapsed < 300.0, f"default benchmark run took {elapsed:.0f}s (budget 300s)"
    ks = config.k_values

    trial_means = {key: block.mean(axis=1) for key, block in scores.items()}
    means = {key: float(m.mean()) for key, m in trial_means.items()}

    # (b) active >= random at every K (1e-9 float-equality guard), strictly
    # better at the small context sizes.
    for k in ks:
        assert means[("active", k)] >= means[("random", k)] - 1e-9, (
            f"K={k}: active {means[('active', k)]:.6f} < random {means[('random', k)]:.6f}"
        )
    for k in (1, 2, 4):
        assert means[("active", k)] > means[("random", k)], (
            f"K={k}: active does not strictly exceed random"
        )

    # (a) random mean non-decreasing in K within 2 paired standard errors.
    for k1, k2 in zip(ks, ks[1:]):
        diffs = trial_means[("random", k2)] - trial_means[("random", k1)]
        se = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert diffs.mean() >= -2 * se - 1e-12, (
            f"random mean dropped from K={k1} to K={k2} by more than 2 SE"
        )

    # Across-seed variance of random non-increasing in K.
    variances = [float(np.var(trial_means[("random", k)], ddof=1)) for k in ks]
    for v1, v2 in zip(variances, variances[1:]):
        assert v2 <= v1 + 1e-15, f"random variance increased along K: {variances}"

    # (c) instance-best is the best K=1 strategy.
    best_k1 = means[("instance-best", 1)]
    for strategy in config.strategies:
        assert best_k1 >= means[(strategy, 1)] - 1e-12

    # (d) instance-best does not improve from K=1 to K=8 beyond 2 SE.
    ib_diffs = trial_means[("instance-best", 8)] - trial_means[("instance-best", 1)]
    se = ib_diffs.std(ddof=1) / np.sqrt(len(ib_diffs)) if len(ib_diffs) > 1 else 0.0
    assert ib_diffs.mean() <= 2 * se + 1e-12, "instance-best improved from K=1 to K=8"

    summary = ", ".join(
        f"K={k}: act {means[('active', k)]:.3f} / rand {means[('random', k)]:.3f}" for k in ks
    )
    _report(f"PASS 7 trend suite ({elapsed:.0f}s): {summary}; "
            f"instance-best K=1 {best_k1:.3f} plateau holds")


# ---------------------------------------------------------------------------
# Criterion 8: zero-context vs prototype-bearing context
# ---------------------------------------------------------------------------


def test_criterion_8_zero_context_strictly_worse():
    spec = make_benchmark_task()
    oracle = AssociativeOracle(gamma=2.0, y_dim=spec.y_dim)
    checked = 0
    for seed in range(100):
        pool, queries = generate_pool(spec, 40, seed=seed, n_queries=10)
        rng = np.random.default_rng(seed)
        for k in (1, 2, 4):
            zero_scores = []
            ctx_scores = []
            for q_x, q_y, q_latent in zip(queries.xs, queries.ys, queries.latents):
                same = np.flatnonzero(pool.latents == q_latent)
                if not len(same):
                    continue
                others = np.flatnonzero(pool.latents != q_latent)
                extra_count = min(k - 1, len(others))
                context = np.concatenate([same[:1], others[rng.permutation(len(others))[:extra_count]]])
                zero_scores.append(score_rows(cosine_score, oracle.predict([], q_x), q_y)[0])
                ctx_scores.append(score_rows(cosine_score, oracle.predict_pool(pool, context, q_x), q_y)[0])
            assert zero_scores and ctx_scores
            assert np.mean(zero_scores) == 0.0
            assert np.mean(ctx_scores) > np.mean(zero_scores), (
                f"seed {seed}, K={k}: context did not beat zero-shot"
            )
            checked += 1
    _report(f"PASS 8 zero-context: strictly below prototype-bearing contexts in {checked} (seed, K) cells")


# ---------------------------------------------------------------------------
# Criterion 9: byte-identical reruns
# ---------------------------------------------------------------------------


def test_criterion_9_byte_identical_reruns(default_k_study):
    config, _, csv_first, _ = default_k_study
    _, csv_second = run_k_study(config)
    assert csv_first == csv_second, "k-study CSV differs between reruns"

    sweep_config = ExperimentConfig()
    _, sweep_a, summary = run_bound_sweep(sweep_config)
    _, sweep_b, _ = run_bound_sweep(sweep_config)
    assert summary["instances"] == 2700
    assert sweep_a == sweep_b, "bound-sweep CSV differs between reruns"
    _report("PASS 9 determinism: k-study and bound-sweep CSVs byte-identical on rerun (2700 sweep rows)")
