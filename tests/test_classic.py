"""Binary Hopfield network: storage rule, retrieval dynamics, energy descent."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopctx import ClassicHopfield, classic_energy, classic_store, classic_update


def hebbian_reference(patterns):
    """Independent Hebbian construction: explicit double loop over entries."""
    n = len(patterns[0])
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            w[i, j] = sum(p[i] * p[j] for p in patterns) / n
    return w


def hebbian_outer_sum(patterns):
    """Hebbian weights as a loop of outer products, divided by N once."""
    n = len(patterns[0])
    w = np.zeros((n, n))
    for p in patterns:
        w += np.outer(p, p)
    w /= n
    np.fill_diagonal(w, 0.0)
    return w


def update_reference(w, state, schedule, max_sweeps):
    """The sign rule neuron by neuron (sequential) or as one masked step
    (synchronous); a zero field keeps the state.  Returns (state, converged)."""
    state = np.array(state, dtype=np.float64)
    for _ in range(max_sweeps):
        if schedule == "sequential":
            changed = False
            for i in range(len(state)):
                h = w[i] @ state
                if h > 0 and state[i] != 1.0:
                    state[i] = 1.0
                    changed = True
                elif h < 0 and state[i] != -1.0:
                    state[i] = -1.0
                    changed = True
            if not changed:
                return state, True
        else:
            h = w @ state
            new_state = np.where(h > 0, 1.0, np.where(h < 0, -1.0, state))
            if np.array_equal(new_state, state):
                return state, True
            state = new_state
    return state, False


@st.composite
def patterns_and_state(draw):
    """1-4 stored patterns and a start state of one even length N: two
    patterns with an even N can give a neuron a local field of exactly 0."""
    n = 2 * draw(st.integers(min_value=1, max_value=8))
    signs = st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)
    return np.array(draw(st.lists(signs, min_size=1, max_size=4))), np.array(draw(signs))


class TestReferenceForms:
    # Neuron 0 of these two patterns has an all-zero weight row, so a zero field at every step.
    @example((np.array([[-1.0, 1.0, 1.0, 1.0], [-1.0, -1.0, -1.0, -1.0]]), np.array([-1.0, 1.0, -1.0, 1.0])),
             "sequential", 2)
    @example((np.array([[-1.0, 1.0, 1.0, 1.0], [-1.0, -1.0, -1.0, -1.0]]), np.array([-1.0, 1.0, -1.0, 1.0])),
             "synchronous", 2)
    @given(patterns_and_state(), st.sampled_from(["sequential", "synchronous"]), st.sampled_from([1, 2, 100]))
    @settings(max_examples=300, deadline=None)
    def test_store_and_update_equal_the_loop_forms_bit_for_bit(self, case, schedule, max_sweeps):
        patterns, start = case
        net = classic_store(patterns)
        assert net.weights.tobytes() == hebbian_outer_sum(patterns).tobytes()
        state, converged = classic_update(net, start, schedule=schedule, max_sweeps=max_sweeps)
        ref_state, ref_converged = update_reference(net.weights, start, schedule, max_sweeps)
        assert state.tobytes() == ref_state.tobytes()
        assert converged == ref_converged


class TestStore:
    def test_single_pattern_outer_product(self):
        m = np.array([1.0, -1.0, 1.0])
        net = classic_store([m])
        expected = np.outer(m, m) / 3.0
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_array_equal(net.weights, expected)

    def test_sign_flip_gives_identical_weights(self):
        m = np.array([1.0, -1.0, 1.0, 1.0])
        net_a = classic_store([m])
        net_b = classic_store([-m])
        np.testing.assert_array_equal(net_a.weights, net_b.weights)

    def test_matches_reference_hebbian_sum(self):
        rng = np.random.default_rng(7)
        patterns = [np.where(rng.standard_normal(20) >= 0, 1.0, -1.0) for _ in range(2)]
        net = classic_store(patterns)
        np.testing.assert_allclose(net.weights, hebbian_reference(patterns), atol=1e-15)

    def test_weights_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(3)
        patterns = [np.where(rng.standard_normal(15) >= 0, 1.0, -1.0) for _ in range(4)]
        net = classic_store(patterns)
        np.testing.assert_array_equal(net.weights, net.weights.T)
        assert np.all(np.diag(net.weights) == 0.0)

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            classic_store([])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            classic_store([np.array([1.0, 0.5, -1.0])])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            classic_store([np.array([1.0, -1.0]), np.array([1.0, -1.0, 1.0])])

    def test_rejects_pattern_not_1d(self):
        with pytest.raises(ValueError, match="expected 1-D state vector"):
            classic_store([np.ones((2, 2))])

    @pytest.mark.parametrize("weights, message", [
        (np.zeros(3), "square"),
        (np.zeros((2, 3)), "square"),
        (np.array([[0.0, 1.0], [2.0, 0.0]]), "symmetric"),
        (np.array([[1.0, 0.0], [0.0, 0.0]]), "zero diagonal"),
    ], ids=["1d", "rectangular", "asymmetric", "diagonal"])
    def test_network_rejects_bad_weights(self, weights, message):
        with pytest.raises(ValueError, match=message):
            ClassicHopfield(weights)


class TestUpdate:
    def test_stored_pattern_is_fixed_point(self):
        m = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        net = classic_store([m])
        state, converged = classic_update(net, m)
        assert converged
        np.testing.assert_array_equal(state, m)

    def test_negated_pattern_is_fixed_point(self):
        m = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        net = classic_store([m])
        state, converged = classic_update(net, -m)
        assert converged
        np.testing.assert_array_equal(state, -m)

    def test_recovers_pattern_from_two_flipped_bits(self):
        rng = np.random.default_rng(7)
        patterns = [np.where(rng.standard_normal(20) >= 0, 1.0, -1.0) for _ in range(2)]
        net = classic_store(patterns)
        probe = patterns[0].copy()
        probe[[2, 11]] *= -1
        state, converged = classic_update(net, probe)
        assert converged
        np.testing.assert_array_equal(state, patterns[0])

    def test_synchronous_schedule_fixed_point(self):
        m = np.array([1.0, 1.0, -1.0, -1.0])
        net = classic_store([m])
        state, converged = classic_update(net, m, schedule="synchronous")
        assert converged
        np.testing.assert_array_equal(state, m)

    def test_rejects_unknown_schedule(self):
        net = classic_store([np.array([1.0, -1.0])])
        with pytest.raises(ValueError):
            classic_update(net, np.array([1.0, -1.0]), schedule="roundrobin")

    def test_rejects_wrong_length(self):
        net = classic_store([np.array([1.0, -1.0, 1.0])])
        with pytest.raises(ValueError):
            classic_update(net, np.array([1.0, -1.0]))


class TestEnergy:
    def test_zero_weights_zero_energy(self):
        net = ClassicHopfield(np.zeros((6, 6)))
        state = np.where(np.arange(6) % 2 == 0, 1.0, -1.0)
        assert classic_energy(net, state) == 0.0

    def test_stored_pattern_energy(self):
        # -1/2 m^T W m with Hebbian W and zero diagonal is -(N-1)/2.
        for n in (3, 8, 21):
            m = np.where(np.arange(n) % 3 == 0, 1.0, -1.0)
            net = classic_store([m])
            assert classic_energy(net, m) == pytest.approx(-(n - 1) / 2, abs=1e-12)

    def test_matches_reference_quadratic_form(self):
        rng = np.random.default_rng(7)
        patterns = [np.where(rng.standard_normal(12) >= 0, 1.0, -1.0) for _ in range(3)]
        net = classic_store(patterns)
        state = np.where(rng.standard_normal(12) >= 0, 1.0, -1.0)
        reference = -0.5 * sum(
            net.weights[i, j] * state[i] * state[j]
            for i in range(12)
            for j in range(12)
        )
        assert classic_energy(net, state) == pytest.approx(reference, rel=1e-12)

    def test_sequential_updates_never_increase_energy(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            patterns = [np.where(rng.standard_normal(30) >= 0, 1.0, -1.0) for _ in range(3)]
            net = classic_store(patterns)
            state = np.where(rng.standard_normal(30) >= 0, 1.0, -1.0)
            energy = classic_energy(net, state)
            for _ in range(10):
                state, converged = classic_update(net, state, max_sweeps=1)
                new_energy = classic_energy(net, state)
                assert new_energy <= energy + 1e-12
                energy = new_energy
                if converged:
                    break

    def test_rejects_wrong_state_shape(self):
        net = classic_store([np.array([1.0, -1.0, 1.0])])
        for state in (np.ones(2), np.ones((1, 3))):
            with pytest.raises(ValueError, match="does not match N=3"):
                classic_energy(net, state)


class TestCapacity:
    def test_low_load_patterns_are_fixed_points(self):
        # 5 patterns in 100 neurons: each stored pattern should be a fixed
        # point in at least 95 of 100 seeded trials.
        hits = 0
        trials = 100
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            patterns = [np.where(rng.standard_normal(100) >= 0, 1.0, -1.0) for _ in range(5)]
            net = classic_store(patterns)
            if all(
                np.array_equal(classic_update(net, p, max_sweeps=1)[0], p)
                for p in patterns
            ):
                hits += 1
        assert hits >= 95
