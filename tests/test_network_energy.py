"""Tests for repro.network.energy."""

import numpy as np
import pytest

from repro.network.energy import (
    DEFAULT_RX_J,
    DEFAULT_TX_J,
    IDLE_POWER_W,
    RECV_POWER_W,
    SEND_POWER_W,
    TELOSB,
    EnergyModel,
    synthesize_power_trace,
)


class TestEnergyModel:
    def test_paper_constants(self):
        assert TELOSB.tx == pytest.approx(1.6e-4)
        assert TELOSB.rx == pytest.approx(1.2e-4)

    def test_round_energy_eq1_denominator(self):
        assert TELOSB.round_energy(0) == pytest.approx(DEFAULT_TX_J)
        assert TELOSB.round_energy(3) == pytest.approx(
            DEFAULT_TX_J + 3 * DEFAULT_RX_J
        )

    def test_round_energy_rejects_negative_children(self):
        with pytest.raises(ValueError):
            TELOSB.round_energy(-1)

    def test_lifetime_eq1(self):
        # Paper's DFL numbers: 3000 J, 1 child -> 3000 / 2.8e-4 rounds.
        assert TELOSB.lifetime_rounds(3000.0, 1) == pytest.approx(
            3000.0 / 2.8e-4
        )

    @pytest.mark.parametrize(
        "model", [TELOSB, EnergyModel(tx=1.0, rx=6e-17), EnergyModel(tx=3e-4, rx=7e-5)]
    )
    def test_unchecked_lifetime_is_bitwise_the_scalar_eq1(self, model):
        rng = np.random.default_rng(5)
        energies = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 5000.0, size=200)])
        counts = rng.integers(0, 40, size=energies.size)
        bulk = model.lifetime_rounds_unchecked(energies, counts)
        scalar = [model.lifetime_rounds(float(e), int(k)) for e, k in zip(energies, counts)]
        assert bulk.tolist() == scalar
        assert model.lifetime_rounds_unchecked(3000.0, 2) == model.lifetime_rounds(3000.0, 2)

    def test_lifetime_decreases_with_children(self):
        lifetimes = [TELOSB.lifetime_rounds(3000.0, c) for c in range(5)]
        assert lifetimes == sorted(lifetimes, reverse=True)

    def test_max_children_inverts_lifetime(self):
        for children in range(5):
            lifetime = TELOSB.lifetime_rounds(3000.0, children)
            bound = TELOSB.max_children_for_lifetime(3000.0, lifetime)
            assert bound == pytest.approx(children, abs=1e-6)

    def test_max_children_negative_when_infeasible(self):
        # Lifetime longer than even a leaf can sustain.
        leaf_lifetime = TELOSB.lifetime_rounds(3000.0, 0)
        assert TELOSB.max_children_for_lifetime(3000.0, 2 * leaf_lifetime) < 0

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyModel(tx=0.0)
        with pytest.raises(ValueError):
            EnergyModel(rx=-1.0)
        with pytest.raises(ValueError):
            TELOSB.lifetime_rounds(-1.0, 0)
        with pytest.raises(ValueError):
            TELOSB.max_children_for_lifetime(3000.0, 0.0)

    def test_custom_model(self):
        model = EnergyModel(tx=2.0, rx=1.0)
        assert model.lifetime_rounds(10.0, 2) == pytest.approx(2.5)


class TestPowerTrace:
    @pytest.mark.parametrize(
        "state,reference",
        [("send", SEND_POWER_W), ("recv", RECV_POWER_W), ("idle", IDLE_POWER_W)],
    )
    def test_mean_matches_published_average(self, state, reference):
        trace = synthesize_power_trace(state, seed=1)
        assert trace.mean_power_w == pytest.approx(reference, rel=1e-9)

    def test_power_non_negative(self):
        trace = synthesize_power_trace("send", seed=2)
        assert np.all(trace.power_w >= 0)

    def test_energy_integral_consistent(self):
        trace = synthesize_power_trace("recv", duration_s=2.0, seed=3)
        # Energy ~ mean power * duration for a dense uniform sampling.
        assert trace.energy_j == pytest.approx(
            trace.mean_power_w * 2.0, rel=0.05
        )

    def test_sample_count(self):
        trace = synthesize_power_trace("idle", duration_s=1.0, sample_hz=100.0)
        assert len(trace.times_s) == 100
        assert len(trace.power_w) == 100

    def test_deterministic_with_seed(self):
        a = synthesize_power_trace("send", seed=5)
        b = synthesize_power_trace("send", seed=5)
        assert np.array_equal(a.power_w, b.power_w)

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="state"):
            synthesize_power_trace("sleeping")

    def test_bad_duration_rejected(self):
        with pytest.raises(ValueError):
            synthesize_power_trace("send", duration_s=0.0)

    def test_send_draws_more_than_recv_more_than_idle(self):
        send = synthesize_power_trace("send", seed=1).mean_power_w
        recv = synthesize_power_trace("recv", seed=1).mean_power_w
        idle = synthesize_power_trace("idle", seed=1).mean_power_w
        assert send > recv > idle
        assert idle / send < 0.005  # three orders of magnitude, as measured


class TestIdleAwareLifetime:
    def test_zero_period_matches_eq1(self):
        assert TELOSB.lifetime_rounds_with_idle(
            3000.0, 2, 0.0
        ) == pytest.approx(TELOSB.lifetime_rounds(3000.0, 2))

    def test_idle_always_shortens_lifetime(self):
        plain = TELOSB.lifetime_rounds(3000.0, 1)
        with_idle = TELOSB.lifetime_rounds_with_idle(3000.0, 1, 1.0)
        assert with_idle < plain

    def test_crossover_around_3_5_seconds(self):
        """Idle overtakes per-packet energy near (Tx+Rx)/P_idle ~ 3.5 s."""
        crossover = (DEFAULT_TX_J + DEFAULT_RX_J) / IDLE_POWER_W
        assert crossover == pytest.approx(3.5, abs=0.1)
        # Below the crossover the paper's Eq. 1 is a decent approximation...
        short = TELOSB.lifetime_rounds_with_idle(3000.0, 1, 0.1)
        assert short > 0.9 * TELOSB.lifetime_rounds(3000.0, 1)
        # ...far above it, idle dominates and Eq. 1 overestimates wildly.
        long = TELOSB.lifetime_rounds_with_idle(3000.0, 1, 60.0)
        assert long < 0.1 * TELOSB.lifetime_rounds(3000.0, 1)

    def test_monotone_in_period(self):
        lifetimes = [
            TELOSB.lifetime_rounds_with_idle(3000.0, 1, t)
            for t in (0.0, 1.0, 10.0, 100.0)
        ]
        assert lifetimes == sorted(lifetimes, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            TELOSB.lifetime_rounds_with_idle(3000.0, 1, -1.0)
        with pytest.raises(ValueError):
            TELOSB.lifetime_rounds_with_idle(-1.0, 1, 1.0)
