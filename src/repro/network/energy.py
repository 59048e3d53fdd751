"""Energy model for TelosB-class sensor nodes.

Section III-B of the paper measures three radio states with a Monsoon
PowerMonitor (Fig. 3): sending ~80 mW, receiving/listening ~60 mW, idle
(radio off) ~80 µW.  The evaluation (Section VII) then uses per-packet
energies of ``Tx = 1.6e-4 J`` (send) and ``Rx = 1.2e-4 J`` (receive) and
batteries of 3000 J.

Because most energy goes to the radio, the paper estimates lifetime from
send/receive costs only:

    L(v) = I(v) / (Tx + Rx * Ch_T(v))        (Eq. 1)

where ``Ch_T(v)`` is v's number of children in the aggregation tree (each
round, a node receives one aggregated packet per child and sends one packet
to its parent).

This module holds those constants, the lifetime arithmetic, and a power-trace
synthesizer used to reproduce Fig. 3 (we do not have the PowerMonitor
captures; we synthesize traces around the measured averages).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "EnergyModel",
    "TELOSB",
    "PowerTrace",
    "synthesize_power_trace",
]

#: Measured average power draw per radio state, in watts (paper Fig. 3).
SEND_POWER_W = 80e-3
RECV_POWER_W = 60e-3
IDLE_POWER_W = 80e-6

#: Per-packet energies used in the paper's evaluation (Section VII), joules.
DEFAULT_TX_J = 1.6e-4
DEFAULT_RX_J = 1.2e-4

#: Two AA batteries, as in the DFL deployment (Section VII).
DEFAULT_BATTERY_J = 3000.0


@dataclass(frozen=True)
class EnergyModel:
    """Per-packet energy model for lifetime estimation.

    Attributes:
        tx: Energy to send one packet, in joules.
        rx: Energy to receive one packet, in joules.
    """

    tx: float = DEFAULT_TX_J
    rx: float = DEFAULT_RX_J

    def __post_init__(self) -> None:
        check_positive(self.tx, "tx")
        check_positive(self.rx, "rx")

    def round_energy(self, n_children: int) -> float:
        """Energy one node spends in a single aggregation round.

        A node with ``n_children`` children receives one packet per child and
        sends one aggregated packet upward (the sink's "send" is kept for
        consistency with Eq. 1 of the paper).
        """
        if n_children < 0:
            raise ValueError(f"n_children must be non-negative, got {n_children}")
        return self.tx + self.rx * n_children

    def lifetime_rounds(self, initial_energy: float, n_children: int) -> float:
        """Eq. 1: number of aggregation rounds until the node dies."""
        check_non_negative(initial_energy, "initial_energy")
        return initial_energy / self.round_energy(n_children)

    def lifetime_rounds_unchecked(
        self, initial_energy: float | np.ndarray, n_children: int | np.ndarray
    ) -> float | np.ndarray:
        """Eq. 1 without validation, on scalars or elementwise on arrays.

        The same float operations, in the same order, as
        :meth:`lifetime_rounds`, so the two agree bitwise.  For the hot
        loops of :class:`~repro.engine.treestate.TreeState`, whose inputs
        the :class:`~repro.network.model.Network` has already validated.
        """
        return initial_energy / (self.tx + self.rx * n_children)

    def lifetime_rounds_with_idle(
        self,
        initial_energy: float,
        n_children: int,
        round_period_s: float,
        *,
        idle_power_w: float = IDLE_POWER_W,
    ) -> float:
        """Eq. 1 extended with idle drain between rounds.

        The paper drops the idle term because 80 µW is three orders below
        the active draw — which is valid only when rounds are frequent.
        Per round a node additionally idles for ``round_period_s`` seconds,
        costing ``idle_power_w * round_period_s`` joules; at the TelosB
        constants the idle term *overtakes* the per-packet energy once
        rounds are more than ~3.5 s apart (Tx + Rx = 2.8e-4 J vs 8e-5 J/s),
        so duty-cycle-aware deployments must use this form.
        """
        check_non_negative(initial_energy, "initial_energy")
        check_non_negative(round_period_s, "round_period_s")
        check_non_negative(idle_power_w, "idle_power_w")
        per_round = self.round_energy(n_children) + idle_power_w * round_period_s
        return initial_energy / per_round

    def max_children_for_lifetime(self, initial_energy: float, lifetime: float) -> float:
        """Invert Eq. 1: the (fractional) children bound implied by a lifetime.

        ``L(v) >= lifetime``  iff  ``Ch(v) <= (I(v)/lifetime - Tx) / Rx``.
        The result may be negative, meaning no tree placement of this node
        can meet the bound.
        """
        check_non_negative(initial_energy, "initial_energy")
        check_positive(lifetime, "lifetime")
        return (initial_energy / lifetime - self.tx) / self.rx


#: The model used throughout the paper's evaluation.
TELOSB = EnergyModel(tx=DEFAULT_TX_J, rx=DEFAULT_RX_J)


@dataclass(frozen=True)
class PowerTrace:
    """A synthesized power-vs-time trace for one radio state (Fig. 3 stand-in).

    Attributes:
        state: One of ``"send"``, ``"recv"``, ``"idle"``.
        times_s: Sample timestamps in seconds.
        power_w: Instantaneous power draw in watts.
    """

    state: str
    times_s: np.ndarray
    power_w: np.ndarray

    @property
    def mean_power_w(self) -> float:
        """Average power over the trace."""
        return float(np.mean(self.power_w))

    @property
    def energy_j(self) -> float:
        """Total energy of the trace (trapezoidal integral of power)."""
        return float(np.trapezoid(self.power_w, self.times_s))


_STATE_BASE_POWER = {
    "send": SEND_POWER_W,
    "recv": RECV_POWER_W,
    "idle": IDLE_POWER_W,
}

# Relative burst amplitude per state: radio activity makes send/recv traces
# spiky (packet bursts over a listening floor) while idle is nearly flat.
_STATE_BURST_FRACTION = {"send": 0.35, "recv": 0.25, "idle": 0.05}


def synthesize_power_trace(
    state: str,
    *,
    duration_s: float = 10.0,
    sample_hz: float = 1000.0,
    seed: SeedLike = None,
) -> PowerTrace:
    """Synthesize a PowerMonitor-like trace whose mean matches Fig. 3.

    The paper measured real TelosB nodes; we do not have that hardware, so
    the Fig. 3 reproduction draws a square-wave packet-burst pattern plus
    measurement noise around the published per-state averages.  Only the
    *averages* feed the algorithms (via :class:`EnergyModel`); the trace is
    for the figure reproduction.
    """
    if state not in _STATE_BASE_POWER:
        raise ValueError(
            f"state must be one of {sorted(_STATE_BASE_POWER)}, got {state!r}"
        )
    check_positive(duration_s, "duration_s")
    check_positive(sample_hz, "sample_hz")
    rng = as_rng(seed)
    base = _STATE_BASE_POWER[state]
    burst = _STATE_BURST_FRACTION[state]

    n = max(2, int(duration_s * sample_hz))
    times = np.linspace(0.0, duration_s, n)
    # Packet bursts: ~50 packets/s with ~4 ms on-air time each.
    burst_wave = (np.sin(2 * np.pi * 50.0 * times) > 0.6).astype(float)
    power = base * (1.0 - burst + 2.0 * burst * burst_wave)
    power += rng.normal(0.0, 0.02 * base, size=n)  # measurement noise
    np.clip(power, 0.0, None, out=power)
    # Re-center so the empirical mean matches the published average exactly.
    power *= base / max(float(np.mean(power)), 1e-12)
    return PowerTrace(state=state, times_s=times, power_w=power)
