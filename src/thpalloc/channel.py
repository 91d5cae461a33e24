"""Scenario configuration and random channel drop generation.

A "drop" is one realization of user positions and frequency-selective
Rayleigh fading. Large-scale gain follows a (d/R)^-beta path-loss law
normalized so a cell-edge user has unit average channel energy; the
small-scale taps follow an exponentially decaying power delay profile
with unit total energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache, cached_property

import numpy as np

_VALID_QAM = (4, 16, 64, 256)


@dataclass(frozen=True)
class ScenarioConfig:
    """Dimensioning and QoS parameters of one simulation scenario. Users
    are grouped per drop, so the K/Q largest quotas must fit in N."""

    num_subcarriers: int
    num_users: int
    tx_antennas: int
    rx_antennas: int
    streams_per_user: int
    quota: tuple[int, ...]          # subcarriers per user, length K
    mse_budget: tuple[float, ...]   # sum-MSE budget gamma_k, length K
    noise_variance: float = 1.0
    constellation_size: int = 16
    bandwidth_hz: float = 0.0       # metadata only
    cell_radius_m: float = 100.0
    pathloss_exponent: float = 4.0
    min_user_distance_m: float = 10.0
    pdp_taps: int = 8
    pdp_decay: float = field(default=0.0)  # 0 -> derived default
    rng_seed: int = 0

    def __post_init__(self):
        if not all(n % 1 == 0 for n in self.quota):  # 2.5, nan and inf
            raise ValueError("quotas must be integers")
        if min(self.num_subcarriers, self.num_users, self.rx_antennas,
               self.streams_per_user, self.pdp_taps, *self.quota) < 1:
            raise ValueError("num_subcarriers, num_users, rx_antennas, "
                             "streams_per_user, pdp_taps and quotas must be >= 1")
        if not 0 < self.cell_radius_m < math.inf:
            raise ValueError("cell_radius_m must be finite and positive")
        ratio = self.min_user_distance_m / self.cell_radius_m
        if not (0 <= ratio < 1 and math.pi / 4 * (1 - ratio ** 2) >= 0.01):
            raise ValueError("min_user_distance_m must lie in [0, cell_radius_m)"
                             " and leave a ring of 1% of the sampler's square")
        for name in ("pdp_decay", "pathloss_exponent"):  # pdp_decay 0: default
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        if self.pdp_decay == 0.0:
            # last tap 20 dB below the first
            d = 1.0 if self.pdp_taps == 1 else 0.01 ** (1.0 / (self.pdp_taps - 1))
            object.__setattr__(self, "pdp_decay", d)
        q = self.group_count
        if q < 1:
            raise ValueError("tx_antennas must be >= rx_antennas")
        if self.streams_per_user > self.tx_antennas // q:
            raise ValueError("streams_per_user exceeds projected transmit space")
        if self.streams_per_user > self.rx_antennas:
            raise ValueError("streams_per_user exceeds receive antennas")
        if self.num_users % q != 0:
            raise ValueError(f"num_users must be divisible by group count Q={q}")
        if len(self.quota) != self.num_users or len(self.mse_budget) != self.num_users:
            raise ValueError("quota and mse_budget must have one entry per user")
        largest = sorted(self.quota)[-(self.num_users // q):]
        if sum(largest) > self.num_subcarriers:
            raise ValueError("group quota sum exceeds number of subcarriers")
        if not all(0 < g < math.inf for g in self.mse_budget):
            raise ValueError("mse_budget entries must be finite and positive")
        if not 0 < self.noise_variance < math.inf:
            raise ValueError("noise_variance must be finite and positive")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(self.price_weight)):
                raise ValueError("price weight sigma^2 * n/gamma overflows")
        if self.constellation_size not in _VALID_QAM:
            raise ValueError(f"constellation_size must be one of {_VALID_QAM}")

    @property
    def group_count(self) -> int:
        """SDMA order Q = floor(N_T / N_R)."""
        return self.tx_antennas // self.rx_antennas

    @cached_property  # derived once, read-only
    def price_weight(self) -> np.ndarray:
        """(K,) weights w_k = sigma^2 n_k / gamma_k: QoS in every price."""
        w = self.noise_variance * np.divide(self.quota, self.mse_budget)
        w.flags.writeable = False
        return w

    @property
    def symbol_variance(self) -> float:
        """QAM symbol variance 2(M - 1)/3."""
        return 2.0 * (self.constellation_size - 1) / 3.0

    def with_rho(self, rho: float) -> "ScenarioConfig":
        """Uniform per-stream MSE target rho -> gamma_k = n_k * L * rho."""
        budget = tuple(n * self.streams_per_user * rho for n in self.quota)
        return replace(self, mse_budget=budget)

    def with_users(self, num_users: int, rho: float) -> "ScenarioConfig":
        """The same scenario shared equally by num_users users.

        Quotas become floor(N * Q / K), so every group stays feasible;
        budgets follow gamma_k = n_k * L * rho.
        """
        if num_users < 1:
            raise ValueError(f"num_users must be >= 1, got {num_users}")
        n_k = (self.num_subcarriers * self.group_count) // num_users
        if n_k < 1:
            raise ValueError(f"too many users ({num_users}) for "
                             f"{self.num_subcarriers} subcarriers")
        return replace(
            self, num_users=num_users, quota=(n_k,) * num_users,
            mse_budget=(n_k * self.streams_per_user * rho,) * num_users)


@dataclass(frozen=True)
class ChannelSet:
    """Per-subcarrier, per-user MIMO channel matrices of one drop."""

    matrices: np.ndarray        # (N, K, N_R, N_T) complex128
    user_positions: np.ndarray  # (K, 2) meters
    drop_id: int

    def __post_init__(self):
        if self.matrices.ndim != 4:
            raise ValueError("matrices must be a (N, K, N_R, N_T) array")
        if not np.all(np.isfinite(self.matrices)):
            raise ValueError("channel matrices contain non-finite entries")


_PRESETS = {
    "S1": dict(tx_antennas=2, rx_antennas=1, bandwidth_hz=10e6,
               num_subcarriers=64, streams_per_user=1),
    "S2": dict(tx_antennas=4, rx_antennas=2, bandwidth_hz=5e6,
               num_subcarriers=32, streams_per_user=2),
    "S3": dict(tx_antennas=8, rx_antennas=4, bandwidth_hz=2.5e6,
               num_subcarriers=16, streams_per_user=4),
}


def scenario_preset(preset_id: str, num_users: int = 16, rho: float = 0.25,
                    rng_seed: int = 0, **overrides) -> ScenarioConfig:
    """Build one of the reference scenarios S1/S2/S3, shared equally by
    num_users users (see ScenarioConfig.with_users); for the reference
    K = 16 each user gets exactly N*Q/K subcarriers."""
    if preset_id not in _PRESETS:
        raise ValueError(f"unknown scenario '{preset_id}'; valid: {sorted(_PRESETS)}")
    p = dict(_PRESETS[preset_id], rng_seed=rng_seed, **overrides)
    q = p["tx_antennas"] // p["rx_antennas"]
    # one user per group on one subcarrier, to be re-shared below
    single = ScenarioConfig(num_users=q, quota=(1,) * q,
                            mse_budget=(1.0,) * q, **p)
    return single.with_users(num_users, rho)


def pdp_powers(num_taps: int, decay: float) -> np.ndarray:
    """Exponential power delay profile p_t = c * decay^t, sum = 1; the
    exponents count from the largest tap, so that no power overflows."""
    p = decay ** (np.arange(num_taps, dtype=float) - (num_taps - 1) * (decay > 1))
    return p / p.sum()


@cache  # filled at the first drop; one entry per (N, T, decay)
def _drop_tables(n: int, t: int, decay: float):
    """Read-only (N, T) DFT phases and tap amplitudes sqrt(p_t / 2)."""
    phase = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(t)) / n)
    amplitude = np.sqrt(pdp_powers(t, decay) / 2.0)
    phase.flags.writeable = amplitude.flags.writeable = False
    return phase, amplitude


def _drop_rng(seed: int, drop_index: int) -> np.random.Generator:
    # Distinct deterministic substream per drop; safe for parallel drops.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(drop_index,)))


def generate_drop(config: ScenarioConfig, drop_index: int,
                  positions: np.ndarray | None = None) -> ChannelSet:
    """Draw one random drop, deterministic given (rng_seed, drop_index).

    `positions` overrides the uniform-in-disk user placement (used by
    tests to pin users, e.g. at the cell edge).
    """
    rng = _drop_rng(config.rng_seed, drop_index)
    k_users = config.num_users
    n_sub = config.num_subcarriers
    n_r, n_t = config.rx_antennas, config.tx_antennas

    if positions is None:
        # one sample per unplaced user never draws past the last acceptance
        r, positions = config.cell_radius_m, np.empty((0, 2))
        while len(positions) < k_users:
            xy = rng.uniform(-r, r, (k_users - len(positions), 2))
            d = np.hypot(*xy.T)
            positions = np.concatenate(
                [positions, xy[(config.min_user_distance_m <= d) & (d <= r)]])
    else:
        positions = np.asarray(positions, dtype=float)

    dist = np.hypot(positions[:, 0], positions[:, 1])
    gains = (dist / config.cell_radius_m) ** (-config.pathloss_exponent)

    phase, amplitude = _drop_tables(n_sub, config.pdp_taps, config.pdp_decay)
    # taps: (K, T, N_R, N_T) i.i.d. CN(0, p_t)
    shape = (k_users, config.pdp_taps, n_r, n_t)
    taps = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    taps *= amplitude[None, :, None, None]
    # frequency response over N subcarriers: H[n] = sum_t h_t e^{-j2pi nt/N}
    h = (phase @ taps.swapaxes(0, 1).reshape(config.pdp_taps, -1)).reshape(
        n_sub, k_users, n_r, n_t)
    h *= np.sqrt(gains)[None, :, None, None]
    return ChannelSet(matrices=h, user_positions=positions, drop_id=drop_index)

