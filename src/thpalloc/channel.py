"""Scenario configuration and random channel drop generation.

A "drop" is one realization of user positions and frequency-selective
Rayleigh fading. Large-scale gain follows a (d/R)^-beta path-loss law
normalized so a cell-edge user has unit average channel energy; the
small-scale taps follow an exponentially decaying power delay profile
with unit total energy.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

_VALID_QAM = (4, 16, 64, 256)

# Binary channel-file layout (little endian):
#   magic b"THPC", uint32 version = 1
#   int64 header: N, K, N_T, N_R, drop_id
#   K x 2 float64 user positions (x, y)
#   N*K*N_R*N_T complex entries as float64 (re, im) pairs, row-major
#   with n outermost, then k, then the N_R x N_T matrix rows.
_MAGIC = b"THPC"
_VERSION = 1


class ChannelFileError(Exception):
    """Raised when a channel file is missing, malformed or non-finite."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Dimensioning and QoS parameters of one simulation scenario."""

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
        if self.pdp_taps < 1:
            raise ValueError("pdp_taps must be >= 1")
        if self.cell_radius_m <= 0:
            raise ValueError("cell_radius_m must be positive")
        if not 0 <= self.min_user_distance_m <= self.cell_radius_m:
            raise ValueError("min_user_distance_m must lie in [0, cell_radius_m]")
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
        per_group = self.num_users // q
        for g in range(q):
            users = range(g * per_group, (g + 1) * per_group)
            if sum(self.quota[k] for k in users) > self.num_subcarriers:
                raise ValueError("group quota sum exceeds number of subcarriers")
        if not all(0 < g < math.inf for g in self.mse_budget):
            raise ValueError("mse_budget entries must be finite and positive")
        if not 0 < self.noise_variance < math.inf:
            raise ValueError("noise_variance must be finite and positive")
        if self.constellation_size not in _VALID_QAM:
            raise ValueError(f"constellation_size must be one of {_VALID_QAM}")

    @property
    def group_count(self) -> int:
        """SDMA order Q = floor(N_T / N_R)."""
        return self.tx_antennas // self.rx_antennas

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
    """Exponential power delay profile p_t = c * decay^t, sum = 1."""
    p = decay ** np.arange(num_taps, dtype=float)
    return p / p.sum()


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
        positions = np.empty((k_users, 2))
        for k in range(k_users):
            while True:
                xy = rng.uniform(-config.cell_radius_m, config.cell_radius_m, 2)
                d = np.hypot(*xy)
                if config.min_user_distance_m <= d <= config.cell_radius_m:
                    positions[k] = xy
                    break
    else:
        positions = np.asarray(positions, dtype=float)

    dist = np.hypot(positions[:, 0], positions[:, 1])
    gains = (dist / config.cell_radius_m) ** (-config.pathloss_exponent)

    p_taps = pdp_powers(config.pdp_taps, config.pdp_decay)
    # taps: (K, T, N_R, N_T) i.i.d. CN(0, p_t)
    shape = (k_users, config.pdp_taps, n_r, n_t)
    taps = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    taps *= np.sqrt(p_taps / 2.0)[None, :, None, None]
    # frequency response over N subcarriers: H[n] = sum_t h_t e^{-j2pi nt/N}
    n_idx = np.arange(n_sub)
    t_idx = np.arange(config.pdp_taps)
    phase = np.exp(-2j * np.pi * np.outer(n_idx, t_idx) / n_sub)  # (N, T)
    h = np.einsum("nt,ktrc->nkrc", phase, taps)
    h *= np.sqrt(gains)[None, :, None, None]
    return ChannelSet(matrices=h, user_positions=positions, drop_id=drop_index)


def save_channels(channels: ChannelSet, path) -> None:
    """Write a ChannelSet in the documented binary container format."""
    n, k, n_r, n_t = channels.matrices.shape
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<5q", n, k, n_r, n_t, channels.drop_id))
        f.write(np.ascontiguousarray(channels.user_positions, dtype="<f8").tobytes())
        flat = np.ascontiguousarray(channels.matrices, dtype="<c16")
        f.write(flat.tobytes())


def load_channels(path) -> ChannelSet:
    """Read a ChannelSet written by :func:`save_channels`, bit-exactly."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise ChannelFileError(f"cannot read channel file: {exc}") from exc
    if len(raw) < 48 or raw[:4] != _MAGIC:
        raise ChannelFileError("not a channel file (bad magic)")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != _VERSION:
        raise ChannelFileError(f"unsupported channel file version {version}")
    n, k, n_r, n_t, drop_id = struct.unpack_from("<5q", raw, 8)
    off = 48
    pos_bytes = k * 2 * 8
    mat_bytes = n * k * n_r * n_t * 16
    if len(raw) != off + pos_bytes + mat_bytes:
        raise ChannelFileError(
            f"dimension mismatch: header promises {off + pos_bytes + mat_bytes} "
            f"bytes, file has {len(raw)}")
    positions = np.frombuffer(raw, dtype="<f8", count=2 * k, offset=off).reshape(k, 2)
    matrices = np.frombuffer(raw, dtype="<c16", count=n * k * n_r * n_t,
                             offset=off + pos_bytes).reshape(n, k, n_r, n_t)
    if not np.all(np.isfinite(matrices)):
        raise ChannelFileError("channel file contains non-finite entries")
    return ChannelSet(matrices=matrices.copy(),
                      user_positions=positions.copy(), drop_id=int(drop_id))
