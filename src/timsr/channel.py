"""Rician block-fading channel generation for all links of the system.

Five links are drawn per block: transmitter->receiver (direct),
transmitter->surface, surface->receiver, transmitter->harvester, and
surface->harvester. The surface is partitioned into three cell groups
(assist / absorb / inform). The absorbers feed the surface rectenna and never
reflect, so a block's cascaded channels are those of the two reflecting
groups, computed where they are read, for the cell split the reader passes,
so one draw serves every absorber count.

A block's links come from one draw of standard normals, link by link, real
parts before imaginary parts. B such draws as rows give a batch of blocks:
every link, and every cascade built from them, gains a leading block axis.
A realization may keep fewer receive antennas than the model has: the
receive links then hold their first rows only, which equal those rows of
the full realization, since every normal is still drawn and only the
mixing of the dropped rows is skipped. A trial that detects nothing keeps
one: co-phasing the assist group reads receive antenna 0 alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LOS_PHASE_POLICIES = ("per-link", "per-entry", "zero")


def path_loss_db(distance_m: float, carrier_ghz: float) -> float:
    """Indoor-hotspot path loss in dB for distance in meters and carrier in GHz."""
    return 32.8 + 16.9 * math.log10(distance_m) + 20.0 * math.log10(carrier_ghz)


def path_gain(distance_m: float, carrier_ghz: float) -> float:
    """Linear power gain of a link (inverse of the dB path loss)."""
    return 10.0 ** (-path_loss_db(distance_m, carrier_ghz) / 10.0)


@dataclass(frozen=True)
class RicianSpec:
    """Per-link fading parameters.

    ``los_phase`` fixes the deterministic line-of-sight phase(s): a scalar
    applies one common phase to every entry, an array gives per-entry phases.
    The line-of-sight component always has unit magnitude; its weighted
    term ``los`` = sqrt(k/(k+1)) * exp(j*theta_los) is computed once here.
    """

    kappa: float
    path_gain: float
    los_phase: float | np.ndarray = 0.0
    los: complex | np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = self.kappa
        los = math.sqrt(k / (k + 1.0)) * np.exp(1j * np.asarray(self.los_phase, dtype=float))
        object.__setattr__(self, "los", los)


def sample_rician(spec: RicianSpec, rows: int, cols: int, normals,
                  keep: int | None = None) -> np.ndarray:
    """Rows x cols matrices of independent Rician fades from standard
    normals (..., 2*rows*cols), real parts then imaginary parts; the fades
    are (..., keep, cols), the first ``keep`` rows (all by default), each
    equal to that row of the whole matrix.

    Each entry is sqrt(gain) * (sqrt(k/(k+1)) * exp(j*theta_los)
    + sqrt(1/(k+1)) * w) with w standard circularly symmetric complex
    Gaussian, so the per-entry mean power equals the path gain. The parts of
    w are the normals times 1/sqrt(2), scaled as real numbers: the bytes of
    the complex expression (x + 1j*y) / sqrt(2) for any normals but exact
    zeros, and for those too once a k > 0 line of sight is added; at k = 0
    a zero part may differ from it in sign alone, which no output reads.
    """
    z = np.reshape(normals, np.shape(normals)[:-1] + (2, rows, cols))[..., :keep, :]
    fade = np.empty(z.shape[:-3] + z.shape[-2:], dtype=complex)
    np.multiply(z[..., 0, :, :], 1.0 / math.sqrt(2.0), out=fade.real)
    np.multiply(z[..., 1, :, :], 1.0 / math.sqrt(2.0), out=fade.imag)
    parts = fade.view(float)              # in place from here: one array per link
    parts *= math.sqrt(1.0 / (spec.kappa + 1.0))
    fade += spec.los if np.ndim(spec.los) < 2 else spec.los[..., :keep, :]
    parts *= math.sqrt(spec.path_gain)
    return fade


@dataclass
class ChannelRealization:
    """The five links of one coherence block of K slots, or of a batch of
    blocks with a leading block axis on every array. ``h_d`` (..., R) and
    ``G_d`` (..., R, N) hold the R receive antennas the realization kept,
    the first R of the model's. The cell groups are not part of the draw:
    :func:`group_cascades` builds the cascades of any cell split where they
    are read."""

    h_d: np.ndarray
    h_r: np.ndarray
    G_d: np.ndarray
    h_e: np.ndarray
    g_e: np.ndarray


def group_cascades(dest, h_r, n1: int, n2s) -> np.ndarray:
    """Cascaded channels (len(n2s), ..., rows, 2) of the two reflecting
    groups under the cell split ``(n1, n2)`` for each absorber count n2 in
    ``n2s``: surface->destination blocks ``dest`` (..., rows, N) times
    transmitter->surface blocks ``h_r`` (..., N) over the first n1 (assist)
    cells, once for every count, then over the cells past the next n2
    (absorbers), one batched matrix-vector product each, so each block's
    cascade equals that of the block alone. The absorbers' cells are never
    read; an empty group gives zeros."""
    assist = (dest[..., :n1] @ h_r[..., :n1, None])[..., 0]
    info = np.stack([(dest[..., n1 + n2:] @ h_r[..., n1 + n2:, None])[..., 0] for n2 in n2s])
    return np.stack(np.broadcast_arrays(assist, info), axis=-1)


def link_shapes(m_rx: int, n_cells: int) -> dict:
    """The (rows, cols) of each link, in the fixed order a block draws them:
    M_R * (N + 1) + 2 * N + 1 complex entries in all."""
    return {"h_d": (m_rx, 1), "h_r": (n_cells, 1), "G_d": (m_rx, n_cells), "h_e": (1, 1),
            "g_e": (n_cells, 1)}


class ChannelModel:
    """Per-run channel generator, built from a checked ``SimConfig`` and the
    run's line-of-sight stream ``rng``. The LoS phases are drawn from ``rng``
    once, link by link under the config's policy, and held fixed for every
    block of the run; only the diffuse components are redrawn per block.
    ``realize`` is pure in the normals it is passed, so independent streams
    may drive concurrent workers. The model knows no cell groups: a
    realization holds the links only."""

    def __init__(self, cfg, rng: np.random.Generator):
        self.m_rx = cfg.m_rx
        self.n_cells = cfg.n_cells
        gain_direct = path_gain(cfg.d_direct_m, cfg.carrier_ghz)
        gain_ris_rx = path_gain(cfg.d_ris_rx_m, cfg.carrier_ghz)
        gains = {"h_d": gain_direct, "h_r": path_gain(cfg.d_tx_ris_m, cfg.carrier_ghz),
                 "G_d": gain_ris_rx, "h_e": gain_direct, "g_e": gain_ris_rx}
        # the shape of each link, drawn in the order of link_shapes
        self.links = link_shapes(cfg.m_rx, cfg.n_cells)
        self.n_normals = 2 * sum(map(math.prod, self.links.values()))
        self.specs = {}
        for name, shape in self.links.items():
            if cfg.los_phase_policy == "zero":
                phase = 0.0
            elif cfg.los_phase_policy == "per-link":
                phase = float(rng.uniform(0.0, 2.0 * np.pi))
            else:
                phase = rng.uniform(0.0, 2.0 * np.pi, size=shape)
            self.specs[name] = RicianSpec(kappa=cfg.kappa, path_gain=gains[name], los_phase=phase)

    def realize(self, normals, m_rx: int | None = None) -> ChannelRealization:
        """The channels of the blocks whose streams drew ``normals``
        (..., n_normals), each fixed for the K slots of its block; one
        stream's ``standard_normal(n_normals)`` gives one block. The
        receive links keep the first ``m_rx`` antennas (all by default),
        bit for bit those of the full realization; the other links are
        whole either way."""
        m_rx = self.m_rx if m_rx is None else m_rx
        links, start = [], 0
        for name, shape in self.links.items():
            stop = start + 2 * math.prod(shape)
            keep = m_rx if name in ("h_d", "G_d") else None
            links.append(sample_rician(self.specs[name], *shape, normals[..., start:stop], keep))
            start = stop
        h_d, h_r, G_d, h_e, g_e = links
        return ChannelRealization(h_d[..., 0], h_r[..., 0], G_d, h_e[..., 0, 0], g_e[..., 0])
