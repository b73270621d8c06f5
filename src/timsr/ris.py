"""Surface-side models: the 2-bit phase set, group-1 co-phasing, each
block's reflection rows, the rectenna harvest curve, and the power budget
that decides whether the surface can run off harvested energy alone."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization

TWO_PI = 2.0 * math.pi

TECH_RF_SWITCH = "rf-switch"
TECH_VARACTOR = "varactor"
TECHNOLOGIES = (TECH_RF_SWITCH, TECH_VARACTOR)


@dataclass(frozen=True)
class PhaseSet:
    """The designated information pair and power phase of a cell. Fixed at
    design time, invariant across channel realizations."""

    phi_info: tuple
    phi_power: float


def phase_set_2bit() -> PhaseSet:
    """The three levels 2*pi*m/3 of a 2-bit cell (one switch port is lost to
    the absorber): (phi1, phi2) = (0, 2*pi/3) carry the surface bit and
    phi_power = 4*pi/3 is the power phase."""
    levels = tuple(TWO_PI * m / 3 for m in range(3))
    return PhaseSet(phi_info=levels[:2], phi_power=levels[2])


def wrap_angle(x: float) -> float:
    """Wrap to (-pi, pi]."""
    return -((-x + math.pi) % TWO_PI - math.pi)


def closest_phase(target: float, candidates) -> float:
    """Candidate minimizing the squared wrapped distance to ``target``;
    ties resolve to the earliest candidate."""
    best = None
    best_d = math.inf
    for c in candidates:
        d = wrap_angle(c - target) ** 2
        if d < best_d:
            best, best_d = c, d
    return float(best)


def align_group1(channel: ChannelRealization, phase_pair) -> float:
    """Phase applied by the assisting group: the information-pair level
    closest to the circular mean, over the group's cells, of the phase that
    co-phases each cascaded path with the direct link (first receive antenna
    as reference)."""
    sl = channel.group_slice(0)
    cascade = channel.G_d[0, sl] * channel.h_r[sl]
    if cascade.size == 0:
        return float(phase_pair[0])
    desired = np.angle(cascade) - np.angle(channel.h_d[0])
    mu = float(np.angle(np.exp(1j * desired).sum()))
    return closest_phase(mu, phase_pair)


@dataclass(frozen=True)
class RisState:
    """Surface configuration for one block, seen by both the receiver and
    the harvester: the aligned assist phase, the surface bit, and the
    reflection rows ``psi`` (J+1, 3) of the groups [psi1, psi2, psi3], one
    row per information phase and a last row for the power phase. The
    absorbing group never reflects (psi2 = 0); the outer groups reflect at
    unit amplitude, with (group1_phase, information phase) in information
    slots and the power phase in power slots. All L information slots of the
    block use row ``ris_bit``."""

    group1_phase: float
    ris_bit: int
    psi: np.ndarray


def make_ris_state(channel: ChannelRealization, phase_set: PhaseSet, ris_bit: int) -> RisState:
    """Configure the surface for a block: bit 0/1 selects the first/second
    information phase; the assist group is co-phased against the channel."""
    if ris_bit not in (0, 1):
        raise ValueError(f"surface bit must be 0 or 1, got {ris_bit}")
    group1_phase = align_group1(channel, phase_set.phi_info)
    p = np.exp(-1j * phase_set.phi_power)
    rows = [[np.exp(-1j * group1_phase), 0.0, np.exp(-1j * th)] for th in phase_set.phi_info]
    return RisState(group1_phase, ris_bit, np.array(rows + [[p, 0.0, p]], dtype=complex))


def ris_rectenna_input(h_r2: np.ndarray, samples):
    """RF power |sum h_r2|^2 |s_k|^2 entering the surface rectenna in each
    slot: the absorbed signals combine coherently before rectification."""
    return np.abs(np.sum(h_r2)) ** 2 * np.abs(samples) ** 2


@dataclass(frozen=True)
class RectennaModel:
    """Constant-linear-constant rectifier: dead below the turn-on power,
    linear with the given efficiency up to saturation, then capped."""

    efficiency: float
    p_on_w: float
    p_sat_w: float

    def __post_init__(self):
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if not 0.0 < self.p_on_w < self.p_sat_w:
            raise ValueError(f"need 0 < p_on < p_sat, got {self.p_on_w}, {self.p_sat_w}")

    @property
    def p_max_w(self) -> float:
        return self.efficiency * (self.p_sat_w - self.p_on_w)


def clc_dc_power(q_w, model: RectennaModel):
    """Harvested DC power for rectenna input ``q_w`` (scalar or array)."""
    q = np.asarray(q_w, dtype=float)
    if np.any(q < 0):
        raise ValueError("rectenna input power cannot be negative")
    out = model.efficiency * np.clip(q - model.p_on_w, 0.0, model.p_sat_w - model.p_on_w)
    return float(out) if np.ndim(q_w) == 0 else out


@dataclass(frozen=True)
class RisPowerBudget:
    """Consumption model of the integrated controller architecture: one
    controller drives ``n_per_controller`` cells; the per-cell dynamic term
    depends on the cell technology."""

    n_cells: int
    n_per_controller: int
    p_controller_w: float
    technology: str
    p_switch_w: float
    p_drive_w: float
    p_varactor_w: float

    def __post_init__(self):
        if self.n_cells < 1 or self.n_per_controller < 1:
            raise ValueError("cell and controller counts must be >= 1")
        if self.technology not in TECHNOLOGIES:
            raise ValueError(f"unknown cell technology {self.technology!r}")


def ris_power_consumption(budget: RisPowerBudget) -> float:
    """Total surface power draw in watts (static controllers + per-cell)."""
    static = math.ceil(budget.n_cells / budget.n_per_controller) * budget.p_controller_w
    if budget.technology == TECH_RF_SWITCH:
        dynamic = budget.n_cells * budget.p_switch_w
    else:
        dynamic = budget.n_cells * (2.0 * budget.p_drive_w + budget.p_varactor_w)
    return static + dynamic


def eh_received(channel: ChannelRealization, state: RisState, tau, samples):
    """Received samples and rectenna input powers at the harvester in each
    slot: direct plus reflected path, under the block's information row of
    ``psi`` where ``tau`` is 1 and the power row elsewhere. Thermal noise is
    below the harvesting floor and is not modeled."""
    e_info = channel.h_e + channel.v_casc @ state.psi[state.ris_bit]
    e_power = channel.h_e + channel.v_casc @ state.psi[-1]
    eps = np.where(np.asarray(tau) == 1, e_info, e_power) * samples
    return eps, np.abs(eps) ** 2
