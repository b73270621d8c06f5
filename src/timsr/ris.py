"""Surface-side models: the 2-bit cell's phase levels, group-1 co-phasing,
each block's reflection rows, the rectenna harvest curve, and the power
budget that decides whether the surface can run off harvested energy alone.
One call, :func:`ris_power_consumption`, gives the draw of both cell
technologies.

:func:`received` states the received-signal model once, over the cascades
of the two reflecting groups (the absorbers feed the surface rectenna), for
the receiver (:func:`timsr.rx.observe`) and the harvester
(:func:`harvest_inputs`, every absorber count at once) alike."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, group_cascades

TWO_PI = 2.0 * math.pi

TECH_RF_SWITCH = "rf-switch"
TECH_VARACTOR = "varactor"
TECHNOLOGIES = (TECH_RF_SWITCH, TECH_VARACTOR)

# The three levels 2*pi*m/3 of a 2-bit cell, one switch port being lost to
# the absorber, fixed at design time: the information pair (0, 2*pi/3)
# carries the surface bit and 4*pi/3 is the power phase.
PHI_INFO = tuple(TWO_PI * m / 3 for m in range(2))
PHI_POWER = TWO_PI * 2 / 3


def align_group1(channel: ChannelRealization, n1: int, phase_pair):
    """Phase applied by the assisting group, the first ``n1`` cells: the
    information-pair level closest to the circular mean, over those cells,
    of the phase that co-phases each cascaded path with the direct link
    (first receive antenna as reference). Closest means the least squared
    wrapped distance, first level on ties; an empty group takes the first
    level. A batch of realizations gives one phase per block."""
    pair = np.asarray(phase_pair, dtype=float)
    cascade = channel.G_d[..., 0, :n1] * channel.h_r[..., :n1]
    if cascade.shape[-1] == 0:
        return np.full(cascade.shape[:-1], pair[0])
    desired = np.angle(cascade) - np.angle(channel.h_d[..., :1])
    mu = np.angle(np.exp(1j * desired).sum(axis=-1))
    wrapped = -((-(pair - mu[..., None]) + math.pi) % TWO_PI - math.pi)      # in (-pi, pi]
    return pair[np.argmin(np.float_power(wrapped, 2), axis=-1)]


@dataclass(frozen=True)
class RisState:
    """Surface configuration for one block, seen by both the receiver and
    the harvester: the surface bit and the reflection rows ``psi`` (J+1, 2)
    of the two reflecting groups [assist, information], one row per
    information phase of ``PHI_INFO`` and a last row for ``PHI_POWER``.
    Both groups reflect at unit amplitude, with (aligned assist phase,
    information phase) in information slots and the power phase in power
    slots; the absorbing group never reflects and has no column. All L
    information slots of the block use row ``ris_bit``. A batch of blocks has bits (B,)
    and rows (B, J+1, 2)."""

    ris_bit: int | np.ndarray
    psi: np.ndarray


def make_ris_state(channel: ChannelRealization, n1: int, ris_bit) -> RisState:
    """Configure the surface for a block: bit 0/1 selects the first/second
    information phase of ``PHI_INFO``; the assist group of ``n1`` cells is
    co-phased against the channel onto that pair. A batch of realizations
    takes one bit per block."""
    assist = np.exp(-1j * align_group1(channel, n1, PHI_INFO))
    psi = np.empty(assist.shape + (len(PHI_INFO) + 1, 2), dtype=complex)
    psi[..., :-1, 0] = assist[..., None]
    psi[..., :-1, 1] = np.exp(-1j * np.asarray(PHI_INFO))
    psi[..., -1, :] = np.exp(-1j * PHI_POWER)
    return RisState(ris_bit, psi)


def ris_rectenna_input(h_r2: np.ndarray, slot_power):
    """RF power |sum h_r2|^2 |s_k|^2 entering the surface rectenna in each
    slot: the absorbed signals combine coherently before rectification.
    Absorbers (..., n2) and slot powers |s_k|^2 (..., K) give powers (..., K)."""
    return np.float_power(np.abs(np.sum(h_r2, axis=-1, keepdims=True)), 2) * slot_power


@dataclass(frozen=True)
class RectennaModel:
    """Constant-linear-constant rectifier: dead below the turn-on power,
    linear with the given efficiency up to saturation, then capped."""

    efficiency: float
    p_on_w: float
    p_sat_w: float


def clc_dc_power(q_w, model: RectennaModel):
    """Harvested DC power for rectenna input powers ``q_w`` (...)."""
    return model.efficiency * np.clip(q_w - model.p_on_w, 0.0, model.p_sat_w - model.p_on_w)


def ris_power_consumption(n_cells: int, n_per_controller: int, p_controller_w: float,
                          p_switch_w: float, p_drive_w: float, p_varactor_w: float) -> tuple:
    """Surface power draw in watts ``(rf_switch_w, varactor_w)`` of the
    integrated controller architecture: one controller per ``n_per_controller``
    cells, plus each cell's switch, or its two drive circuits and varactor."""
    static = math.ceil(n_cells / n_per_controller) * p_controller_w
    return static + n_cells * p_switch_w, static + n_cells * (2.0 * p_drive_w + p_varactor_w)


def received(direct, casc, state: RisState, tau, samples):
    """What a destination of R antennas sees through the surface: the
    effective channels ``eff`` (..., J+1, R) direct + F psi, one per row of
    ``state.psi``, F being the reflecting groups' cascades ``casc``
    (..., R, 2) of its links (:func:`timsr.channel.group_cascades`); and the
    noiseless samples (..., K, R) under the block's information row where
    the slot mask ``tau`` (..., K) is true and the power row elsewhere. ``direct`` is
    (..., R). Cascades may carry leading axes that the blocks lack, such as
    one split per absorber count, and every result then carries them too."""
    eff = direct[..., None, :] + (casc[..., None, :, :] @ state.psi[..., None])[..., 0]
    bit = np.asarray(state.ris_bit)
    bit = np.reshape(bit, (1,) * (eff.ndim - 2 - bit.ndim) + bit.shape + (1, 1))
    info = np.take_along_axis(eff, bit, -2)
    return eff, np.where(tau[..., None], info, eff[..., -1:, :]) * samples[..., None]


def harvest_inputs(channel: ChannelRealization, n1: int, n2s, state: RisState, tau, samples):
    """Rectenna input powers (len(n2s), ..., K) at the surface and at the
    harvester for every absorber count in ``n2s`` beside ``n1`` assist
    cells. The surface rectenna's input is :func:`ris_rectenna_input` over
    each count's absorbers, at slot powers computed once. The harvester's
    cascades under each split (:func:`timsr.channel.group_cascades`, the
    assist group's computed once) carry a leading count axis, and one
    :func:`received` call on its single antenna covers them all; each row
    equals that count harvested alone. Thermal noise is below the
    harvesting floor and is not modeled."""
    casc = group_cascades(channel.g_e[..., None, :], channel.h_r, n1, n2s)   # (n2s, ..., 1, 2)
    _, y = received(np.asarray(channel.h_e)[..., None], casc, state, tau, samples)
    power = np.abs(samples) ** 2
    q_ris = np.stack([ris_rectenna_input(channel.h_r[..., n1:n1 + n2], power) for n2 in n2s])
    return q_ris, np.abs(y[..., 0]) ** 2
