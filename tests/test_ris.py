import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_observation
from oracles import info_reflection, power_reflection, slot_eh_received, slot_rectenna_input
from timsr import make_config
from timsr.channel import make_realization
from timsr.ris import (
    PhaseSet,
    RectennaModel,
    RisPowerBudget,
    align_group1,
    clc_dc_power,
    closest_phase,
    eh_received,
    make_ris_state,
    phase_set_2bit,
    ris_power_consumption,
    ris_rectenna_input,
    wrap_angle,
)

RIS_MODEL = RectennaModel(0.75, 150e-6, 70e-3)
RF_BUDGET = RisPowerBudget(256, 4, 50e-6, "rf-switch", 1e-6, 40e-6, 0.0)
VAR_BUDGET = RisPowerBudget(256, 4, 50e-6, "varactor", 1e-6, 40e-6, 0.0)


def tiny_realization(mu=0.0, n=4, groups=(2, 1, 1)):
    """Single-antenna setup where every assist-group element wants the same
    co-phasing angle mu."""
    h_d = np.array([1.0 + 0j])
    h_r = np.ones(n, dtype=complex)
    G_d = np.ones((1, n), dtype=complex)
    G_d[0, : groups[0]] = np.exp(1j * mu)
    g_e = np.ones(n, dtype=complex)
    return make_realization(h_d, h_r, G_d, 1.0, g_e, groups)


class TestPhaseSet:
    def test_default_two_bit(self):
        ps = phase_set_2bit()
        np.testing.assert_allclose((*ps.phi_info, ps.phi_power), (0.0, 2 * np.pi / 3, 4 * np.pi / 3))
        np.testing.assert_allclose(ps.phi_info, (0.0, 2 * np.pi / 3))
        assert ps.phi_power == pytest.approx(4 * np.pi / 3)
        assert ps.phi_power not in ps.phi_info


class TestClosestPhase:
    PAIR = (0.0, 2 * np.pi / 3)

    def test_exact_match(self):
        assert closest_phase(0.0, self.PAIR) == 0.0

    def test_halfway_leans_to_nearer(self):
        # |2pi/3 - pi/2| = pi/6 < |pi/2 - 0| = pi/2
        assert closest_phase(np.pi / 2, self.PAIR) == pytest.approx(2 * np.pi / 3)

    def test_equidistant_takes_first(self):
        assert closest_phase(np.pi / 3, self.PAIR) == 0.0

    def test_wraps(self):
        # 2pi - 0.1 is closer to 0 than to 2pi/3 once wrapped
        assert closest_phase(2 * np.pi - 0.1, self.PAIR) == 0.0

    @settings(max_examples=100)
    @given(mu=st.floats(-10.0, 10.0))
    def test_member_and_shift_invariant(self, mu):
        got = closest_phase(mu, self.PAIR)
        assert got in self.PAIR
        assert closest_phase(mu + 2 * np.pi, self.PAIR) == got


class TestAlignGroup1:
    def test_zero_offset(self):
        assert align_group1(tiny_realization(0.0), (0.0, 2 * np.pi / 3)) == 0.0

    def test_quantizes_to_nearer_phase(self):
        assert align_group1(tiny_realization(np.pi / 2), (0.0, 2 * np.pi / 3)) == pytest.approx(
            2 * np.pi / 3
        )

    def test_empty_group_defaults_to_first(self):
        ch = tiny_realization(0.0, n=4, groups=(0, 2, 2))
        assert align_group1(ch, (0.5, 1.5)) == 0.5

    def test_uses_direct_link_reference(self):
        # rotating the direct link rotates the desired angle the other way
        ch = tiny_realization(0.0)
        ch.h_d = np.array([np.exp(-1j * np.pi / 2)])
        assert align_group1(ch, (0.0, 2 * np.pi / 3)) == pytest.approx(2 * np.pi / 3)


def reflection_rows(group1_phase, info_phase):
    """Reflection rows of a block whose assist group aligns to
    ``group1_phase`` and whose surface bit (1) selects ``info_phase``."""
    ps = PhaseSet((group1_phase, info_phase), phase_set_2bit().phi_power)
    return make_ris_state(tiny_realization(group1_phase), ps, 1).psi


class TestReflectionVector:
    PS = phase_set_2bit()

    def test_power_stage(self):
        vec = reflection_rows(0.3, 0.9)[-1]
        assert vec[1] == 0.0
        assert vec[0] == pytest.approx(np.exp(-1j * 4 * np.pi / 3))
        assert vec[2] == pytest.approx(np.exp(-1j * 4 * np.pi / 3))

    def test_info_stage(self):
        vec = reflection_rows(0.3, 0.0)[1]
        assert vec[2] == pytest.approx(1.0)
        assert vec[0] == pytest.approx(np.exp(-1j * 0.3))

    @pytest.mark.parametrize("stage", ["info", "power"])
    def test_amplitude_structure(self, stage):
        vec = reflection_rows(1.1, 2.2)[1 if stage == "info" else -1]
        assert vec[1] == 0.0
        assert abs(vec[0]) == pytest.approx(1.0)
        assert abs(vec[2]) == pytest.approx(1.0)

    def test_info_phase_constant_within_block(self):
        ch = tiny_realization(0.0)
        state = make_ris_state(ch, self.PS, 1)
        assert state.psi[state.ris_bit][2] == np.exp(-1j * self.PS.phi_info[1])
        first = state.psi[state.ris_bit]
        np.testing.assert_array_equal(first, make_ris_state(ch, self.PS, 1).psi[1])


class TestRectennaInput:
    def test_no_absorbers(self):
        assert ris_rectenna_input(np.array([]), 1.0) == 0.0

    def test_coherent_pair(self):
        assert ris_rectenna_input(np.array([1.0, 1.0]), 1.0) == pytest.approx(4.0)

    def test_destructive_pair(self):
        assert ris_rectenna_input(np.array([1.0, -1.0]), 0.7 + 0.3j) == pytest.approx(0.0)


class TestClc:
    def test_below_turn_on(self):
        assert clc_dc_power(100e-6, RIS_MODEL) == 0.0
        assert clc_dc_power(RIS_MODEL.p_on_w, RIS_MODEL) == 0.0

    def test_linear_region(self):
        assert clc_dc_power(1e-3, RIS_MODEL) == pytest.approx(637.5e-6, rel=1e-12)

    def test_saturation(self):
        assert clc_dc_power(100e-3, RIS_MODEL) == pytest.approx(52.3875e-3, rel=1e-12)
        assert RIS_MODEL.p_max_w == pytest.approx(52.3875e-3, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            clc_dc_power(-1e-6, RIS_MODEL)

    def test_dense_grid_contract(self):
        grid = np.linspace(0, 0.1, 100_001)
        out = clc_dc_power(grid, RIS_MODEL)
        assert np.all(np.diff(out) >= 0)  # nondecreasing
        assert out.max() == RIS_MODEL.p_max_w  # capped
        just_on = clc_dc_power(RIS_MODEL.p_on_w + 1e-12, RIS_MODEL)
        assert 0 <= just_on < 1e-11  # continuous at turn-on

    @settings(max_examples=100)
    @given(q1=st.floats(0, 0.2), q2=st.floats(0, 0.2))
    def test_monotone(self, q1, q2):
        lo, hi = sorted((q1, q2))
        assert clc_dc_power(lo, RIS_MODEL) <= clc_dc_power(hi, RIS_MODEL)

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            RectennaModel(0.0, 1e-6, 1e-3)
        with pytest.raises(ValueError):
            RectennaModel(0.5, 1e-3, 1e-6)


class TestPowerBudget:
    def test_rf_switch_value(self):
        # ceil(256/4)*50uW + 256*1uW
        assert ris_power_consumption(RF_BUDGET) == pytest.approx(3.456e-3, rel=1e-12)

    def test_varactor_value(self):
        # ceil(256/4)*50uW + 256*(2*40uW + 0)
        assert ris_power_consumption(VAR_BUDGET) == pytest.approx(23.680e-3, rel=1e-12)

    def test_ratio_db(self):
        ratio = 10 * math.log10(ris_power_consumption(VAR_BUDGET) / ris_power_consumption(RF_BUDGET))
        assert ratio == pytest.approx(8.36, abs=0.01)

    def test_ceiling_matters(self):
        odd = RisPowerBudget(257, 4, 50e-6, "rf-switch", 1e-6, 40e-6, 0.0)
        assert ris_power_consumption(odd) == pytest.approx(65 * 50e-6 + 257 * 1e-6, rel=1e-12)

    @settings(max_examples=60)
    @given(n=st.integers(1, 4096))
    def test_varactor_always_costlier_here(self, n):
        # holds whenever 2*p_drive + p_varactor > p_switch
        rf = RisPowerBudget(n, 4, 50e-6, "rf-switch", 1e-6, 40e-6, 0.0)
        var = RisPowerBudget(n, 4, 50e-6, "varactor", 1e-6, 40e-6, 0.0)
        assert ris_power_consumption(var) > ris_power_consumption(rf)

    def test_invalid(self):
        with pytest.raises(ValueError):
            RisPowerBudget(0, 4, 50e-6, "rf-switch", 1e-6, 40e-6, 0.0)
        with pytest.raises(ValueError):
            RisPowerBudget(4, 4, 50e-6, "pin-diode", 1e-6, 40e-6, 0.0)


class TestEhReceived:
    TAU = np.array([0, 1, 0])   # power, information, power slot

    def test_zero_sample(self):
        ch = tiny_realization(0.0)
        state = make_ris_state(ch, phase_set_2bit(), 0)
        eps, q = eh_received(ch, state, self.TAU, np.zeros(3))
        assert np.all(eps == 0.0) and np.all(q == 0.0)

    def test_direct_path_only(self):
        h_d = np.array([1.0 + 0j])
        ch = make_realization(h_d, np.zeros(3, complex), np.zeros((1, 3), complex), 1.0,
                              np.zeros(3, complex), (1, 1, 1))
        p_high = 2.51188643150958
        state = make_ris_state(ch, phase_set_2bit(), 1)
        eps, q = eh_received(ch, state, self.TAU, np.full(3, math.sqrt(p_high)))
        np.testing.assert_allclose(q, p_high, rtol=1e-12)

    def test_slots_equal_per_slot_formulas(self):
        # the helpers vectorised over the slots against one slot at a time
        rng = np.random.default_rng(5)
        cn = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ch = make_realization(cn(2), cn(6), cn(2, 6), complex(cn(1)[0]), cn(6), (2, 3, 1))
        state = make_ris_state(ch, phase_set_2bit(), 1)
        samples = cn(5)
        tau = np.array([1, 0, 0, 1, 0])
        eps, q = eh_received(ch, state, tau, samples)
        g2 = ch.h_r[ch.group_slice(1)]
        q_ris = ris_rectenna_input(g2, samples)
        for k in range(5):
            want_eps, want_q = slot_eh_received(ch, state.psi[state.ris_bit if tau[k] else -1],
                                                samples[k])
            assert eps[k] == pytest.approx(want_eps, rel=1e-12)
            assert q[k] == pytest.approx(want_q, rel=1e-12)
            assert q_ris[k] == pytest.approx(slot_rectenna_input(g2, samples[k]), rel=1e-12)

    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(k_slots=4, l_slots=2, codebook_strategy="table1"),
        dict(los_phase_policy="per-entry"),
        dict(los_phase_policy="zero"),
    ], ids=["default", "table1", "per_entry", "zero"])
    def test_equals_oracle_reflection(self, overrides):
        # the harvester sees the block's surface state: bit for bit the
        # per-group reflection formula at the aligned assist phase
        cfg = make_config(trials=1, **overrides)
        for trial in range(5):
            ctx, _, frame, state, _, ris_bit, ch = build_observation(cfg, 10.0, trial=trial)
            ps = ctx.phase_set
            g1 = align_group1(ch, ps.phi_info)
            e_info = ch.h_e + ch.v_casc @ info_reflection(g1, ps.phi_info[ris_bit])
            e_power = ch.h_e + ch.v_casc @ power_reflection(ps)
            want = np.where(frame.tau == 1, e_info, e_power) * frame.samples
            eps, q = eh_received(ch, state, frame.tau, frame.samples)
            np.testing.assert_array_equal(eps, want)
            np.testing.assert_array_equal(q, np.abs(want) ** 2)


def test_wrap_angle_range():
    for x in np.linspace(-20, 20, 401):
        w = wrap_angle(float(x))
        assert -np.pi < w <= np.pi + 1e-15
        # same angle modulo 2*pi
        assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-12)
        assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-12)


def test_ris_state_requires_binary_bit():
    with pytest.raises(ValueError):
        make_ris_state(tiny_realization(0.0), phase_set_2bit(), 2)
