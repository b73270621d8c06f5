import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_observation
from oracles import (
    closest_phase,
    info_reflection,
    loop_align_group1,
    power_reflection,
    slot_eh_received,
    slot_rectenna_input,
    wrap_angle,
)
from timsr import make_config
from timsr.channel import ChannelModel, ChannelRealization, group_cascades
from timsr.ris import (
    PHI_INFO,
    PHI_POWER,
    RectennaModel,
    align_group1,
    clc_dc_power,
    harvest_inputs,
    make_ris_state,
    received,
    ris_power_consumption,
    ris_rectenna_input,
)
from timsr.rx import observe
from timsr.sim import make_context
from timsr.txphy import encode_block

RIS_MODEL = RectennaModel(0.75, 150e-6, 70e-3)
# controller, switch, drive-circuit and varactor powers in watts
BUDGET = (50e-6, 1e-6, 40e-6, 0.0)


def tiny_realization(mu=0.0, n=4, n1=2):
    """Single-antenna setup where every element of an assist group of ``n1``
    cells wants the same co-phasing angle mu."""
    h_d = np.array([1.0 + 0j])
    h_r = np.ones(n, dtype=complex)
    G_d = np.ones((1, n), dtype=complex)
    G_d[0, :n1] = np.exp(1j * mu)
    g_e = np.ones(n, dtype=complex)
    return ChannelRealization(h_d, h_r, G_d, 1.0, g_e)


class TestPhaseLevels:
    def test_two_bit_levels(self):
        # the levels 2*pi*m/3 of a 2-bit cell: m = 0, 1 carry the surface
        # bit and m = 2 is the power phase
        assert PHI_INFO + (PHI_POWER,) == tuple(2 * math.pi * m / 3 for m in range(3))
        assert PHI_POWER not in PHI_INFO

    @pytest.mark.parametrize("n1", [0, 2])
    def test_state_reflects_the_levels(self, n1):
        psi = make_ris_state(tiny_realization(0.3), n1, 1).psi
        np.testing.assert_array_equal(psi[:-1, 1], np.exp(-1j * np.asarray(PHI_INFO)))
        np.testing.assert_array_equal(psi[-1], np.exp(-1j * PHI_POWER))


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
        assert align_group1(tiny_realization(0.0), 2, (0.0, 2 * np.pi / 3)) == 0.0

    def test_quantizes_to_nearer_phase(self):
        assert align_group1(tiny_realization(np.pi / 2), 2,
                            (0.0, 2 * np.pi / 3)) == pytest.approx(2 * np.pi / 3)

    def test_empty_group_defaults_to_first(self):
        ch = tiny_realization(0.0, n=4, n1=0)
        assert align_group1(ch, 0, (0.5, 1.5)) == 0.5

    def test_uses_direct_link_reference(self):
        # rotating the direct link rotates the desired angle the other way
        ch = tiny_realization(0.0)
        ch.h_d = np.array([np.exp(-1j * np.pi / 2)])
        assert align_group1(ch, 2, (0.0, 2 * np.pi / 3)) == pytest.approx(2 * np.pi / 3)

    @pytest.mark.parametrize("overrides", [
        dict(), dict(los_phase_policy="per-entry"), dict(kappa=0.0), dict(n1=1, n2=35),
    ], ids=["default", "per_entry", "rayleigh", "one_cell"])
    def test_batch_equals_loop_oracle(self, overrides):
        # one vector call over a batch of blocks equals the closest_phase
        # loop on each block alone, for the real pair and a custom one
        cfg = make_config(trials=1, **overrides)
        model = make_context(cfg, None).channel_model
        normals = np.random.default_rng(5).standard_normal((40, model.n_normals))
        batch = model.realize(normals)
        for pair in (PHI_INFO, (2.5, -1.0)):
            want = [loop_align_group1(model.realize(row), cfg.n1, pair) for row in normals]
            np.testing.assert_array_equal(align_group1(batch, cfg.n1, pair), want)

    @pytest.mark.parametrize("pair", [(-0.5, 0.5), (0.5, -0.5)])
    def test_exact_tie_takes_first(self, pair):
        # the circular mean is exactly 0, equidistant from both levels
        ch = tiny_realization(0.0)
        assert wrap_angle(pair[0]) ** 2 == wrap_angle(pair[1]) ** 2
        assert align_group1(ch, 2, pair) == pair[0] == loop_align_group1(ch, 2, pair)
        batch = ChannelRealization(*(np.stack([x, x]) for x in (ch.h_d, ch.h_r, ch.G_d, ch.h_e,
                                                                 ch.g_e)))
        np.testing.assert_array_equal(align_group1(batch, 2, pair), [pair[0], pair[0]])

    def test_empty_group_batch_takes_first(self):
        model = make_context(make_config(trials=1, n1=0), None).channel_model
        batch = model.realize(np.random.default_rng(2).standard_normal((3, model.n_normals)))
        np.testing.assert_array_equal(align_group1(batch, 0, (0.5, 1.5)), [0.5, 0.5, 0.5])


def reflection_rows(group1_phase, ris_bit=1):
    """Reflection rows of a block whose assist group aligns to
    ``group1_phase``, a level of ``PHI_INFO``, and its surface bit; row
    ``ris_bit`` is the one its information slots use."""
    state = make_ris_state(tiny_realization(group1_phase), 2, ris_bit)
    return state.psi, state.ris_bit


class TestReflectionVector:
    def test_power_stage(self):
        # both groups at the power phase, whatever the assist level and bit
        for group1_phase in PHI_INFO:
            for bit in (0, 1):
                vec = reflection_rows(group1_phase, bit)[0][-1]
                assert vec.shape == (2,)
                assert vec[0] == pytest.approx(np.exp(-1j * 4 * np.pi / 3))
                assert vec[1] == pytest.approx(np.exp(-1j * 4 * np.pi / 3))

    def test_info_stage(self):
        # the bit picks the information row: the aligned assist phase
        # beside the bit's information phase
        for bit, info in enumerate((1.0, np.exp(-1j * 2 * np.pi / 3))):
            psi, ris_bit = reflection_rows(2 * np.pi / 3, bit)
            vec = psi[ris_bit]
            assert vec[1] == pytest.approx(info)
            assert vec[0] == pytest.approx(np.exp(-1j * 2 * np.pi / 3))

    @pytest.mark.parametrize("stage", ["info", "power", "info-bit0"])
    def test_amplitude_structure(self, stage):
        psi, _ = reflection_rows(PHI_INFO[1])
        vec = psi[{"info": 1, "power": -1, "info-bit0": 0}[stage]]
        assert vec.shape == (2,)
        assert abs(vec[0]) == pytest.approx(1.0)
        assert abs(vec[1]) == pytest.approx(1.0)

    def test_info_phase_constant_within_block(self):
        psi, ris_bit = reflection_rows(PHI_INFO[0])
        assert psi[ris_bit][1] == np.exp(-1j * PHI_INFO[1])
        np.testing.assert_array_equal(psi[ris_bit], reflection_rows(PHI_INFO[0])[0][1])


class TestRectennaInput:
    def test_no_absorbers(self):
        assert ris_rectenna_input(np.array([]), 1.0) == 0.0

    def test_coherent_pair(self):
        assert ris_rectenna_input(np.array([1.0, 1.0]), 1.0) == pytest.approx(4.0)

    def test_destructive_pair(self):
        assert ris_rectenna_input(np.array([1.0, -1.0]), abs(0.7 + 0.3j) ** 2) == pytest.approx(0.0)


class TestClc:
    def test_below_turn_on(self):
        assert clc_dc_power(100e-6, RIS_MODEL) == 0.0
        assert clc_dc_power(RIS_MODEL.p_on_w, RIS_MODEL) == 0.0

    def test_linear_region(self):
        assert clc_dc_power(1e-3, RIS_MODEL) == pytest.approx(637.5e-6, rel=1e-12)

    def test_saturation(self):
        assert clc_dc_power(100e-3, RIS_MODEL) == pytest.approx(52.3875e-3, rel=1e-12)
        assert RIS_MODEL.p_max_w == pytest.approx(52.3875e-3, rel=1e-12)

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


class TestPowerBudget:
    def test_rf_switch_value(self):
        # ceil(256/4)*50uW + 256*1uW
        assert ris_power_consumption(256, 4, *BUDGET)[0] == pytest.approx(3.456e-3, rel=1e-12)

    def test_varactor_value(self):
        # ceil(256/4)*50uW + 256*(2*40uW + 0)
        assert ris_power_consumption(256, 4, *BUDGET)[1] == pytest.approx(23.680e-3, rel=1e-12)

    def test_static_term_then_per_cell_term(self):
        # the controllers' draw first, then each technology's per-cell draw
        assert ris_power_consumption(256, 4, 50e-6, 1e-6, 40e-6, 3e-6) == (
            64 * 50e-6 + 256 * 1e-6, 64 * 50e-6 + 256 * (2.0 * 40e-6 + 3e-6))

    def test_ratio_db(self):
        rf, var = ris_power_consumption(256, 4, *BUDGET)
        assert 10 * math.log10(var / rf) == pytest.approx(8.36, abs=0.01)

    def test_ceiling_matters(self):
        rf, _ = ris_power_consumption(257, 4, *BUDGET)
        assert rf == pytest.approx(65 * 50e-6 + 257 * 1e-6, rel=1e-12)

    @settings(max_examples=60)
    @given(n=st.integers(1, 4096))
    def test_varactor_always_costlier_here(self, n):
        # holds whenever 2*p_drive + p_varactor > p_switch
        rf, var = ris_power_consumption(n, 4, *BUDGET)
        assert var > rf


def harvester_view(ch, split, state, tau, samples):
    """The harvester's samples in each slot, from ``received`` on its single
    antenna over its cascades under ``split``, and its rectenna input powers
    from ``harvest_inputs`` at that one absorber count."""
    n1, n2 = split
    casc = group_cascades(ch.g_e[..., None, :], ch.h_r, n1, (n2,))[0]
    _, y = received(np.asarray(ch.h_e)[..., None], casc, state, tau, samples)
    (q,) = harvest_inputs(ch, n1, (n2,), state, tau, samples)[1]
    return y[..., 0], q


class TestEhReceived:
    TAU = np.array([0, 1, 0])   # power, information, power slot

    def test_zero_sample(self):
        ch = tiny_realization(0.0)
        state = make_ris_state(ch, 2, 0)
        eps, q = harvester_view(ch, (2, 1), state, self.TAU, np.zeros(3))
        assert np.all(eps == 0.0) and np.all(q == 0.0)

    def test_direct_path_only(self):
        h_d = np.array([1.0 + 0j])
        ch = ChannelRealization(h_d, np.zeros(3, complex), np.zeros((1, 3), complex), 1.0,
                                np.zeros(3, complex))
        p_high = 2.51188643150958
        state = make_ris_state(ch, 1, 1)
        eps, q = harvester_view(ch, (1, 1), state, self.TAU, np.full(3, math.sqrt(p_high)))
        np.testing.assert_allclose(q, p_high, rtol=1e-12)

    def test_slots_equal_per_slot_formulas(self):
        # the helpers vectorised over the slots against one slot at a time
        rng = np.random.default_rng(5)
        cn = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ch = ChannelRealization(cn(2), cn(6), cn(2, 6), complex(cn(1)[0]), cn(6))
        groups = (2, 3)
        state = make_ris_state(ch, groups[0], 1)
        samples = cn(5)
        tau = np.array([1, 0, 0, 1, 0])
        eps, q = harvester_view(ch, groups, state, tau, samples)
        g2 = ch.h_r[2:5]
        q_ris = ris_rectenna_input(g2, np.abs(samples) ** 2)
        for k in range(5):
            want_eps, want_q = slot_eh_received(ch, groups,
                                                state.psi[state.ris_bit if tau[k] else -1],
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
            _, _, frame, state, _, ris_bit, ch = build_observation(cfg, 10.0, trial=trial)
            g1 = align_group1(ch, cfg.n1, PHI_INFO)
            v_casc = group_cascades(ch.g_e[None, :], ch.h_r, cfg.n1, (cfg.n2,))[0, 0]
            e_info = ch.h_e + v_casc @ info_reflection(g1, PHI_INFO[ris_bit])
            e_power = ch.h_e + v_casc @ power_reflection()
            want = np.where(frame.tau == 1, e_info, e_power) * frame.samples
            eps, q = harvester_view(ch, (cfg.n1, cfg.n2), state, frame.tau, frame.samples)
            np.testing.assert_array_equal(eps, want)
            np.testing.assert_array_equal(q, np.abs(want) ** 2)


class TestHarvestInputs:
    """The stacked pass over every absorber count equals the harvest of each
    count alone, bit for bit."""

    @pytest.mark.parametrize("n1, n2s", [
        (3, (0, 34, 9)),            # no absorbers; n2 = N - n1 leaves group 3 empty
        (0, (2, 37, 0)),            # no assist cells; n2 = N leaves the direct link alone
        (5, (14, 0, 7, 14, 2, 0)),  # an unsorted grid with repeats
    ], ids=["ends", "no_assist", "unsorted_repeats"])
    @pytest.mark.parametrize("lead", [(), (6,)], ids=["one_block", "blocks"])
    def test_equals_each_count_alone(self, n1, n2s, lead):
        n = 37                      # group edges off multiples of 4, where a masked product differs
        rng = np.random.default_rng(n1)
        model = ChannelModel(make_config(m_rx=2, n_cells=n, n1=0, n2=0), rng)
        ch = model.realize(rng.standard_normal(lead + (model.n_normals,)))
        state = make_ris_state(ch, n1, rng.integers(0, 2, lead))
        tau = rng.integers(0, 2, lead + (5,))
        samples = rng.standard_normal(lead + (5,)) + 1j * rng.standard_normal(lead + (5,))
        q_ris, q_eh = harvest_inputs(ch, n1, n2s, state, tau, samples)
        assert q_ris.shape == q_eh.shape == (len(n2s),) + lead + (5,)
        for row, n2 in enumerate(n2s):
            np.testing.assert_array_equal(
                q_ris[row], ris_rectenna_input(ch.h_r[..., n1:n1 + n2], np.abs(samples) ** 2))
            np.testing.assert_array_equal(
                q_eh[row], harvest_inputs(ch, n1, (n2,), state, tau, samples)[1][0])


@pytest.mark.parametrize("lead", [(), (3,)], ids=["one_block", "blocks"])
def test_absorbers_are_invisible_to_reflection(lead):
    """The absorbers' links reach the surface rectenna only: redrawing them
    changes its input and leaves the surface state, the receiver's samples
    and effective channels and the harvester's input bit for bit."""
    cfg = make_config(k_slots=4, l_slots=2, codebook_strategy="table1", trials=1)
    ctx = make_context(cfg, None)
    rng = np.random.default_rng(11)
    ch = ctx.channel_model.realize(rng.standard_normal(lead + (ctx.channel_model.n_normals,)))
    eta = ctx.codebook.bits_index + cfg.l_slots * ctx.constellation.bits_per_symbol
    frame = encode_block(rng.integers(0, 2, lead + (eta,)), ctx.codebook, ctx.constellation,
                         cfg.p_low_w, cfg.p_high_w)
    ris_bit = rng.integers(0, 2, lead)
    absorbers = slice(cfg.n1, cfg.n1 + cfg.n2)
    moved = ChannelRealization(ch.h_d, ch.h_r.copy(), ch.G_d.copy(), ch.h_e, ch.g_e.copy())
    for link in (moved.h_r, moved.G_d, moved.g_e):
        shape = link[..., absorbers].shape
        link[..., absorbers] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    views = []
    for c in (ch, moved):
        state = make_ris_state(c, cfg.n1, ris_bit)
        obs = observe(c, (cfg.n1, cfg.n2), frame, state)
        q_ris, q_eh = harvest_inputs(c, cfg.n1, (cfg.n2,), state, frame.tau, frame.samples)
        views.append((state.psi, obs.y, obs.eff, q_eh, q_ris))
    (*same, q_ris), (*same_moved, q_ris_moved) = views
    for want, got in zip(same, same_moved):
        assert got.tobytes() == want.tobytes()
    assert not np.array_equal(q_ris_moved, q_ris)


def test_wrap_angle_range():
    for x in np.linspace(-20, 20, 401):
        w = wrap_angle(float(x))
        assert -np.pi < w <= np.pi + 1e-15
        # same angle modulo 2*pi
        assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-12)
        assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-12)
