import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import per_call_links
from timsr import make_config
from timsr.channel import (
    ChannelModel,
    RicianSpec,
    group_cascades,
    path_gain,
    path_loss_db,
    sample_rician,
)
from timsr.sim import LOS_STREAM, make_context, trial_rng


class TestPathLoss:
    def test_reference_point(self):
        assert path_loss_db(1.0, 1.0) == pytest.approx(32.8, abs=1e-12)

    def test_frozen_values(self):
        # 32.8 + 16.9*log10(d) + 20*log10(f), evaluated independently
        assert path_loss_db(10.0, 2.0) == pytest.approx(55.72059991327962, rel=1e-12)
        assert path_loss_db(5.0, 2.0) == pytest.approx(50.63319298655834, rel=1e-12)

    def test_gain_is_inverse_loss(self):
        assert path_gain(14.0, 2.0) == pytest.approx(10 ** (-path_loss_db(14.0, 2.0) / 10))

    @given(
        d1=st.floats(1.0, 500.0),
        scale=st.floats(1.001, 10.0),
        f=st.floats(0.5, 100.0),
    )
    def test_monotone_in_distance(self, d1, scale, f):
        assert path_loss_db(d1 * scale, f) > path_loss_db(d1, f)

    @given(d=st.floats(1.0, 500.0), f1=st.floats(1.0, 50.0), scale=st.floats(1.001, 10.0))
    def test_monotone_in_frequency(self, d, f1, scale):
        assert path_loss_db(d, f1 * scale) > path_loss_db(d, f1)


class TestRician:
    @pytest.mark.parametrize("kappa,gain", [(0.0, 1.0), (5.0, 1.0), (5.0, 1e-5), (2.0, 0.3)])
    def test_mean_power_equals_path_gain(self, kappa, gain):
        rng = np.random.default_rng(123)
        normals = rng.standard_normal(200_000)
        draws = sample_rician(RicianSpec(kappa, gain, 0.7), 100_000, 1, normals)
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(gain, rel=0.02)

    def test_pure_rayleigh_when_kappa_zero(self):
        rng = np.random.default_rng(7)
        draws = sample_rician(RicianSpec(0.0, 1.0, 1.2), 100_000, 1, rng.standard_normal(200_000))
        # no deterministic component survives
        assert np.abs(np.mean(draws)) < 0.02
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_huge_kappa_collapses_to_los(self):
        rng = np.random.default_rng(7)
        draws = sample_rician(RicianSpec(1e9, 0.25, 0.4), 1000, 1, rng.standard_normal(2000))
        assert np.allclose(np.abs(draws), 0.5, rtol=1e-3)
        assert np.allclose(np.angle(draws), 0.4, atol=1e-3)

    def test_los_phase_array(self):
        phases = np.array([[0.0], [np.pi / 2], [np.pi]])
        normals = np.random.default_rng(0).standard_normal(6)
        draws = sample_rician(RicianSpec(1e9, 1.0, phases), 3, 1, normals)
        assert np.allclose(np.angle(draws), phases, atol=1e-3)

    @pytest.mark.parametrize("kappa", [0.0, 5.0, 1e9])
    @pytest.mark.parametrize("phase", [0.0, np.pi, np.array([[0.0, np.pi / 2], [np.pi, 1.0],
                                                             [4.0, 0.0]])],
                             ids=["zero", "pi", "per_entry"])
    def test_mix_equals_complex_expression_at_exact_zeros(self, kappa, phase):
        # planted +-0.0 normals: the real-part mix equals (x + 1j*y) / sqrt(2)
        # scaled and shifted in value at k = 0, where only a zero's sign may
        # differ, and in bytes once a k > 0 line of sight is added
        rng = np.random.default_rng(11)
        normals = rng.standard_normal((50, 12))
        zeros = rng.random(normals.shape) < 0.3
        normals[zeros] = np.where(rng.random(np.count_nonzero(zeros)) < 0.5, 0.0, -0.0)
        spec = RicianSpec(kappa, 0.3, phase)
        z = normals.reshape(50, 2, 3, 2)
        want = 1j * z[:, 1]
        want += z[:, 0]
        want /= math.sqrt(2.0)
        want *= math.sqrt(1.0 / (kappa + 1.0))
        want += spec.los
        want *= math.sqrt(spec.path_gain)
        got = sample_rician(spec, 3, 2, normals)
        if kappa == 0.0:
            assert np.array_equal(got, want)
        else:
            assert got.tobytes() == want.tobytes()


def default_model(policy="per-link", **kw):
    """The model of the default config under ``policy`` and the overrides
    ``kw``, its LoS phases drawn from a fresh stream seeded 99."""
    return ChannelModel(make_config(los_phase_policy=policy, **kw), np.random.default_rng(99))


def draw(model, seed):
    """One block of ``model`` from the normals of a fresh stream seeded ``seed``."""
    return model.realize(np.random.default_rng(seed).standard_normal(model.n_normals))


GROUPS = (60, 35)


def cascades(ch, groups=GROUPS):
    """The receive and harvester cascades of one block under ``groups``."""
    n1, n2 = groups
    return (group_cascades(ch.G_d, ch.h_r, n1, (n2,))[0],
            group_cascades(ch.g_e[None, :], ch.h_r, n1, (n2,))[0, 0])


class TestRealization:
    def test_shapes_baseline_setup(self):
        ch = draw(default_model(), 1)
        assert ch.h_d.shape == (4,)
        assert ch.h_r.shape == (256,)
        assert ch.G_d.shape == (4, 256)
        assert ch.g_e.shape == (256,)
        f_casc, v_casc = cascades(ch)
        assert f_casc.shape == (4, 2)
        assert v_casc.shape == (2,)
        assert np.all(np.isfinite(f_casc))

    def test_cascade_recomputable_exactly(self):
        ch = draw(default_model(), 2)
        f_casc, v_casc = cascades(ch)
        for l, sl in enumerate((slice(0, 60), slice(95, 256))):
            np.testing.assert_array_equal(f_casc[:, l], ch.G_d[:, sl] @ ch.h_r[sl])
            assert v_casc[l] == ch.g_e[sl] @ ch.h_r[sl]

    def test_all_absorbers_leaves_no_reflection(self):
        ch = draw(default_model(), 3)
        f_casc, v_casc = cascades(ch, (0, 256))
        np.testing.assert_array_equal(f_casc[:, 0], np.zeros(4))
        np.testing.assert_array_equal(f_casc[:, 1], np.zeros(4))
        assert v_casc[0] == 0 and v_casc[1] == 0

    def test_determinism(self):
        a = draw(default_model(), 42)
        b = draw(default_model(), 42)
        np.testing.assert_array_equal(a.h_d, b.h_d)
        np.testing.assert_array_equal(a.G_d, b.G_d)
        np.testing.assert_array_equal(cascades(a)[0], cascades(b)[0])

    def test_los_policies(self):
        zero = default_model(policy="zero")
        assert all(spec.los_phase == 0.0 for spec in zero.specs.values())
        entry = default_model(policy="per-entry")
        assert np.shape(entry.specs["G_d"].los_phase) == (4, 256)
        with pytest.raises(ValueError, match="los_phase_policy must be one of"):
            default_model(policy="bogus")

    @pytest.mark.parametrize("policy", ["per-link", "per-entry", "zero"])
    @pytest.mark.parametrize("kappa", [0.0, 5.0, 1e9])
    def test_realize_equals_per_call_los(self, policy, kappa):
        # the once-per-spec line-of-sight term leaves every draw bit for bit
        model = default_model(policy, kappa=kappa)
        for seed in range(3):
            ch = draw(model, seed)
            links = per_call_links(model, np.random.default_rng(seed))
            got = {"h_d": ch.h_d, "h_r": ch.h_r, "G_d": ch.G_d, "h_e": ch.h_e, "g_e": ch.g_e}
            for name, want in links.items():
                want = want.reshape(np.shape(got[name]))
                assert np.asarray(got[name]).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("policy", ["per-link", "per-entry", "zero"])
    @pytest.mark.parametrize("kappa", [0.0, 5.0])
    @pytest.mark.parametrize("m_rx", [1, 4, 9])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["block", "batch"])
    def test_one_antenna_is_row_0_of_the_full_realization(self, policy, kappa, m_rx, lead):
        # the receive links keep row 0 bit for bit, a per-entry LoS array
        # sliced with them; the other links are whole
        model = default_model(policy, kappa=kappa, m_rx=m_rx)
        normals = np.random.default_rng(5).standard_normal(lead + (model.n_normals,))
        full, one = model.realize(normals), model.realize(normals, 1)
        assert one.h_d.shape == lead + (1,) and one.G_d.shape == lead + (1, 256)
        assert one.h_d.tobytes() == full.h_d[..., :1].tobytes()
        assert one.G_d.tobytes() == full.G_d[..., :1, :].tobytes()
        for name in ("h_r", "h_e", "g_e"):
            assert np.asarray(getattr(one, name)).tobytes() == \
                np.asarray(getattr(full, name)).tobytes(), name

    def test_los_phases_fixed_across_blocks(self):
        model = default_model()
        a = draw(model, 1)
        b = draw(model, 2)
        # different diffuse draws, same deterministic component underneath:
        # averaging many blocks converges to the shared LoS mean
        assert not np.array_equal(a.h_d, b.h_d)
        assert model.specs["h_d"].los_phase == model.specs["h_d"].los_phase


def test_context_wires_the_channel_config():
    # every channel field away from its default, so a swapped or dropped one shows
    cfg = make_config(m_rx=3, n_cells=40, n1=10, n2=5, kappa=2.5, carrier_ghz=3.5,
                      d_tx_ris_m=7, d_ris_rx_m=12, d_direct_m=20)
    model = make_context(cfg, None).channel_model
    assert model.links == {"h_d": (3, 1), "h_r": (40, 1), "G_d": (3, 40), "h_e": (1, 1),
                           "g_e": (40, 1)}
    assert model.n_normals == 2 * (3 * 41 + 2 * 40 + 1)
    distances = {"h_d": 20.0, "h_r": 7.0, "G_d": 12.0, "h_e": 20.0, "g_e": 12.0}
    los = trial_rng(cfg.seed, LOS_STREAM)
    for name in distances:                  # in the order the LoS phases are drawn
        spec = model.specs[name]
        assert spec.path_gain == path_gain(distances[name], 3.5), name
        assert spec.kappa == 2.5
        assert spec.los_phase == los.uniform(0.0, 2.0 * np.pi), name


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_moment_property_any_seed(seed):
    rng = np.random.default_rng(seed)
    draws = sample_rician(RicianSpec(3.0, 0.5, 0.1), 20_000, 1, rng.standard_normal(40_000))
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(0.5, rel=0.05)
