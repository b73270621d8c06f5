import os

import numpy as np
import pytest

from timsr import make_config
from timsr.rx import unit_noise
from timsr.sim import direct_snr_sigma2, make_context, trial_rng


@pytest.fixture(autouse=True)
def cpu_mask_kept():
    """Fails a test that leaves this process's CPU mask changed, once the mask
    is back, so no later test runs narrowed."""
    if not hasattr(os, "sched_getaffinity"):
        yield
        return
    mask = os.sched_getaffinity(0)
    yield
    left = os.sched_getaffinity(0)
    if left != mask:
        os.sched_setaffinity(0, mask)
        pytest.fail(f"the test left the CPU mask {sorted(left)}, not {sorted(mask)}")


@pytest.fixture
def small_cfg():
    """(4, 2) layout with the hand-fixed codebook; cheap enough for
    exhaustive checks."""
    return make_config(k_slots=4, l_slots=2, codebook_strategy="table1", trials=1)


def draw_channel(model, rng):
    """One block's channels from stream ``rng``, drawn as a trial draws them."""
    return model.realize(rng.standard_normal(model.n_normals))


def draw_noise(shape, rng):
    """Unit noise of ``shape`` from stream ``rng``, drawn as a trial draws it."""
    return unit_noise(shape, rng.standard_normal((2,) + tuple(shape)))


def build_observation(cfg, snr_db, trial=0, ris_bit=None, bits=None):
    """One end-to-end block at the given SNR; returns everything a detector
    test needs: (ctx, obs, frame, state, bits, ris_bit, channel)."""
    from timsr.ris import make_ris_state
    from timsr.rx import observe
    from timsr.txphy import encode_block

    ctx = make_context(cfg, direct_snr_sigma2(cfg, snr_db))
    rng = trial_rng(cfg.seed, trial)
    channel = draw_channel(ctx.channel_model, rng)
    eta = ctx.codebook.bits_index + cfg.l_slots * ctx.constellation.bits_per_symbol
    if bits is None:
        bits = rng.integers(0, 2, size=eta)
    if ris_bit is None:
        ris_bit = int(rng.integers(0, 2))
    frame = encode_block(
        np.asarray(bits), ctx.codebook, ctx.constellation, cfg.p_low_w, cfg.p_high_w
    )
    state = make_ris_state(channel, cfg.n1, ris_bit)
    clean = observe(channel, (cfg.n1, cfg.n2), frame, state)
    obs = clean.with_noise(ctx.sigma2, draw_noise(clean.y.shape, rng))
    return ctx, obs, frame, state, np.asarray(bits), ris_bit, channel
