import numpy as np
import pytest

from timsr import make_config
from timsr.sim import direct_snr_sigma2, make_context, trial_rng


@pytest.fixture
def small_cfg():
    """(4, 2) layout with the hand-fixed codebook; cheap enough for
    exhaustive checks."""
    return make_config(k_slots=4, l_slots=2, codebook_strategy="table1", trials=1)


def build_observation(cfg, snr_db, trial=0, ris_bit=None, bits=None):
    """One end-to-end block at the given SNR; returns everything a detector
    test needs: (ctx, obs, frame, state, bits, ris_bit, channel)."""
    from timsr.ris import make_ris_state
    from timsr.rx import observe
    from timsr.txphy import encode_block

    ctx = make_context(cfg, direct_snr_sigma2(cfg, snr_db))
    rng = trial_rng(cfg.seed, trial)
    channel = ctx.channel_model.realize(rng)
    eta = ctx.codebook.bits_index + cfg.l_slots * ctx.constellation.bits_per_symbol
    if bits is None:
        bits = rng.integers(0, 2, size=eta)
    if ris_bit is None:
        ris_bit = int(rng.integers(0, 2))
    frame = encode_block(
        np.asarray(bits), ctx.codebook, ctx.constellation, cfg.p_low_w, cfg.p_high_w
    )
    state = make_ris_state(channel, ctx.phase_set, ris_bit)
    obs = observe(channel, frame, state, ctx.sigma2, rng)
    return ctx, obs, frame, state, np.asarray(bits), ris_bit, channel
