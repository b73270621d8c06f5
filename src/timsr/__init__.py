"""Link-level Monte Carlo simulator for a time-index-modulated primary link
assisted by a standalone, energy-harvesting reconfigurable surface that
piggybacks one bit per block on the reflected signal."""

from .channel import (
    ChannelModel,
    ChannelRealization,
    RicianSpec,
    make_realization,
    path_gain,
    path_loss_db,
    sample_rician,
)
from .config import SimConfig, config_hash, dbm_to_watts, load_config, make_config, watts_to_dbm
from .ris import (
    PhaseSet,
    RectennaModel,
    RisPowerBudget,
    RisState,
    align_group1,
    clc_dc_power,
    closest_phase,
    eh_received,
    make_ris_state,
    phase_set_2bit,
    phase_set_uniform,
    reflection_vector,
    ris_power_consumption,
    ris_rectenna_input,
    standalone_check,
    wrap_angle,
)
from .rx import (
    DetectionResult,
    Observation,
    llr_detect,
    llr_per_slot,
    ml_joint_detect,
    ml_symbol_phase,
    observe,
    select_info_slots,
)
from .sim import (
    BlockRecord,
    HarvestReport,
    PowerBudgetReport,
    ResultRow,
    ResultTable,
    ber_sweep,
    benchmark_mode,
    build_channel_model,
    default_n2_grid,
    direct_snr_sigma2,
    harvest_sweep,
    make_context,
    power_budget,
    power_budget_report,
    run_block_trial,
    trial_rng,
)
from .txphy import (
    Constellation,
    IndexCodebook,
    TimFrame,
    build_benchmark_codebook,
    build_codebook,
    build_constellation,
    codeword_to_tau,
    decode_frame,
    encode_block,
)

__version__ = "0.1.0"
