"""Run configuration with simulation-campaign defaults, plus the flat
``key = value`` config-file format used by the command line."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from .channel import LOS_PHASE_POLICIES, path_gain
from .ris import TECHNOLOGIES
from .txphy import CODEBOOK_STRATEGIES, CONSTELLATION_KINDS

SCHEMES = ("tim", "benchmark")
DETECTORS = ("ml", "llr")

# Largest detector array a config may ask for, in float64 values (2**25 ->
# 256 MiB): joint ML holds one metric per hypothesis, |A| * J * M^L, and the
# LLR path one slot LLR per (point, codeword, slot), S * |A| * L.
ML_MAX_HYPOTHESES = 2**25


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts: float) -> float:
    return 10.0 * math.log10(watts) + 30.0


def direct_snr_sigma2(cfg: "SimConfig", snr_db: float) -> float:
    """Noise variance from the direct-link SNR definition: the direct-path
    gain divided by the linear SNR."""
    return path_gain(cfg.d_direct_m, cfg.carrier_ghz) / (10.0 ** (snr_db / 10.0))


@dataclass(frozen=True)
class SimConfig:
    """All knobs of one run. Defaults are the baseline campaign setup:
    4-QAM, 4 receive antennas, a 256-cell surface split 60/35/161, 2-bit
    cells, 30/34 dBm signal levels at 2 GHz."""

    scheme: str = "tim"
    k_slots: int = 8
    l_slots: int = 2
    m_order: int = 4
    constellation: str = "qam"
    m_rx: int = 4
    n_cells: int = 256
    n1: int = 60
    n2: int = 35
    n_cb: int = 4
    technology: str = "rf-switch"
    p_cb_uw: float = 50.0
    p_switch_uw: float = 1.0
    p_drive_uw: float = 40.0
    p_varactor_uw: float = 0.0
    ris_rho: float = 0.75
    ris_p_on_uw: float = 150.0
    ris_p_sat_mw: float = 70.0
    eh_rho: float = 0.75
    eh_p_on_uw: float = 50.0
    eh_p_sat_mw: float = 0.1
    p_low_dbm: float = 30.0
    p_high_dbm: float = 34.0
    kappa: float = 5.0
    d_tx_ris_m: float = 5.0
    d_ris_rx_m: float = 10.0
    d_direct_m: float = 14.0
    carrier_ghz: float = 2.0
    snr_db_grid: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    trials: int = 1000
    seed: int = 1
    codebook_strategy: str = "lexicographic"
    detector: str = "llr"
    los_phase_policy: str = "per-link"
    omega_phase_rad: float = 0.0
    paper_compat: bool = False

    @property
    def n3(self) -> int:
        return self.n_cells - self.n1 - self.n2

    @property
    def group_sizes(self) -> tuple:
        return (self.n1, self.n2, self.n3)

    @property
    def p_low_w(self) -> float:
        return dbm_to_watts(self.p_low_dbm)

    @property
    def p_high_w(self) -> float:
        return dbm_to_watts(self.p_high_dbm)

    def validate(self) -> None:
        for f in fields(self):
            if type(f.default) is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name, allowed in (("scheme", SCHEMES), ("detector", DETECTORS),
                              ("constellation", CONSTELLATION_KINDS),
                              ("los_phase_policy", LOS_PHASE_POLICIES),
                              ("technology", TECHNOLOGIES),
                              ("codebook_strategy", CODEBOOK_STRATEGIES)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        m = self.m_order
        square = m.bit_length() % 2 == 1                     # 4^n has an odd bit length
        if m < 2 or m & (m - 1) or (self.constellation == "qam" and m > 2 and not square):
            raise ValueError(f"m_order must be a power of two >= 2, and 2 or a square "
                             f"(4, 16, 64, ...) for QAM; got {m}")
        # Lower bounds; distances in meters, the path-loss model's range.
        for name, low in (("k_slots", 1), ("trials", 1), ("n_cb", 1), ("m_rx", 1),
                          ("n_cells", 1), ("kappa", 0.0), ("p_cb_uw", 0.0), ("p_switch_uw", 0.0),
                          ("p_drive_uw", 0.0), ("p_varactor_uw", 0.0),
                          ("d_tx_ris_m", 1.0), ("d_ris_rx_m", 1.0), ("d_direct_m", 1.0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        # The rectenna models' own conditions, in their units (watts).
        for side in ("ris", "eh"):
            rho = getattr(self, f"{side}_rho")
            p_on = getattr(self, f"{side}_p_on_uw") * 1e-6
            p_sat = getattr(self, f"{side}_p_sat_mw") * 1e-3
            if not 0.0 < rho <= 1.0:
                raise ValueError(f"{side}_rho must be in (0, 1], got {rho}")
            if not 0.0 < p_on < p_sat:
                raise ValueError(f"need 0 < {side}_p_on_uw < {side}_p_sat_mw in watts, "
                                 f"got {p_on} W and {p_sat} W")
        if self.carrier_ghz <= 0:
            raise ValueError(f"carrier_ghz must be positive, got {self.carrier_ghz}")
        max_l = self.k_slots if self.scheme == "benchmark" else self.k_slots - 1
        if not 1 <= self.l_slots <= max_l:
            raise ValueError(f"need 1 <= l_slots <= {max_l} for scheme {self.scheme!r}")
        if (self.scheme == "tim" and self.codebook_strategy == "table1"
                and (self.k_slots, self.l_slots) != (4, 2)):
            raise ValueError(f"the table1 preset is defined only for K=4, L=2, "
                             f"got K={self.k_slots}, L={self.l_slots}")
        # |A| * J * M^L with J = 2 information phases and |A| = 2^floor(log2 C(K, L)).
        index_bits = math.comb(self.k_slots, self.l_slots).bit_length() - 1
        n_cw = 1 if self.scheme == "benchmark" else 1 << index_bits
        hypotheses = n_cw * 2 * self.m_order**self.l_slots
        if self.detector == "ml" and hypotheses > ML_MAX_HYPOTHESES:
            raise ValueError(f"the ML detector would score {hypotheses} hypotheses per block "
                             f"(|A| * J * M^L = {n_cw} * 2 * {self.m_order}^{self.l_slots}), more "
                             f"than {ML_MAX_HYPOTHESES}; use detector = llr or a smaller layout")
        slot_sums = len(self.snr_db_grid) * n_cw * self.l_slots
        if self.detector == "llr" and slot_sums > ML_MAX_HYPOTHESES:
            raise ValueError(f"the LLR detector would hold {slot_sums} codeword slot LLRs per "
                             f"trial (S * |A| * L = {len(self.snr_db_grid)} * {n_cw} * "
                             f"{self.l_slots}), more than {ML_MAX_HYPOTHESES}; use a smaller "
                             f"layout or fewer SNR points")
        if self.n1 < 0 or self.n2 < 0 or self.n3 < 0:
            raise ValueError(
                f"cell split n1={self.n1}, n2={self.n2} incompatible with n_cells={self.n_cells}"
            )
        if self.p_high_dbm < self.p_low_dbm:
            raise ValueError("p_high_dbm must be >= p_low_dbm")
        if not self.snr_db_grid:
            raise ValueError("snr_db_grid cannot be empty")
        for snr in self.snr_db_grid:
            try:
                sigma2 = direct_snr_sigma2(self, snr)
            except (OverflowError, ZeroDivisionError):
                sigma2 = math.nan
            if not (math.isfinite(snr) and math.isfinite(sigma2) and sigma2 > 0):
                raise ValueError(f"snr_db_grid value {snr} dB gives no finite positive "
                                 f"noise variance")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def make_config(**overrides) -> SimConfig:
    """Build a validated config; unknown keys are rejected."""
    known = {f.name for f in fields(SimConfig)}
    unknown = set(overrides) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    cfg = SimConfig(**overrides)
    cfg.validate()
    return cfg


def _parse_value(name: str, kind, text: str):
    text = text.strip()
    if kind is bool:
        lowered = text.lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise ValueError(f"config key {name}: cannot parse {text!r} as a boolean")
    if kind is int:
        return int(text)
    if kind is float:
        return float(text)
    if kind is tuple:
        return tuple(float(v) for v in text.split(",") if v.strip())
    return text


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines (with # comments) into typed overrides."""
    defaults = SimConfig()
    kinds = {f.name: type(getattr(defaults, f.name)) for f in fields(SimConfig)}

    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in kinds:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        overrides[key] = _parse_value(key, kinds[key], value)
    return overrides


def load_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return make_config(**parse_config_text(fh.read()))


def config_hash(cfg: SimConfig) -> str:
    """Short stable digest of the full configuration."""
    lines = []
    for f in fields(SimConfig):
        lines.append(f"{f.name}={getattr(cfg, f.name)!r}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]
