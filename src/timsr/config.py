"""Run configuration with simulation-campaign defaults, plus the flat
``key = value`` config-file format used by the command line.

Every rule on a run's input is checked here, when a :class:`SimConfig` is
built. The builders that a run context is made from (the channel model,
the rectenna models, the surface consumption, the constellation, the
codebook and the block encoder) take these checked values and do not check
them again."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from .channel import LOS_PHASE_POLICIES, link_shapes, path_gain
from .ris import PHI_INFO, TECHNOLOGIES
from .txphy import CODEBOOK_STRATEGIES, CONSTELLATION_KINDS, index_bit_count

SCHEMES = ("tim", "benchmark")
DETECTORS = ("ml", "llr")

# Largest array one trial may hold (2**25 float64 values, 256 MiB).
TRIAL_MAX_VALUES = 2**25


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


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

    def __post_init__(self):
        # Every field has its default's type; a float field or an SNR-grid
        # value is stored as a float, an exact int as that float and -0.0 as
        # 0.0, so configs of equal content compare and hash equal.
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if not _fits(value, kind):
                wanted = "a tuple of numbers" if kind is tuple else _KIND_NAMES[kind]
                raise ValueError(f"{f.name} must be {wanted}, got {value!r}")
            try:
                if kind is float:
                    object.__setattr__(self, f.name, float(value) + 0.0)
                elif kind is tuple:
                    object.__setattr__(self, f.name, tuple(float(v) + 0.0 for v in value))
            except OverflowError as exc:
                raise ValueError(f"{f.name} must be finite: {exc}") from None
            if kind is float and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
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
        for name in ("d_tx_ris_m", "d_ris_rx_m", "d_direct_m"):    # link power gains
            try:
                gain = path_gain(getattr(self, name), self.carrier_ghz)
            except OverflowError:
                gain = math.inf
            if not 0.0 < gain <= 1.0:
                raise ValueError(f"{name} = {getattr(self, name)} m at carrier_ghz = "
                                 f"{self.carrier_ghz} gives path gain {gain}, outside (0, 1]")
        max_l = self.k_slots if self.scheme == "benchmark" else self.k_slots - 1
        if not 1 <= self.l_slots <= max_l:
            raise ValueError(f"need 1 <= l_slots <= {max_l} for scheme {self.scheme!r}")
        if (self.scheme == "tim" and self.codebook_strategy == "table1"
                and (self.k_slots, self.l_slots) != (4, 2)):
            raise ValueError(f"the table1 preset is defined only for K=4, L=2, "
                             f"got K={self.k_slots}, L={self.l_slots}")
        trial_values(self, len(self.snr_db_grid))          # the size guard
        if self.n1 < 0 or self.n2 < 0 or self.n1 + self.n2 > self.n_cells:
            raise ValueError(
                f"cell split n1={self.n1}, n2={self.n2} incompatible with n_cells={self.n_cells}"
            )
        for name in ("p_low_dbm", "p_high_dbm"):
            try:
                watts = dbm_to_watts(getattr(self, name))
            except OverflowError:
                watts = math.inf
            if not (math.isfinite(watts) and watts > 0):
                raise ValueError(f"{name} value {getattr(self, name)} dBm gives no finite "
                                 f"positive power in watts")
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

    @property
    def p_low_w(self) -> float:
        return dbm_to_watts(self.p_low_dbm)

    @property
    def p_high_w(self) -> float:
        return dbm_to_watts(self.p_high_dbm)


def trial_values(cfg: SimConfig, n_points: int, n_counts: int = 1) -> tuple:
    """The largest array one trial holds at ``n_points`` noise variances and
    ``n_counts`` absorber counts: its count of float64 values, and its name
    with its product. A ValueError, advising fewer points of the grid the
    array grows with, if it holds more than TRIAL_MAX_VALUES. A trial draws
    its links' normals; both detectors hold every slot-cost difference of
    ``rx.slot_costs`` at once, as complex values, and their squared parts;
    LLR gathers a codeword's slot LLRs, joint ML its slot minima per phase;
    the harvester stacks its samples and effective channels over the counts.
    No per-run table is larger: the codebook holds |A| * L slots and the
    constellation M points."""
    s, c, j, l = n_points, n_counts, len(PHI_INFO), cfg.l_slots
    n_cw = 1 if cfg.scheme == "benchmark" else 1 << index_bit_count(cfg.k_slots, l)
    link_entries = sum(map(math.prod, link_shapes(cfg.m_rx, cfg.n_cells).values()))
    snr, n2 = "SNR points", "absorber counts"
    arrays = [("link normals", "2 * (M_R * (N + 1) + 2 * N + 1)", (2, link_entries), ""),
              ("slot-cost differences", "2 * S * J * M * K * M_R",
               (2, s, j, cfg.m_order, cfg.k_slots, cfg.m_rx), snr),
              ("codeword slot LLRs", "S * |A| * L", (s, n_cw, l), snr) if cfg.detector == "llr"
              else ("codeword slot minima", "S * J * |A| * L", (s, j, n_cw, l), snr),
              ("harvester samples", "2 * C * K", (2, c, cfg.k_slots), n2),
              ("harvester effective channels", "2 * C * (J + 1)", (2, c, j + 1), n2)]
    values, array, grid = max((math.prod(factors), f"{name} ({product} = "
                               f"{' * '.join(map(str, factors))})", grid)
                              for name, product, factors, grid in arrays)
    if values > TRIAL_MAX_VALUES:
        fewer = f" or fewer {grid}" if grid else ""
        raise ValueError(f"one trial would hold {values} {array}, more than "
                         f"{TRIAL_MAX_VALUES}; use a smaller layout{fewer}")
    return values, array


_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               tuple: "a list of numbers"}


def _fits(value, kind) -> bool:
    """Whether ``value`` may fill a field of type ``kind``: a bool fits only a
    bool field, an int an int or a float field, a tuple of numbers a tuple
    field, anything else its own type."""
    if kind is tuple:
        return isinstance(value, tuple) and all(_fits(v, float) for v in value)
    allowed = (int, float) if kind is float else kind
    return isinstance(value, allowed) and (kind is bool or not isinstance(value, bool))


def make_config(**overrides) -> SimConfig:
    """Build a config; unknown keys are rejected."""
    known = {f.name for f in fields(SimConfig)}
    unknown = set(overrides) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return SimConfig(**overrides)


def _parse_value(kind, text: str):
    text = text.strip()
    if kind is bool:
        lowered = text.lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise ValueError(text)
    if kind is int:
        return int(text)
    if kind is float:
        return float(text)
    if kind is tuple:
        return tuple(float(v) for v in text.split(",") if v.strip())
    return text


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines (with # comments) into typed overrides."""
    kinds = {f.name: type(f.default) for f in fields(SimConfig)}

    overrides, set_on = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in kinds:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in set_on:
            raise ValueError(f"config line {lineno}: key {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            overrides[key] = _parse_value(kinds[key], value)
        except ValueError:
            raise ValueError(f"config line {lineno}: key {key}: cannot parse {value!r} as "
                             f"{_KIND_NAMES[kinds[key]]}") from None
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
