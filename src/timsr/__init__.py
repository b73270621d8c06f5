"""Link-level Monte Carlo simulator for a time-index-modulated primary link
assisted by a standalone, energy-harvesting reconfigurable surface that
piggybacks one bit per block on the reflected signal."""

from .config import make_config

__version__ = "0.1.0"
