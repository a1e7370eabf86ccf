"""Deterministic simulator of a 5G mmWave cell: clustering under
localization uncertainty, centroid-pointed beams, and per-beam deep-Q
resource-block scheduling."""

# bench/worker.py calls mmwavesim.parse_config_text and reads mmwavesim.engine after a bare import
from .config import parse_config_text

__version__ = "0.1.0"
