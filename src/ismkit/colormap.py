"""Intensity normalization with saturation clamp and color lookup."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._turbo_data import TURBO_TABLE
from .errors import DataError

LUT_SIZE = 256


@dataclass(frozen=True)
class ColorLut:
    """A 256-entry RGB lookup table."""

    table: tuple[tuple[int, int, int], ...]
    name: str = "custom"

    def __post_init__(self):
        table = tuple(tuple(int(c) for c in rgb) for rgb in self.table)
        if len(table) != LUT_SIZE:
            raise DataError(f"LUT must have exactly {LUT_SIZE} entries, got {len(table)}")
        for rgb in table:
            if len(rgb) != 3 or any(c < 0 or c > 255 for c in rgb):
                raise DataError(f"LUT entry {rgb} out of range 0..255")
        object.__setattr__(self, "table", table)


TURBO = ColorLut(TURBO_TABLE, name="turbo")


@dataclass(frozen=True)
class NormalizationConfig:
    """Preset maximum intensity; everything at or above it maps to 1."""

    i_max: float

    def __post_init__(self):
        if not np.isfinite(self.i_max) or self.i_max <= 0:
            raise DataError(f"i_max must be a positive finite number, got {self.i_max}")


def normalize(intensity: float, config: NormalizationConfig) -> float:
    """Map intensity to [0, 1] as intensity / i_max, clamped at 1."""
    if intensity < 0:
        raise DataError(f"intensity must be non-negative, got {intensity}")
    return min(intensity / config.i_max, 1.0)


def map_color(t: float, lut: ColorLut = TURBO) -> tuple[int, int, int]:
    """Linearly interpolate the LUT at t in [0, 1]; t=1 hits the last entry exactly."""
    if not 0.0 <= t <= 1.0:
        raise DataError(f"color position {t} outside [0, 1]")
    x = t * (LUT_SIZE - 1)
    i = int(x)
    if i >= LUT_SIZE - 1:
        return lut.table[LUT_SIZE - 1]
    frac = x - i
    a = lut.table[i]
    b = lut.table[i + 1]
    return (round(a[0] + (b[0] - a[0]) * frac),
            round(a[1] + (b[1] - a[1]) * frac),
            round(a[2] + (b[2] - a[2]) * frac))
