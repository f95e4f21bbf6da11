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


TURBO = ColorLut(TURBO_TABLE)
# map_colors' table: TURBO's rows as float64 and the step from each to the next
_TURBO_ROWS = np.array(TURBO_TABLE, dtype=np.float64)
_TURBO_STEPS = np.diff(_TURBO_ROWS, axis=0)


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


def map_color(t: float) -> tuple[int, int, int]:
    """Linearly interpolate TURBO at t in [0, 1]; t=1 hits the last entry exactly."""
    if not 0.0 <= t <= 1.0:
        raise DataError(f"color position {t} outside [0, 1]")
    x = t * (LUT_SIZE - 1)
    i = int(x)
    if i >= LUT_SIZE - 1:
        return TURBO_TABLE[LUT_SIZE - 1]
    frac = x - i
    a = TURBO_TABLE[i]
    b = TURBO_TABLE[i + 1]
    return (round(a[0] + (b[0] - a[0]) * frac),
            round(a[1] + (b[1] - a[1]) * frac),
            round(a[2] + (b[2] - a[2]) * frac))


def map_colors(intensities, config: NormalizationConfig) -> np.ndarray:
    """map_color(normalize(v, config)) of every intensity v, bit for bit, as
    a uint8 array with a last axis of 3, from one lookup over the whole array.

    The same float64 operations in the same order: the position t, its knot
    int(t * 255) and fraction, each channel's interpolation, and rounding
    half to even, as round() does. A value normalize or map_color refuses
    raises the same DataError, for the first such value.
    """
    values = np.asarray(intensities, dtype=np.float64)
    bad = ~(values >= 0.0)  # negative or NaN
    if bad.any():
        first = float(values.flat[np.argmax(bad)])
        map_color(normalize(first, config))
    with np.errstate(over="ignore"):  # a quotient past the float range clamps to 1
        x = np.minimum(values / config.i_max, 1.0) * (LUT_SIZE - 1)
    # t = 1 takes the last knot as knot 254 at fraction 1: a + (b - a) is b
    knot = np.minimum(x.astype(np.intp), LUT_SIZE - 2)
    frac = (x - knot)[..., None]
    return np.rint(_TURBO_ROWS[knot] + _TURBO_STEPS[knot] * frac).astype(np.uint8)
