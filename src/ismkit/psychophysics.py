"""Frequency-dependent detection-threshold model and the perceptual intensity map.

Intensity is dimensionless: 1 exactly at the detection threshold, growing as
a power of amplitude over threshold,

    I = (A / A_T(f)) ** (2 * alpha(f))

with A_T interpolated log-log between table knots (vibrotactile sensitivity
curves are straight lines in log-log) and alpha log-linearly. Outside the
table, both clamp to the end values. The map is exactly invertible, which is
what lets resynthesis reproduce the original intensity at a new carrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DataError, FileFormatError, decoding


def _as_points(points: Iterable[tuple[float, float]], what: str) -> np.ndarray:
    arr = np.asarray([(float(f), float(v)) for f, v in points], dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise DataError(f"{what} table must contain at least one (frequency, value) pair")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{what} frequencies and values must be finite")
    if np.any(arr[:, 0] <= 0):
        raise DataError(f"{what} frequencies must be positive")
    if np.any(np.diff(arr[:, 0]) <= 0):
        raise DataError(f"{what} frequencies must be strictly increasing")
    if np.any(arr[:, 1] <= 0):
        raise DataError(f"{what} values must be positive")
    return arr


@dataclass(frozen=True)
class PsychoModel:
    """Detection threshold A_T(f) and growth exponent alpha(f) as knot tables."""

    threshold_points: tuple[tuple[float, float], ...]
    exponent_points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        thr = _as_points(self.threshold_points, "threshold")
        exp = _as_points(self.exponent_points, "exponent")
        object.__setattr__(self, "threshold_points", tuple(map(tuple, thr)))
        object.__setattr__(self, "exponent_points", tuple(map(tuple, exp)))
        object.__setattr__(self, "_log_f_thr", np.log(thr[:, 0]))
        object.__setattr__(self, "_log_a_thr", np.log(thr[:, 1]))
        object.__setattr__(self, "_log_f_exp", np.log(exp[:, 0]))
        object.__setattr__(self, "_alpha", exp[:, 1])


# Artifact default, shaped like a standard U-shaped vibrotactile sensitivity
# curve in sensor-normalized units with a constant growth exponent. Callers
# doing quantitative work should load a model calibrated for their sensor.
DEFAULT_MODEL = PsychoModel(
    threshold_points=((10.0, 100.0), (25.0, 40.0), (50.0, 10.0), (100.0, 2.5),
                      (200.0, 0.65), (250.0, 0.5), (400.0, 1.0), (800.0, 8.0)),
    exponent_points=((10.0, 0.5), (800.0, 0.5)),
)


def _check_freq(f) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if np.any(f <= 0):
        raise DataError("frequency must be positive")
    return f


def threshold_at(model: PsychoModel, f):
    """Detection-threshold amplitude at frequency f (log-log interpolation, clamped)."""
    f = _check_freq(f)
    out = np.exp(np.interp(np.log(f), model._log_f_thr, model._log_a_thr))
    return float(out) if out.ndim == 0 else out


def exponent_at(model: PsychoModel, f):
    """Intensity growth exponent alpha at frequency f (log-linear interpolation, clamped)."""
    f = _check_freq(f)
    out = np.interp(np.log(f), model._log_f_exp, model._alpha)
    return float(out) if out.ndim == 0 else out


def intensity_single(amplitude, f, model: PsychoModel):
    """Perceptual intensity of a single sinusoidal component."""
    a = np.asarray(amplitude, dtype=np.float64)
    if np.any(a < 0):
        raise DataError("amplitude must be non-negative")
    out = (a / threshold_at(model, f)) ** (2.0 * exponent_at(model, f))
    return float(out) if out.ndim == 0 else out


def amplitude_for_intensity(intensity, f_c, model: PsychoModel):
    """Carrier amplitude that produces the given intensity at frequency f_c.

    Exact inverse of intensity_single: A = A_T(f_c) * I ** (1 / (2 alpha)).
    """
    i = np.asarray(intensity, dtype=np.float64)
    if np.any(i < 0):
        raise DataError("intensity must be non-negative")
    out = threshold_at(model, f_c) * i ** (1.0 / (2.0 * exponent_at(model, f_c)))
    return float(out) if out.ndim == 0 else out


def save_model(model: PsychoModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# detection threshold and intensity exponent tables\n")
        for f, a in model.threshold_points:
            fh.write(f"threshold {f:g} {a:g}\n")
        for f, alpha in model.exponent_points:
            fh.write(f"exponent {f:g} {alpha:g}\n")


def load_model(path) -> PsychoModel:
    """Parse a model file of `threshold f a_t` and `exponent f alpha` lines."""
    thresholds: list[tuple[float, float]] = []
    exponents: list[tuple[float, float]] = []
    with open(path, "r", encoding="utf-8") as fh, decoding(path):
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0] not in ("threshold", "exponent"):
                raise FileFormatError(
                    f"{path}:{lineno}: expected 'threshold|exponent <f> <value>', got {line!r}")
            try:
                f, v = float(parts[1]), float(parts[2])
            except ValueError:
                raise FileFormatError(f"{path}:{lineno}: non-numeric field in {line!r}") from None
            (thresholds if parts[0] == "threshold" else exponents).append((f, v))
    if not thresholds or not exponents:
        raise FileFormatError(f"{path}: model needs at least one threshold and one exponent line")
    try:
        return PsychoModel(tuple(thresholds), tuple(exponents))
    except DataError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
