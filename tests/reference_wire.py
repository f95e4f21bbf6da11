"""Field-by-field wire message checks used as a cross-check oracle in tests.

The checks `Frame` and `IntensityOnly` are measured against: each float is
rounded to float32 and tested for being finite on its own, each integer is
range-checked on its own, in field order, so the first bad field names the
error. Shares no code with the package's one-pack constructors.
"""

import math
import struct

from ismkit.errors import DataError

_F32 = struct.Struct("<f")


def _f32(value, what):
    try:
        packed = _F32.unpack(_F32.pack(float(value)))[0]
    except OverflowError:  # finite, but beyond the float32 range
        packed = math.inf
    if not math.isfinite(packed):
        raise DataError(f"{what} is not a finite float32: {value}")
    return packed


def _u(value, bits, what):
    v = int(value)
    if not 0 <= v < (1 << bits):
        raise DataError(f"{what} out of range for u{bits}: {value}")
    return v


def reference_frame_fields(t_us, position, quaternion, intensity, rgb) -> dict:
    """The fields a valid Frame stores, or the DataError an invalid one raises."""
    t_us = _u(t_us, 64, "t_us")
    pos = tuple(_f32(v, "position") for v in position)
    quat = tuple(_f32(v, "quaternion") for v in quaternion)
    if len(pos) != 3 or len(quat) != 4:
        raise DataError("Frame needs a 3-vector position and 4-vector quaternion")
    intensity = _f32(intensity, "intensity")
    rgb = tuple(_u(c, 8, "rgb") for c in rgb)
    if len(rgb) != 3:
        raise DataError("rgb must have 3 components")
    return {"t_us": t_us, "position": pos, "quaternion": quat, "intensity": intensity,
            "rgb": rgb}


def reference_intensity_fields(t_us, intensity) -> dict:
    """The fields a valid IntensityOnly stores, or the DataError an invalid one raises."""
    return {"t_us": _u(t_us, 64, "t_us"), "intensity": _f32(intensity, "intensity")}
