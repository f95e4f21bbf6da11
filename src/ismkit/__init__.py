"""Vibration capture to perceptual intensity and back.

The pipeline: decompose measured vibration into intrinsic mode functions,
measure per-5 ms perceptual intensity through a frequency-dependent
detection-threshold model, resynthesize a perceptually equivalent 200 Hz
amplitude-modulated wave, and map intensity onto colored 3D tool
trajectories streamed over a framed binary protocol or recorded for replay.
"""

from .colormap import ColorLut, NormalizationConfig, TURBO, map_color, normalize
from .emd import ImfSet, emd_decompose
from .errors import DataError, FileFormatError, IsmkitError, ProtocolError, UsageError
from .ism import (AnalysisResult, IntensityProfile, StreamingAnalyzer, analyze, convert,
                  fuse_channels, synthesize)
from .psychophysics import (DEFAULT_MODEL, PsychoModel, amplitude_for_intensity,
                            intensity_single, threshold_at)
from .session import ReplayClock, Session, SessionWriter, record, replay
from .signal import MultiChannelWaveform, Waveform, lowfreq_extract
from .trajectory import (PoseSample, ToolCalibration, TrajectoryPoint, build_trajectory,
                         export_ply, pivot_calibrate, tip_position)
from .wavio import load_wav, save_wav
from .wire import (Decoder, End, Frame, FrameSender, Hello, IntensityOnly, Listener,
                   decode, encode)

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult", "ColorLut", "DataError", "Decoder", "DEFAULT_MODEL", "End",
    "FileFormatError", "Frame", "FrameSender", "Hello", "ImfSet", "IntensityOnly",
    "IntensityProfile", "IsmkitError", "Listener",
    "MultiChannelWaveform", "NormalizationConfig", "PoseSample", "ProtocolError",
    "PsychoModel", "ReplayClock", "Session", "SessionWriter", "StreamingAnalyzer",
    "ToolCalibration", "TrajectoryPoint", "TURBO", "UsageError",
    "Waveform", "amplitude_for_intensity", "analyze", "build_trajectory", "convert",
    "decode", "emd_decompose", "encode", "export_ply", "fuse_channels",
    "intensity_single", "load_wav", "lowfreq_extract", "map_color", "normalize",
    "pivot_calibrate", "record", "replay", "save_wav", "synthesize", "threshold_at",
    "tip_position",
]
