import numpy as np
import pytest
from hypothesis import settings

from ismkit.psychophysics import PsychoModel
from ismkit.signal import Waveform

# more examples for the mutant-file tests, which CI runs with a fixed seed:
# pytest tests/test_trajectory.py -k TestMutatedFiles --hypothesis-profile=mutants
settings.register_profile("mutants", max_examples=1500, deadline=None)

FS = 5000.0


@pytest.fixture
def fs():
    return FS


@pytest.fixture(scope="session")
def flat_model():
    """Threshold 1.0 everywhere, alpha 0.5: intensity equals amplitude."""
    return PsychoModel(threshold_points=((10.0, 1.0), (1000.0, 1.0)),
                       exponent_points=((10.0, 0.5), (1000.0, 0.5)))


@pytest.fixture(scope="session")
def u_model():
    """U-shaped sensitivity curve with constant alpha 0.5."""
    return PsychoModel(
        threshold_points=((10.0, 100.0), (25.0, 40.0), (50.0, 10.0), (100.0, 2.5),
                          (200.0, 0.65), (250.0, 0.5), (400.0, 1.0), (800.0, 8.0)),
        exponent_points=((10.0, 0.5), (800.0, 0.5)))


def tone(freq_hz: float, duration_s: float = 1.0, amplitude: float = 1.0,
         fs: float = FS, phase: float = 0.0) -> Waveform:
    t = np.arange(int(round(duration_s * fs))) / fs
    return Waveform(amplitude * np.sin(2 * np.pi * freq_hz * t + phase), fs)


@pytest.fixture
def make_tone():
    return tone
