import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "fast",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# a deeper run for CI's deep property steps: --hypothesis-profile=deep
settings.register_profile(
    "deep",
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fast")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
