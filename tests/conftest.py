import warnings

import numpy as np
import pytest

from risac import Scene, UlaGeometry

pytest_plugins = ["pytester"]

# Hypothesis imports its patch writer when a test fails, and the writer's
# libcst import raises a DeprecationWarning. With warnings as errors that
# would end the whole run in INTERNALERROR, so import it here, once, with
# that warning ignored; every other warning still fails its test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def table2_scene():
    """Geometry and powers of the RIS-aided ISAC example (desk-scale N)."""
    return Scene(
        bs_position=(0.0, 0.0),
        ris_position=(30.0, 30.0),
        target_position=(40.0, 0.0),
        user_position=(20.0, -20.0),
        tx=UlaGeometry(15),
        rx=UlaGeometry(15),
        ris=UlaGeometry(16),
        transmit_power=3.0,
        noise_power_sensing=1e-8,
        noise_power_comms=1e-8,
        samples=64,
        seed=11,
    )


def random_unit_vector(rng, n):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)
