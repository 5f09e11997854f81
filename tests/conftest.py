from fractions import Fraction as F

import pytest
from hypothesis import settings

from metrika import metric_signature

from references import from_distance_matrix

# wall-clock deadlines make exact-arithmetic property tests flaky under load
settings.register_profile("metrika", deadline=None)
settings.load_profile("metrika")


@pytest.fixture
def sig():
    return metric_signature()


@pytest.fixture
def tri_space():
    """d(0,1) = d(0,2) = 1/2, d(1,2) = 1."""
    return from_distance_matrix(
        [
            [F(0), F(1, 2), F(1, 2)],
            [F(1, 2), F(0), F(1)],
            [F(1, 2), F(1), F(0)],
        ]
    )


@pytest.fixture
def two_point_half():
    return from_distance_matrix([[F(0), F(1, 2)], [F(1, 2), F(0)]])
