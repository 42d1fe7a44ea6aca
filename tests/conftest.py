import numpy as np
import pytest

from footcalib import calibration_geometry


@pytest.fixture
def cal_geometry():
    """Posture-relative limits used by the experiment harness."""
    return calibration_geometry()


def brute_force_pair_covariance(x, y):
    """Double-loop covariance oracle: mean-centred outer products, 1/(N-1)."""
    n = len(x)
    mean_x = sum(row for row in x) / n
    mean_y = sum(row for row in y) / n
    acc = np.zeros((3, 3))
    for i in range(n):
        acc += np.outer(x[i] - mean_x, y[i] - mean_y)
    return acc / (n - 1)
