import csv
import math

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


def solve_trace_correlation(sigma_ii, sigma_ff, sigma_if):
    """Trace-correlation oracle by two linear solves: sqrt(Tr(S_II^-1 S_IF S_FF^-1 S_FI) / 3)."""
    product = np.linalg.solve(sigma_ii, sigma_if) @ np.linalg.solve(sigma_ff, sigma_if.T)
    return math.sqrt(np.trace(product) / 3.0)


def read_rows(path):
    """Records of a matrix run's rows.csv, with its float columns parsed."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        for key in ("noise_density", "cn", "cc", "re_deg", "td_error_ms", "geodesic_deg"):
            row[key] = float(row[key])
    return rows
