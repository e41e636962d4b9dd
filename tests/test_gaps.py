import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcx import gaps
from pcx.numerics import DomainError, QuadratureSpec, integrate_adaptive


@settings(max_examples=80, deadline=None)
@given(alpha=st.floats(-5.0, 5.0))
@example(alpha=1.0)
@example(alpha=-1.0)
def test_g_hat_nonnegative_even_compact(alpha):
    v = float(gaps.g_hat(np.array([alpha]))[0])
    assert v >= 0.0
    assert v == pytest.approx(float(gaps.g_hat(np.array([-alpha]))[0]))
    if abs(alpha) > 1.0:
        assert v == 0.0


def test_g_hat_endpoints():
    assert gaps.g_hat(np.array([0.0]))[0] == pytest.approx(1.0)
    assert gaps.g_hat(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-15)


def test_goldston_lower_values():
    assert gaps.goldston_lower(np.array([1.0]))[0] == pytest.approx(-1.0 / 6.0)
    # positive exactly beyond the critical abscissa
    x = gaps.XI_CRIT
    assert gaps.goldston_lower(np.array([x]))[0] == pytest.approx(0.0, abs=1e-14)
    assert gaps.goldston_lower(np.array([x + 0.1]))[0] > 0
    with pytest.raises(DomainError):
        gaps.goldston_lower(np.array([0.5]))


def test_base_term_matches_quadrature():
    for beta in np.arange(0.5, 1.0 + 1e-9, 0.01):
        closed = gaps._base_term(beta)
        quad = beta - 1.0 + 2.0 * beta * integrate_adaptive(
            lambda a: gaps.g_hat(beta * a) * a, 0.0, 1.0, QuadratureSpec())
        assert abs(closed - quad) < 1e-12


def test_correction_vanishes_when_range_empty():
    # 1/beta <= 1 + 1/sqrt(3) means no correction range
    assert gaps.lower_bound_profile(0.6).correction != 0.0
    assert gaps.lower_bound_profile(0.99).correction == 0.0


def test_profile_total_and_domain():
    p = gaps.lower_bound_profile(0.61)
    assert p.total == pytest.approx(p.base_term + p.correction)
    with pytest.raises(DomainError):
        gaps.lower_bound_profile(0.4)
    with pytest.raises(DomainError):
        gaps.lower_bound_profile(1.2)


def test_thresholds_frozen():
    assert gaps.solve_threshold(True, 1e-8) == pytest.approx(0.6068939677,
                                                             abs=1e-6)
    assert gaps.solve_threshold(False, 1e-8) == pytest.approx(0.6072856459,
                                                              abs=1e-6)
    # the correction can only help: threshold with it is smaller
    assert gaps.solve_threshold(True) < gaps.solve_threshold(False)


def test_selberg_threshold_delegates():
    from pcx.pcbounds import positivity_threshold
    assert gaps.selberg_threshold(1e-8) == pytest.approx(
        positivity_threshold(1e-8), abs=1e-12)
