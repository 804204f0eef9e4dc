"""Closed-form roots of the speed quartic, and criterion 3's real-root count,
against Viete and an eigenvalue count."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenmag import acceptance
from heisenmag.quartic import (
    InitialData,
    build_profile,
    discriminant,
    monic_coefficients,
    quartic_roots,
)

# 0 or +-10^e, e in [-3, 3]
magnitude = st.one_of(
    st.just(0.0),
    st.builds(
        lambda sign, e: sign * 10.0 ** e,
        st.sampled_from([-1.0, 1.0]),
        st.floats(-3.0, 3.0),
    ),
)


def in_band(p0, q0, rho):
    scale = max(1.0, abs(2 * p0), abs(8 * rho) ** (2 / 3), abs(q0) ** 0.5)
    return abs(discriminant(p0, q0, rho)) <= 1e-9 * scale ** 6


def eigenvalue_real_counts(coef):
    """Real-root counts from the companion matrices' eigenvalues, one batched call."""
    p0, q0, rho = np.asarray(coef, dtype=float).T
    companion = np.zeros((len(p0), 4, 4))
    companion[:, 0, 1:] = np.stack([-2.0 * p0, 8.0 * rho, -q0], axis=1)
    companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    eig = np.linalg.eigvals(companion)
    scale = np.maximum(1.0, np.abs(eig).max(axis=1, keepdims=True))
    return np.sum(np.abs(eig.imag) <= 1e-7 * scale, axis=1)


def closed_form_real_count(roots):
    return int(np.sum(roots.imag == 0.0))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(magnitude, magnitude, magnitude, magnitude)
def test_viete_and_real_count(x0, y0, z0, rho):
    p0, q0 = monic_coefficients(InitialData(x0, y0, z0, rho))
    r = quartic_roots(p0, q0, rho)
    rscale = max(1.0, float(np.max(np.abs(r))))
    e1 = np.sum(r)
    e2 = r[0] * (r[1] + r[2] + r[3]) + r[1] * (r[2] + r[3]) + r[2] * r[3]
    e3 = r[0] * r[1] * (r[2] + r[3]) + (r[0] + r[1]) * r[2] * r[3]
    e4 = np.prod(r)
    assert abs(e1) <= 1e-12 * rscale
    assert abs(e2 - 2 * p0) <= 1e-12 * rscale ** 2
    assert abs(e3 - 8 * rho) <= 1e-12 * rscale ** 3
    assert abs(e4 - q0) <= 1e-12 * rscale ** 4
    if not in_band(p0, q0, rho):
        assert closed_form_real_count(r) == eigenvalue_real_counts([(p0, q0, rho)])[0]


def magnitude_box():
    """(p0, q0, rho) rows off the Delta = 0 band among 2,000 seeded draws,
    each coordinate +-10^e with e in [-3, 3], and rho = 0 in about a quarter."""
    rng = np.random.default_rng(6)
    coef = []
    for _ in range(2000):
        v = rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-3.0, 3.0, 4)
        if rng.uniform() < 0.25:
            v[3] = 0.0
        p0, q0 = monic_coefficients(InitialData(*v))
        if not in_band(p0, q0, v[3]):
            coef.append((p0, q0, v[3]))
    return coef


def test_real_count_matches_eigenvalues_on_magnitude_box():
    coef = magnitude_box()
    assert len(coef) > 1000
    counts = [closed_form_real_count(quartic_roots(*row)) for row in coef]
    assert np.array_equal(np.array(counts), eigenvalue_real_counts(coef))


def test_critical_value_count_matches_eigenvalues():
    # criterion 3's columns at seeds 0-4 off its Delta = 0 band, and the magnitude box
    rows = [np.array(magnitude_box())]
    for seed in range(5):
        draws = np.random.default_rng(seed).uniform(-3.0, 3.0, (10_000, 4))
        p0, q0, rho, delta, band = acceptance._discriminant_columns(draws)
        rows.append(np.stack([p0, q0, rho], axis=1)[np.abs(delta) > band])
    coef = np.concatenate(rows)
    assert len(coef) > 50_000
    counts = acceptance._real_root_counts(*coef.T)
    assert np.array_equal(counts, eigenvalue_real_counts(coef))


@pytest.mark.parametrize("roots, n_real, three_critical_points", [
    ([-3, -1, 1, 3], 4, True),  # rho = 0
    ([-2, 0, 1 + 1j, 1 - 1j], 2, False),
    ([1 + 1j, 1 - 1j, -1 + 2j, -1 - 2j], 0, False),
    ([-1, 1, 1j, -1j], 2, False),  # eta^4 - 1: rho = p0 = 0, so A = 0
], ids=["four-real", "two-real", "none-real", "eta4-minus-1"])
def test_critical_value_count_on_exact_quartics(roots, n_real, three_critical_points):
    one, cubic, two_p0, minus_8rho, q0 = np.poly(roots).real  # exact on small integers
    assert (one, cubic) == (1.0, 0.0)
    p0, rho = two_p0 / 2.0, -minus_8rho / 8.0
    assert (p0 ** 3 + 27.0 * rho * rho < 0.0) == three_critical_points
    counts = acceptance._real_root_counts(np.array([p0]), np.array([q0]), np.array([rho]))
    assert counts.tolist() == [n_real]


def test_exact_double_roots():
    # (eta^2 - 1)^2 at rho = 0: the factorisation gives +-1 exactly
    prof = build_profile(InitialData(0.0, -1.0, 1.0, 0.0))
    assert prof.roots == (-1.0, -1.0, 1.0, 1.0)
    # (eta - 2)^2 (eta + 1)(eta + 3) = eta^4 - 9 eta^2 + 4 eta + 12, rho = -1/2
    assert sorted(quartic_roots(-4.5, 12.0, -0.5).real) == [-3.0, -1.0, 2.0, 2.0]
