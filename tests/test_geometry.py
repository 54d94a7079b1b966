"""Manifold models: canonical forms, frames, seed grids, distances."""

import numpy as np
import pytest

from morseflow import geometry
from morseflow.errors import DegeneratePointError, DimensionError, UnknownManifoldError


def test_parse_manifold_names():
    assert geometry.parse_manifold("torus2").kind == "torus"
    assert geometry.parse_manifold("torus2").n == 2
    assert geometry.parse_manifold("torusN:3").n == 3
    assert geometry.parse_manifold("circle").n == 1
    assert geometry.parse_manifold("circle").kind == "torus"
    assert geometry.parse_manifold("sphere2").n == 2
    assert geometry.parse_manifold("rp2").kind == "projective"
    with pytest.raises(UnknownManifoldError):
        geometry.parse_manifold("klein")
    with pytest.raises(UnknownManifoldError):
        geometry.parse_manifold("rp7")


def test_ambient_dimensions():
    assert geometry.torus(2).ambient_dim == 2
    assert geometry.sphere(2).ambient_dim == 3
    assert geometry.projective(2).ambient_dim == 3


def test_torus_canonicalize_wraps():
    m = geometry.torus(2)
    p = geometry.canonicalize(m, (1.25, -0.5))
    assert np.allclose(p, (0.25, 0.5))
    # idempotent
    assert np.allclose(geometry.canonicalize(m, p), p)


def test_sphere_canonicalize_normalizes():
    m = geometry.sphere(2)
    p = geometry.canonicalize(m, (3.0, 0.0, 4.0))
    assert np.allclose(p, (0.6, 0.0, 0.8))
    with pytest.raises(DegeneratePointError):
        geometry.canonicalize(m, (0.0, 0.0, 0.0))


def test_sphere_canonicalize_survives_overflowing_squares():
    # 3e200^2 overflows; the direction is still (0.6, 0, 0.8), with no warning
    m = geometry.sphere(2)
    p = geometry.canonicalize(m, (3e200, 0.0, 4e200))
    assert np.allclose(p, (0.6, 0.0, 0.8))
    assert geometry.canonicalize(m, (1e308, 0.0, 0.0)).tolist() == [1.0, 0.0, 0.0]


def test_canonicalize_scales_tiny_vectors_and_refuses_only_zero():
    # the squares of 1e-300 underflow; the direction is still (1, 0, 0)
    s, rp = geometry.sphere(2), geometry.projective(2)
    for v in (1e-13, 1e-300, 5e-324):
        assert geometry.canonicalize(s, (v, 0.0, 0.0)).tolist() == [1.0, 0.0, 0.0]
        assert geometry.canonicalize(rp, (0.0, -v, 0.0)).tolist() == [0.0, 1.0, 0.0]
    with pytest.raises(DegeneratePointError):
        geometry.canonicalize(rp, (0.0, -0.0, 0.0))


def test_projective_canonical_pivot_is_one():
    m = geometry.projective(2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=3)
        p = geometry.canonicalize(m, x)
        piv = np.argmax(np.abs(p))
        assert p[piv] == 1.0
        # the antipode lands on the same representative
        q = geometry.canonicalize(m, -x)
        assert np.allclose(p, q)


def test_distance_wraps_and_identifies():
    t = geometry.torus(2)
    assert abs(geometry.distance(t, (0.1, 0.0), (0.9, 0.0)) - 0.2) < 1e-12
    assert geometry.distance(t, (0.3, 0.4), (1.3, -0.6)) < 1e-12

    s = geometry.sphere(2)
    assert abs(geometry.distance(s, (0, 0, 1), (0, 0, -1)) - 2.0) < 1e-12

    p = geometry.projective(2)
    assert geometry.distance(p, (1.0, 0.2, 0.0), (-1.0, -0.2, 0.0)) < 1e-12
    assert geometry.distance(p, (1, 0, 0), (0, 1, 0)) > 1.0


def test_tangent_frame_orthonormal():
    for m in (geometry.sphere(2), geometry.projective(2)):
        x = geometry.canonicalize(m, (0.3, -0.5, 0.81))
        F = geometry.tangent_frame(m, x)
        assert F.shape == (3, 2)
        assert np.allclose(F.T @ F, np.eye(2), atol=1e-12)
        lift = geometry.working_point(m, x)
        assert np.allclose(F.T @ lift, 0.0, atol=1e-12)


def test_seed_points_cover_and_canonical():
    t = geometry.torus(2)
    seeds = geometry.seed_points(t, 4)
    assert len(seeds) == 16
    for s in seeds:
        assert np.all((s >= 0.0) & (s < 1.0))

    sp = geometry.sphere(2)
    for s in geometry.seed_points(sp, 4):
        assert abs(np.linalg.norm(s) - 1.0) < 1e-12


def test_seed_grid_bounded_before_allocation():
    # the default grid of T^4 is exactly MAX_SEEDS
    assert geometry.seed_points(geometry.torus(4), 16).shape == (geometry.MAX_SEEDS, 4)
    for m, grid, fit in ((geometry.torus(5), 16, 9), (geometry.torus(1), 70000, 65536),
                         (geometry.projective(3), 17, 16), (geometry.torus(40), 2, 1)):
        with pytest.raises(DimensionError, match=f"largest grid that fits is {fit}$"):
            geometry.seed_points(m, grid)
