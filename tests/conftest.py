"""Shared fixtures: the three curved pipelines and classical test surfaces."""
import numpy as np
import pytest

import biconsurf as bc
from biconsurf.pipeline import PipelineConfig, build_pipeline_patch
from biconsurf.surfaces import SurfacePatch


def analytic_patch(case, model, fX, fXu, fXv, u_range, v_range):
    """Closed-form patch for fixtures; evaluators valid everywhere."""

    def uline(u):
        return np.asarray(u, dtype=float)

    def at(u, v):
        u, v = np.broadcast_arrays(u, v)
        return fX(u, v), fXu(u, v), fXv(u, v)

    return SurfacePatch(
        case=case,
        model=model,
        u_range=u_range,
        v_range=v_range,
        uline=uline,
        at=at,
        eval_u_domain=(-1e9, 1e9),
    )


def _z(u):
    return np.zeros_like(u)


def _o(u):
    return np.ones_like(u)


def plane_patch():
    return analytic_patch(
        "fixture_plane", bc.R3,
        lambda u, v: np.stack([u, v, _z(u)], -1),
        lambda u, v: np.stack([_o(u), _z(u), _z(u)], -1),
        lambda u, v: np.stack([_z(u), _o(u), _z(u)], -1),
        (-1.0, 1.0), (-1.0, 1.0),
    )


def cylinder_patch():
    return analytic_patch(
        "fixture_cylinder", bc.R3,
        lambda u, v: np.stack([np.cos(u), np.sin(u), v], -1),
        lambda u, v: np.stack([-np.sin(u), np.cos(u), _z(u)], -1),
        lambda u, v: np.stack([_z(u), _z(u), _o(u)], -1),
        (0.0, 6.0), (-1.0, 1.0),
    )


def sphere_patch():
    return analytic_patch(
        "fixture_sphere", bc.R3,
        lambda u, v: np.stack(
            [np.sin(u) * np.cos(v), np.sin(u) * np.sin(v), np.cos(u)], -1),
        lambda u, v: np.stack(
            [np.cos(u) * np.cos(v), np.cos(u) * np.sin(v), -np.sin(u)], -1),
        lambda u, v: np.stack(
            [-np.sin(u) * np.sin(v), np.sin(u) * np.cos(v), _z(u)], -1),
        (0.4, np.pi - 0.4), (0.0, 2 * np.pi),
    )


def great_sphere_patch():
    """Totally geodesic 2-sphere inside the 3-sphere (f = 0, K = 1)."""
    return analytic_patch(
        "fixture_great_sphere", bc.S3,
        lambda u, v: np.stack(
            [np.sin(u) * np.cos(v), np.sin(u) * np.sin(v), np.cos(u), _z(u)], -1),
        lambda u, v: np.stack(
            [np.cos(u) * np.cos(v), np.cos(u) * np.sin(v), -np.sin(u), _z(u)], -1),
        lambda u, v: np.stack(
            [-np.sin(u) * np.sin(v), np.sin(u) * np.cos(v), _z(u), _z(u)], -1),
        (0.4, np.pi - 0.4), (0.0, 2 * np.pi),
    )


@pytest.fixture(scope="session")
def r3_pipeline():
    prof = bc.revolution_profile(1.0, 12.0)
    patch = bc.build_r3_revolution(prof, ((1.5, 8.0), (0.0, 2 * np.pi)))
    report = bc.verify_patch(patch, 64, 64)
    return prof, patch, report


def _curved(model, k0, kp0):
    cfg = PipelineConfig(model=model, k0=k0, kp0=kp0)
    patch, sol = build_pipeline_patch(cfg)
    report = bc.verify_patch(patch, 64, 64)
    return sol, patch.profile, patch, report


@pytest.fixture(scope="session")
def s3_pipeline():
    return _curved("s3", 1.0, 1.0)


@pytest.fixture(scope="session")
def h3e_pipeline():
    return _curved("h3", 1.0, 1.0)


@pytest.fixture(scope="session")
def h3p_pipeline():
    return _curved("h3", 0.25, 0.2)
