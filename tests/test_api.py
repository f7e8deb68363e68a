"""The package's public names: each is read by a CLI path, a report field or a
gate, or is a quantity of the paper that the README documents."""
import types

import pytest

import biconsurf as bc
from biconsurf import ambient, errors, mesh, pipeline, profile, surfaces, verify

PUBLIC = set("""
    EUCLIDEAN3 EUCLIDEAN4 H3 LORENTZ4 R3 S3 Signature SpaceForm space_form CurvatureSolution
    admissible_interval kappa2 ode_rhs prime_constant prime_poly solve_curvature w_value
    ConditioningError ConstructionError DomainError GeometryError NoSolutionError
    ProjectionError UsageError Branch ProfileCurve RevolutionProfile reconstruct_profile
    revolution_profile SurfacePatch build_h3 build_r3_revolution build_s3 Mesh poincare_ball
    sample_mesh stereographic write_obj write_ply FDScheme PointGeometry VerificationReport
    fd_for_patch point_geometry verify_patch PipelineConfig cmd_profile cmd_solve cmd_surface
    cmd_sweep
""".split())

# names only the tests reached (the construction oracles moved to test_surfaces)
REMOVED = [(owner, name) for owner, names in [
    (verify, "biconservative_residual curvature_identity_residuals pde_residual "
             "normal_bitension_residual x2f_residual fundamental_forms"),
    (ambient, "orthonormal_complement"), (ambient.SpaceForm, "ricci_normal on_model norm"),
    (errors, "DegenerateSpanError"), (mesh.Mesh, "triangles"),
    (profile.ProfileCurve, "normal velocity"), (pipeline.PipelineConfig, "resolved_branch"),
    (surfaces, "killing_tangency_check circle_radius expected_circle_radius"),
] for name in names.split()]


def test_public_names_are_pinned():
    names = {name for name, value in vars(bc).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC


@pytest.mark.parametrize("owner, name", REMOVED, ids=[f"{o.__name__}.{n}" for o, n in REMOVED])
def test_removed_name_stays_removed(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(bc, name)
