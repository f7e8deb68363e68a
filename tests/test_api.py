"""The package's public names: each is read by a CLI path, a report field or a
gate, or is a quantity of the paper that the README documents."""
import dataclasses
import inspect
import re
import types
from pathlib import Path

import pytest

import biconsurf as bc
from biconsurf import (
    ambient, curvature, defaults, errors, mesh, pipeline, profile, surfaces, verify,
)
from conftest import recorded_runs

PUBLIC = set("""
    EUCLIDEAN3 EUCLIDEAN4 H3 LORENTZ4 R3 S3 Signature SpaceForm space_form CurvatureSolution
    admissible_interval kappa2 ode_rhs prime_constant prime_poly solve_curvature w_value
    ConditioningError ConstructionError DomainError GeometryError NoSolutionError
    ProjectionError UsageError Branch ProfileCurve RevolutionProfile reconstruct_profile
    revolution_profile SurfacePatch build_h3 build_r3_revolution build_s3 Mesh poincare_ball
    sample_mesh stereographic write_obj write_ply PointGeometry VerificationReport
    point_geometry verify_patch PipelineConfig cmd_profile cmd_solve cmd_surface cmd_sweep
""".split())

# names only the tests reached (the construction oracles moved to test_surfaces),
# and the curvature record's fields that nothing outside the tests read
REMOVED = [(owner, name) for owner, names in [
    (verify, "biconservative_residual curvature_identity_residuals pde_residual "
             "normal_bitension_residual x2f_residual fundamental_forms"),
    (ambient, "orthonormal_complement"), (ambient.SpaceForm, "ricci_normal on_model norm"),
    (errors, "DegenerateSpanError"), (mesh.Mesh, "triangles"),
    (profile.ProfileCurve, "normal velocity"), (pipeline.PipelineConfig, "resolved_branch"),
    (surfaces, "killing_tangency_check circle_radius expected_circle_radius"),
    (surfaces.SurfacePatch, "Xu Xv"), (ambient.Signature, "metric"),
    (mesh.Mesh, "grid_shape"), (verify.VerificationReport, "grid_u grid_v"),
    (curvature.CurvatureSolution, "k_interval requested_span k_samples k0 kp0 abs_tol"),
    (curvature, "_DRIFT_MAX_SAMPLES _step_interpolant"), (curvature._Dop853Run, "steps"),
    # the finite-difference cross-checks, their step and the build span's pad
    (verify, "FDScheme fd_scheme fd_for_patch _FD_ROWS _fd_steps _fd_cross_check "
             "_SECOND_TABLE _HIGHER_TABLE _HIGHER_STRIDE"),
    (verify._Probe, "shifted_jets"), (defaults, "FD_INNER_REL"),
    (surfaces.SurfacePatch, "rect_diagonal"),
    (pipeline, "_span_pad _padded_span _check_span _check_build"),
    # a patch is its profile's sweep: the rectangle is the evaluable domain,
    # C and the sweep constants are the profile's, f = 2k is a profile row
    (surfaces.SurfacePatch, "eval_u_domain C C1 C2 reference"), (verify, "_require_jets"),
] for name in names.split()]


def test_public_names_are_pinned():
    names = {name for name, value in vars(bc).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC


@pytest.mark.parametrize("owner, name", REMOVED, ids=[f"{o.__name__}.{n}" for o, n in REMOVED])
def test_removed_name_stays_removed(owner, name):
    # a dataclass field without a default is no class attribute, so fields
    # are looked up among the dataclass's fields too
    fields = {f.name for f in dataclasses.fields(owner)} if dataclasses.is_dataclass(owner) else ()
    assert not hasattr(owner, name) and name not in fields
    assert not hasattr(bc, name)


def test_surface_patch_fields_are_a_sweep():
    # what a sweep of a profile needs, and no more: the jets are required,
    # and a patch from outside the family table has no profile
    fields = dataclasses.fields(bc.SurfacePatch)
    assert [f.name for f in fields] == [
        "case", "model", "u_range", "v_range", "uline", "at", "jet", "jet4", "profile"]
    defaults = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING
                or f.default_factory is not dataclasses.MISSING}
    assert defaults == {"profile": None}


def test_removed_keywords_stay_removed():
    # the profile takes initial data only, a sweep sweeps the model's one
    # parameter, and the drift is read at given points
    assert list(inspect.signature(bc.reconstruct_profile).parameters) == [
        "branch", "k0", "kp0", "span", "rel_tol", "abs_tol"]
    assert list(inspect.signature(bc.cmd_sweep).parameters) == ["cfg", "values", "out_dir"]
    assert list(inspect.signature(bc.CurvatureSolution.drift).parameters) == ["self", "u"]
    # the verifier takes no step, so it takes no finite-difference scheme
    assert list(inspect.signature(bc.verify_patch).parameters) == [
        "patch", "nu", "nv", "tolerances"]


def test_readme_quickstart_integrates_once(tmp_path, monkeypatch):
    # the README's library quickstart, run as written: its profile's one
    # two-sided run of (k, k', theta) is every DOP853 call it makes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    _, calls = recorded_runs(monkeypatch, lambda: exec(compile(block, "README.md", "exec"), {}))
    assert [(len(args[1]), args[2]) for args, _ in calls] == [(3, 1.0), (3, -1.0)]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "surface.obj", "surface.ply", "surface.report.json"]
