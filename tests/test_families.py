"""The family table: every row agrees with what the pipeline does with it."""
import dataclasses
import re

import numpy as np
import pytest

import biconsurf as bc
from biconsurf import mesh
from biconsurf.families import FAMILIES, TOL_PROFILES
from biconsurf.pipeline import PipelineConfig, build_pipeline_patch, cmd_surface

# initial data per row whose constant C has the row's sign (r3 reads C > 0)
_DATA = {
    "r3_revolution": dict(model="r3"),
    "s3": dict(model="s3", k0=1.0, kp0=1.0),
    "h3_elliptic": dict(model="h3", k0=1.0, kp0=1.0),
    "h3_parabolic": dict(model="h3", k0=0.25, kp0=0.2),
}
# reconstruct_profile's refusal of a constant C of the other sign, per row,
# with the row whose data have that sign (on s3 every C is positive)
_WRONG_SIGN = {
    "h3_elliptic": ("branch h2_elliptic requires C > 0", "h3_parabolic"),
    "h3_parabolic": ("the exponential branch requires C < 0", "h3_elliptic"),
}


def test_every_row_has_data():
    assert list(FAMILIES) == list(_DATA) == list(TOL_PROFILES)


@pytest.mark.parametrize("case", list(FAMILIES))
def test_row_consistency(tmp_path, monkeypatch, case):
    family = FAMILIES[case]
    cfg = PipelineConfig(**_DATA[case], nu=16, nv=16)

    # the pipeline build lands on the row and reports its case
    assert cmd_surface(cfg, tmp_path, write_meshes=False)["case"] == case
    assert TOL_PROFILES[case] == family.tolerances

    # projection "auto" is the row's chart (stereographic from -e4 and the
    # Poincare ball agree on S3, so the chart functions are spied on)
    patch = build_pipeline_patch(cfg)[0]
    u = np.linspace(*patch.u_range, 5)[:, None]
    v = np.linspace(*patch.v_range, 6)[None, :]
    charts = []
    for name, chart in (("stereographic", "stereographic"), ("poincare_ball", "poincare")):
        monkeypatch.setattr(mesh, name, lambda X, *_, chart=chart: charts.append(chart) or X[:, :3])
    mesh._grid_mesh(case, patch.X(u, v), "auto", None)
    assert charts == ([] if family.projection == "identity" else [family.projection])

    # the sign of C resolves to the row, with "auto" and with the row's own --branch
    for branch in ["auto"] + ([family.branch_name] if family.branch_name else []):
        run = dataclasses.replace(cfg, branch=branch).validate()
        assert run._family() is family

    # the other sign of C is refused with the row's message
    assert family.wrong_sign == (_WRONG_SIGN[case][0] if case in _WRONG_SIGN else None)
    if case in _WRONG_SIGN:
        message, other = _WRONG_SIGN[case]
        with pytest.raises(bc.UsageError, match=re.escape(message)):
            bc.reconstruct_profile(family.branch, _DATA[other]["k0"], _DATA[other]["kp0"])


@pytest.mark.parametrize("case, other", [
    ("h3_elliptic", "h3_parabolic"), ("h3_parabolic", "h3_elliptic"),
])
def test_explicit_branch_against_the_other_sign(case, other):
    # the sign of C of the other row's data contradicts the row's --branch
    cfg = PipelineConfig(**_DATA[other], branch=FAMILIES[case].branch_name)
    with pytest.raises(bc.UsageError, match=f"auto-resolves to {FAMILIES[other].branch.value}"):
        cfg._family()
