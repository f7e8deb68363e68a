"""Central numeric defaults for the whole library.

Every tolerance, grid size and step factor used by the pipelines lives here
so tests can pin them.  Values are grouped by the stage that consumes them.

Integration
-----------
``ODE_RTOL``/``ODE_ATOL`` are the defaults of :func:`solve_curvature`.  The
pipelines integrate profiles with the tighter ``PIPELINE_RTOL``/``ATOL``:
the verification stage takes finite differences of dense-output data, and
its noise floor is set by the interpolation error of the integrator.

Finite differencing
-------------------
The verifier takes every partial of X up to order 4, and so the mean
curvature field and its derivatives, from the patch's closed-form ``jet``
and ``jet4``.  One step, ``FD_INNER_REL`` times the parameter rectangle
diagonal, takes Richardson-extrapolated central differences of the
analytic first partials and of the jets of orders 2 and 3: they are the
cross-checks the jets must match.  Its stencil reach, twice the step, sets
the grid shrink of the verifier and the span padding of the curved
pipelines.

Tolerance profiles
------------------
``TOL_PROFILES`` fixes the pass thresholds of the verification report per
surface family.  The closed-form flat-space pipeline is held to 1e-8; the
curved pipelines, whose profile data comes from numerical integration, are
held to 1e-5 (1e-4 for the second-order PDE residual).  The
``normal_bitension_min`` entry is relative: the report demands
min |bitension| > tol * max |bitension| over the grid, since the attainable
absolute floor scales with the field (it decays toward the flat family's
outer radius, for example).  ``second_partials_fd`` bounds the largest
Euclidean norm, over Xuu, Xuv and Xvv, of inner-step differences minus the
patch's analytic jet on the grid: 1e-8 for the flat family, 1e-7 for the
curved ones, whose jets read the integrated profile.  ``higher_partials_fd``
bounds, with the same values, the largest Euclidean norm of each order 3
and 4 partial of ``jet4`` minus the inner-step difference of the partial
one order lower (Xuuu and Xuuuu in u, the others in v; Richardson over h,
h/2 and h/4, sixth order), on every 4th row and column of the grid.  With
the closed-form f derivatives the ``pde`` residual of the built families
sits near 1e-11, far below its tolerance; tightening the curved
tolerances is left open.
"""
from __future__ import annotations

# ---------------------------------------------------------------- integration
ODE_RTOL = 1e-10
ODE_ATOL = 1e-12
PIPELINE_RTOL = 1e-12
PIPELINE_ATOL = 1e-14

# curvature solver guards
K_FLOOR = 1e-8
ADMISSIBILITY_SLACK = 1e-8

# ------------------------------------------------------------------ geometry
DEFAULT_SPAN = (-1.0, 1.0)
DEFAULT_RHO_RANGE = (1.5, 8.0)
DEFAULT_GRID = 64
V_FULL_TURN = (0.0, 6.283185307179586)  # [0, 2*pi]
V_PARABOLIC = (-1.0, 1.0)

# ------------------------------------------------------- finite differencing
FD_INNER_REL = 1e-4

# gates used by the verifier
NONCMC_GATE = 1e-6        # |grad f| > gate * (1 + |f|) marks a non-CMC point
EIGEN_DEGENERACY = 1e-7   # |lam1 - lam2| below this skips direction-based checks

# ------------------------------------------------------------------- reports
REPORT_SCHEMA = "biconsurf.verification/2"

TOL_PROFILES = {
    "r3_revolution": {
        "biconservative": 1e-8,
        "gauss_identity": 1e-8,
        "shape_operator_norm": 1e-8,
        "principal_values": 1e-8,
        "x2f": 1e-8,
        "pde": 1e-6,
        "f_vs_reference": 1e-8,
        "K_vs_reference": 1e-8,
        "normal_orthogonality": 1e-10,
        "second_partials_fd": 1e-8,
        "higher_partials_fd": 1e-8,
        "normal_bitension_min": 1e-3,
    },
    "s3": {
        "biconservative": 1e-5,
        "gauss_identity": 1e-5,
        "shape_operator_norm": 1e-5,
        "principal_values": 1e-5,
        "x2f": 1e-5,
        "pde": 1e-4,
        "f_vs_profile": 1e-5,
        "model_membership": 1e-8,
        "normal_orthogonality": 1e-10,
        "second_partials_fd": 1e-7,
        "higher_partials_fd": 1e-7,
        "normal_bitension_min": 1e-3,
    },
}
TOL_PROFILES["h3_elliptic"] = dict(TOL_PROFILES["s3"])
TOL_PROFILES["h3_parabolic"] = dict(TOL_PROFILES["s3"])

# profile-curve constraint thresholds
CONSTRAINT_TOL = 1e-6
MEMBERSHIP_TOL = 1e-8
