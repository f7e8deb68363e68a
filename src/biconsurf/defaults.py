"""Central numeric defaults for the whole library.

Every tolerance, grid size and step factor used by the pipelines lives here
so tests can pin them.  Values are grouped by the stage that consumes them.

Integration
-----------
``ODE_RTOL``/``ODE_ATOL`` are the defaults of :func:`solve_curvature`.  The
pipelines integrate profiles with the tighter ``PIPELINE_RTOL``/``ATOL``:
the verification stage takes finite differences of dense-output data, and
its noise floor is set by the interpolation error of the integrator.
``SPAN_LIMIT`` bounds |u| on every span the curvature ODE is integrated
over (a build's is padded): an s3 solve over +-1000 takes about 3.5 s.

Finite differencing
-------------------
The verifier takes every partial of X up to order 4, and so the mean
curvature field and its derivatives, from the patch's closed-form ``jet``
and ``jet4``, so the point API takes no step.  On S3 and H3 the jets are
certified with no step either (``quadric_jet``, ``profile_jet``).  Only
``verify_patch`` on r3 and on patches from outside the family table (or
wherever a bound names an FD row) takes finite differences: one step,
``FD_INNER_REL`` times the parameter rectangle diagonal, and one kernel
take Richardson-extrapolated central differences of the analytic first
partials and of the jets of orders 2 and 3, the cross-checks the jets must
match.  Its stencil reach, twice the step, sets the grid shrink of those
verifies and the span padding of the curved pipelines, which keep it so
that their profile and mesh bytes do not move.

Tolerance profiles
------------------
``TOL_CLOSED_FORM`` and ``TOL_INTEGRATED`` bound the verifier's gate rows;
each family names one.  The pass rules: max <= bound on the kept points; the
relative bitension floor, applied only on mostly non-CMC grids; and, on h3,
x4 > 0 everywhere.  The closed-form flat family is held to 1e-8, the
integrated curved ones to 1e-5 (1e-4 for the second-order PDE residual).
The floor, ``normal_bitension_min``, is min |bitension| > bound * max
|bitension|, scaled with the field (it decays toward the flat family's
outer radius, for example).

The flat family's jets are cross-checked by differences.
``second_partials_fd`` bounds the largest Euclidean norm, over Xuu, Xuv and
Xvv, of inner-step differences minus the patch's analytic jet on the grid,
and ``higher_partials_fd`` the largest Euclidean norm of each order 3 and 4
partial of ``jet4`` minus the inner-step difference of the partial one
order lower (Xuuu and Xuuuu in u, the others in v; Richardson over h, h/2
and h/4, sixth order), on every 4th row and column of the grid; both at
1e-8.

The curved families' jets are certified by identities with no step, each
bounded by 1e-9: ``quadric_jet``, the derivatives of orders 1-4 of
<X, X> = 1/c over the 14 distinct partials, relative to 1 + the largest
Euclidean size of the partials of orders 3 and 4; and ``profile_jet``, on
the u-line, the constraint chain <sigma^(i), C_j> = s_j a^(i) (i = 0..4)
and the orders 3 and 4 of the unit-speed chain, each relative to 1 + the
Euclidean sizes of its terms, and the speed before the chart normalizes it
minus 1.  The larger of their clean floors measures 3.4e-14 (s3),
3.4e-13 (h3 elliptic) and 1.1e-12 (h3 parabolic) at 64 x 64, and at most 5.1e-11 over the fuzz
draws of tests/test_fuzz.py; a third or fourth derivative of the profile
or the amplitude scaled by 1 + 1e-6 raises them 125 to 3,300 times over the
bound.  With the closed-form f derivatives the ``pde`` residual of the
built families sits near 1e-11, far below its tolerance; tightening the
curved tolerances is left open.
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
SPAN_LIMIT = 1e3

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

TOL_CLOSED_FORM = {
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
}
TOL_INTEGRATED = {
    "biconservative": 1e-5,
    "gauss_identity": 1e-5,
    "shape_operator_norm": 1e-5,
    "principal_values": 1e-5,
    "x2f": 1e-5,
    "pde": 1e-4,
    "f_vs_profile": 1e-5,
    "model_membership": 1e-8,
    "normal_orthogonality": 1e-10,
    "quadric_jet": 1e-9,
    "profile_jet": 1e-9,
    "normal_bitension_min": 1e-3,
}

# profile-curve constraint thresholds
CONSTRAINT_TOL = 1e-6
MEMBERSHIP_TOL = 1e-8
