"""Central numeric defaults for the whole library.

Every tolerance, grid size and step factor used by the pipelines lives here
so tests can pin them.  Values are grouped by the stage that consumes them.

Integration
-----------
``ODE_RTOL``/``ODE_ATOL`` are the defaults of :func:`solve_curvature`.  The
pipelines integrate profiles with the tighter ``PIPELINE_RTOL``/``ATOL``,
which set the noise floor of the integrated families' identity residuals.
``SPAN_LIMIT`` bounds |u| on every span the curvature ODE is integrated
over: an s3 solve over +-1000 takes about 3.5 s.

Tolerance profiles
------------------
``TOL_CLOSED_FORM`` and ``TOL_INTEGRATED`` bound the verifier's gate rows;
each family names one.  The pass rules: max <= bound on the kept points; the
relative bitension floor, applied only on mostly non-CMC grids; and, on h3,
x4 > 0 everywhere.  The closed-form flat family is held to 1e-8, the
integrated curved ones to 1e-5 (1e-4 for the second-order PDE residual).
Both bound ``f_vs_profile``, f - 2k with k the profile's curvature: on the
flat family the meridian's closed form, which with ``gauss_identity`` also
fixes K = -(3/4) f^2, so no row of its own bounds K.  The floor,
``normal_bitension_min``, is min |bitension| > bound * max |bitension|,
scaled with the field (it decays toward the flat family's outer radius,
for example).

The curved families' jets are certified by identities with no step, each
bounded by 1e-9: ``quadric_jet``, the derivatives of orders 1-4 of
<X, X> = 1/c over the 14 distinct partials, relative to 1 + the largest
Euclidean size of the partials of orders 3 and 4; and ``profile_jet``, on
the u-line, the constraint chain <sigma^(i), C_j> = s_j a^(i) (i = 0..4)
and the orders 3 and 4 of the unit-speed chain, each relative to 1 + the
Euclidean sizes of its terms, and the speed before the chart normalizes it
minus 1.  The larger of their clean floors measures 3.4e-14 (s3),
3.4e-13 (h3 elliptic) and 1.1e-12 (h3 parabolic) at 64 x 64, and at most
3.5e-11 over the fuzz draws of tests/test_fuzz.py; a third or fourth
derivative of the profile or the amplitude scaled by 1 + 1e-6 raises them
125 to 3,300 times over the bound.  With the closed-form f derivatives the ``pde`` residual of the
built families sits near 1e-11, far below its tolerance; tightening the
curved tolerances is left open.

The flat family's jets are certified with no step by ``profile_jet``, bounded
by 1e-12: the closed-form chains of its profile in the chart t, with
R = C^(-3/2) (z'^2 = 9 R^2 (1 + t^2) and its t-derivatives of orders 1-3,
rho^(i+1) = t z^(i+1) + i z^(i), 27 R^2 rho = z'^3 with rho > 0, and sigma on
the rotation axis), the entries in units of R and each chain relative to
1 + the sum of the sizes of its terms.  The clean floor measures at most
4.3e-16 over the fuzz draws, at 20 x 20 and 128 x 128; any u-line entry but
the height scaled by 1 + 1e-6 raises it at least 760 times over the bound
(rho'''' at C = 31.6, the weakest).
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
    "f_vs_profile": 1e-8,
    "normal_orthogonality": 1e-10,
    "profile_jet": 1e-12,
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
