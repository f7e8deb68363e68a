"""biconsurf: biconservative surfaces in the three 3-dimensional space forms.

The library constructs the classified families of non-CMC biconservative
surfaces (a surface of revolution in flat space, circle- and orbit-swept
surfaces over profile curves in the sphere and the hyperboloid model) and
numerically verifies every curvature identity they must satisfy, emitting
meshes, plot CSVs and machine-readable verification reports.
"""

from .ambient import (
    EUCLIDEAN3,
    EUCLIDEAN4,
    H3,
    LORENTZ4,
    R3,
    S3,
    Signature,
    SpaceForm,
    space_form,
)
from .curvature import (
    CurvatureSolution,
    admissible_interval,
    kappa2,
    ode_rhs,
    prime_constant,
    prime_poly,
    solve_curvature,
    w_value,
)
from .errors import (
    ConditioningError,
    ConstructionError,
    DomainError,
    GeometryError,
    NoSolutionError,
    ProjectionError,
    UsageError,
)
from .mesh import Mesh, poincare_ball, sample_mesh, stereographic, write_obj, write_ply
from .pipeline import PipelineConfig, cmd_profile, cmd_solve, cmd_surface, cmd_sweep
from .profile import (
    Branch,
    ProfileCurve,
    RevolutionProfile,
    reconstruct_profile,
    revolution_profile,
)
from .surfaces import (
    SurfacePatch,
    build_h3,
    build_r3_revolution,
    build_s3,
)
from .verify import PointGeometry, VerificationReport, point_geometry, verify_patch

__version__ = "0.1.0"
