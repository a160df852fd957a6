"""grushinlab: numerical laboratory for quantum confinement on warped
half-plane (Grushin-type) geometries.

Three complementary experiments are provided:

* Weyl endpoint classification of the Fourier fibre operators, deciding
  essential self-adjointness of the Laplace-Beltrami operator (module
  :mod:`grushinlab.weyl`);
* geodesic integration exhibiting incompleteness, with closed-form hit
  time quadratures as oracles (:mod:`grushinlab.geodesics`);
* unitary fibre-wise Schroedinger evolution probing how sensitive the
  dynamics is to boundary conditions at an inner cutoff
  (:mod:`grushinlab.evolution`).

See the ``grushinlab`` command line tool for reproducible experiment
runs with machine-readable outputs.
"""

from .errors import (
    DataError,
    DomainError,
    GrushinError,
    InconclusiveClassification,
    IntegrationError,
    NumericError,
    ProtocolError,
    UsageError,
)
from .profiles import (
    AssumptionReport,
    FibrePotential,
    GrushinProfile,
    builtin_profile,
    check_assumptions,
    custom_profile,
    power_law,
)
from .geodesics import (
    GeodesicInitialData,
    GeodesicTrajectory,
    geodesic_fan,
    hit_time_quadrature,
    integrate_geodesic,
)
from .weyl import (
    DeficiencyFamilyReport,
    Endpoint,
    InequalityVerdict,
    Method,
    Mode,
    SAVerdict,
    SelfAdjointnessVerdict,
    TotalDeficiency,
    WeylReport,
    aggregate_verdict,
    classify_by_inequality,
    classify_numeric,
    classify_power_law,
    classify_sweep,
    verify_deficiency_family,
)
from .evolution import (
    BcSensitivityResult,
    BoundaryCondition,
    CrankNicolson,
    FibreEvolutionState,
    FibreGrid,
    PlaneEvolutionResult,
    PlaneWavefunction,
    bc_sensitivity,
    evolve_fibre,
    evolve_plane,
    gaussian_packet,
    to_original,
    to_transformed,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
