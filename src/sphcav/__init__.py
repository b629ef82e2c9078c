"""Electromagnetic mode spectra of PEC spherical cavities.

Supports azimuthal-wedge and polar-cone boundary modifications with the
non-integer angular indices they induce, full TE/TM field evaluation,
energy integrals, and validation against bundled reference tables.
"""

from .angular import (
    AngularDomain,
    AngularEigenpair,
    Family,
    angular_ode_residual,
    classify,
    cone_nu,
    cone_roots,
    south_singular_coefficient,
)
from .energy import (
    EnergyReport,
    mode_energy,
    radial_integrable,
    sectoral_angular_norm,
    zonal_norm,
)
from .errors import (
    ClassificationError,
    ConvergenceError,
    DomainError,
    FixtureLookupError,
    ImpedanceUndefinedError,
    IntegrationError,
    RootSearchError,
    SphcavError,
)
from .fields import (
    VACUUM,
    FieldSample,
    Medium,
    ModeSpec,
    evaluate,
    make_mode,
    poynting,
    wave_impedances,
)
from .radial import (
    RadialRoot,
    RadialSweep,
    RootKind,
    SPEED_OF_LIGHT,
    frequency_from_root,
    j_zero,
    mcmahon_seed,
    riccati_deriv_zero,
)
from .specfun import (
    hyp2f1,
    legendre_theta,
    legendre_theta_deriv,
    ln_gamma,
    riccati_deriv,
    spherical_j,
)
from .spectrum import (
    CavityConfig,
    ModeRecord,
    ValidationReport,
    cone_sweep,
    dispersion_table,
    enumerate_modes,
    format_csv,
    format_json,
    format_table,
    fundamental_tm,
    list_fixtures,
    load_fixture,
    validate,
    wedge_sweep,
)

__version__ = "0.1.0"
