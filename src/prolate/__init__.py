"""Data-driven prolate bases for reconstructing a medium contrast from Born
scattering data: disk and symmetric-set eigensystems, Picard-criterion
inversion, spectral-cutoff regularization, and band-limited extrapolation."""

from .analysis import (ProjectionReport, extrapolate, project_pi_alpha,
                       projection_error_report, sobolev_norm_tilde, validate_basis)
from .cache import cache_key, load_basis, save_disk_basis, save_symset_basis
from .disk_basis import DiskBasis, assemble_sl_matrix, compute_disk_basis, eval_psi
from .errors import (CacheError, DataCoverageError, EigensolverError, EmptyCutoffError,
                     EmptyQuadratureError, ParameterError, ProlateError)
from .forward import (ContrastField, DataGrid, add_noise, far_field, ingest_farfield,
                      read_datagrid, synthesize_born, write_datagrid)
from .geometry_config import (ProblemSetup, SetupReport, effective_kernel_scale, read_setup,
                              setup_from_dict, validate_setup)
from .numerics import (QuadratureRule, bessel_j, disk_polar_rule, gauss_legendre,
                       gauss_legendre_01, sym_eig, zernike_radial)
from .recon import ReconstructionResult, choose_alpha_partial, picard_coefficients, reconstruct
from .symset_basis import (Geometry, SymSetBasis, analytic_area, build_quadrature,
                           compute_symset_basis, membership, radial_profile)

__version__ = "0.1.0"
