"""Twisted Goppa codes over GF(q^m): exact construction, dimension, experiments."""

from .errors import (
    EmptySupportError,
    EnumerationCapError,
    FieldMismatchError,
    InternalConsistencyError,
    InvalidSpecError,
    NoSuchOrderError,
    NotInvertibleError,
    NotPrimeError,
    RejectionCapError,
    SizeCapError,
    TrialError,
)
from .galois import DEFAULT_SIZE_CAP, Field, is_prime, make_field, validate_field_params
from .polyring import Poly, inverse_linear_residue, is_root_free, modinv, xgcd
from .affine_support import (
    build_support,
    choose_multiplier,
    support_orbits,
    validate_orbit_params,
)
from .goppa import (
    DEFAULT_ENUMERATION_CAP,
    CodeSpec,
    ParityMatrix,
    brute_force_dimension,
    codes_equal,
    dimension,
    is_codeword,
    kernel_basis,
    matrix_to_json,
    parity_matrix,
    rank,
    spec_from_json,
    spec_to_json,
    twist_residue,
)
from .experiment import (
    CSV_FIELDS,
    DeterminismReport,
    ParamSet,
    SweepEntry,
    SweepResult,
    TrialRecord,
    random_eta,
    random_root_free_poly,
    read_trials_csv,
    record_to_dict,
    report_to_dict,
    run_trial,
    run_trials,
    standard_grid,
    summarize,
    sweep,
    sweep_result_to_dict,
    trial_seed,
    trials_csv_text,
    verify_determinism,
    write_trials_csv,
)

__version__ = "0.1.0"
