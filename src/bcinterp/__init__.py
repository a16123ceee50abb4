"""Exact arithmetic for shifted BC-symmetric interpolation polynomials,
invariant-operator eigenvalues, and their positivity regions."""

from .exactnum import (
    DomainError,
    PoleError,
    gen_pochhammer,
    log_gamma,
    poch_pm,
    poch_rising,
)
from .limits import (
    ContourPolyline,
    S_div,
    c_l_sequence,
    contour_diagonal_crossings,
    contour_to_csv,
    crossing_equation,
    crossing_point,
    gamma_ratio_identity,
    gamma_ratio_partial,
    in_G0_rank2,
    in_W,
    r_limit,
    r_partial,
    s_m,
    s_m_prime,
    trace_contour,
)
from .okounkov import (
    Params,
    SymEvenPoly,
    column_poly,
    column_poly_gf,
    det_formula_tau1,
    interpolate_from_values,
    k_constant,
    k_constant_alt,
    okounkov_eval,
    okounkov_expand,
    rank1_poly,
    rectangle_poly,
    verify_characterization,
)
from .partitions import (
    ReverseTableau,
    arm,
    conjugate,
    contains,
    enumerate_Lambda,
    format_partition,
    leg,
    normalize,
    parse_partition,
    psi_skew,
    psi_tableau,
    reverse_tableaux,
    weight,
)
from .rank2 import (
    HypSeriesSpec,
    R_closed_form_b0,
    R_midpoint_telescoped,
    R_series,
    Rank2Regions,
    hyp_sum,
    in_B,
    q_rank2,
    q_rank2_partial_d2,
)
from .shimura import (
    GroupData,
    Verdict,
    group_params,
    in_A_certified,
    in_G,
    in_square,
    in_U0_knapp_speh,
    phi_j,
    q_poly,
    shimura_eigenvalue,
)

__version__ = "0.1.0"
