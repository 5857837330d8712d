"""Exact loop generating functions, T series, and circular spectral measures
of the ADE and affine-ADE rooted bipartite graphs."""

from .exact import (
    CyclotomicNumber,
    NotRational,
    PowerSeries,
    QPolynomial,
    Rational,
    cyclo_as_rational,
    cyclo_conj,
    cyclo_embed,
    cyclo_make,
    cyclotomic_poly,
    root_of_unity,
    series_compose,
    series_invert,
)
from .graphs import (
    FAMILY_TAGS,
    GraphFamily,
    ParameterOutOfRange,
    RootedBipartiteGraph,
    UnsupportedFamily,
    build_ade,
    loop_counts,
)
from .transforms import (
    DegreeTooLarge,
    XiExpression,
    XiFactor,
    graph_t_series,
    t_closed_form,
    t_from_theta,
    theorem_2_5_lookup,
    theta_from_poincare_formula,
    theta_from_poincare_subst,
    xi_expand,
)
from .measures import (
    CyclotomicMeasure,
    ExpansionResult,
    RealMeasure,
    basic_measure,
    candidate_measure,
    cyclotomic_expansion,
    density_measure,
    expand_over_level,
    first_atom_difference,
    level,
    lincomb,
    measure_equal,
    moment,
    pushforward_real,
    reconstruct_expansion,
    t_series_of_measure,
)
from .exprs import (
    EvaluationError,
    ParseError,
    format_measure_expr,
    format_xi,
    parse_measure_ast,
    parse_measure_expr,
    parse_xi_expr,
)
from .verify import (
    CheckResult,
    DEFAULT_SIZE_MATRIX,
    UnknownCheckId,
    VerificationReport,
    all_check_ids,
    run_all,
    verify_graph_measure,
    verify_graph_t,
    verify_identity,
)

__version__ = "0.1.0"
