"""Exact loop generating functions, T series, and circular spectral measures
of the ADE and affine-ADE rooted bipartite graphs."""

from .exact import (
    CyclotomicNumber,
    NotRational,
    PowerSeries,
    cyclo_as_rational,
    cyclo_conj,
    cyclo_embed,
    cyclo_make,
    cyclotomic_poly,
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
    cyclotomic_expansion,
    density_measure,
    expand_over_level,
    level,
    moment,
    pushforward_real,
    reconstruct_expansion,
    t_series_of_measure,
)
from .exprs import (
    EvaluationError,
    ParseError,
    parse_measure_expr,
    parse_xi_expr,
)
from .verify import (
    CheckResult,
    DEFAULT_SIZE_MATRIX,
    VerificationReport,
    all_check_ids,
    candidate_measure,
    run_all,
)

__version__ = "0.1.0"
