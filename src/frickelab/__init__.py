"""Exact-arithmetic toolkit for the trace calculus of the once-punctured torus.

Words in F(a, b), integer polynomial certification (Sturm chains, root
isolation, mod-p factor-degree patterns), symbolic SL(2) trace polynomials in the
Fricke coordinates, certified algebraic reals, Salem and Galois verdicts,
Fricke points with geodesic lengths, and marked-length-variety membership.
"""

from .words import Word, WordParseError, concat, cyclic_reduce, invert, parse_word, parse_word_list
from .poly import (
    EndpointRootError,
    IrreducibilityVerdict,
    IsolationError,
    UniPoly,
    discriminant,
    factor_mod_p,
    format_poly,
    gcd,
    irreducible_over_Q,
    isolate_real_roots,
    parse_poly,
    refine_root,
    resultant,
    sturm_chain,
    sturm_count,
    NEG_INF,
    POS_INF,
)
from .intervals import PrecisionError, RatInterval
from .tracering import TracePoly, format_tracepoly, parse_tracepoly, tp_evaluate, trace_polynomial
from .algebraic import (
    AlgebraicReal,
    FieldElement,
    GaloisCertificate,
    NumberField,
    SalemVerdict,
    galois_cycle_types,
    is_geometric_salem,
    is_salem,
    make_algebraic,
    non_arithmeticity_report,
    salem_inverse_transform,
    salem_transform,
)
from .fricke import (
    FrickePoint,
    NonHyperbolicError,
    eliminate_pattern_system,
    in_teichmuller,
    length_of,
    markov_residual,
    sample_markov_point,
    solve_pattern_system,
    trace_of,
)
from .variety import (
    FUNDAMENTAL_IDENTITY,
    PATTERN_POLYNOMIAL,
    VarietyPolynomial,
    check_rigidity_hypothesis,
    numeric_member,
    parse_variety_poly,
    pattern_member,
    symbolic_residual,
    trace_identity_suite,
)

__version__ = "0.1.0"
