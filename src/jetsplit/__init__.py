"""Exact splitting-lemma toolkit for truncated multivariate power series.

Coefficients live in the rationals, GF(p) or GF(2^k); every computation is
exact, and every normal form, splitting, implicit solution and transported
equivalence is verified by substitution at the working jet precision.
"""

from .expr import ParseError, parse_jet, serialize_jet
from .field import (ArchimedeanValuation, BinaryField, CharacteristicError,
                    Field, FieldError, PAdicValuation, PrimeField,
                    RationalField, TrivialValuation, Valuation,
                    parse_field_spec, parse_valuation_spec)
from .ift import ImplicitSystem, ift_solve
from .jacobian import (DEFAULT_MAX_DEGREE, DeterminacyReport, MilnorReport,
                       determinacy_certificate, milnor_number,
                       verify_determinacy, verify_milnor)
from .jet import (ABOVE_PRECISION, CoordinateChange, Jet, PrecisionError,
                  VerificationError)
from .quadform import (QuadNormalForm, SplitShapeError, arf_normal_form,
                       arf_reduce_solvable, diagonal_signs, diagonalize,
                       normal_form, normalize_squares)
from .split import (SplitResult, embed_from_tail, iterate_arf,
                    iterate_diagonal, project_to_tail, split, verify_split)
from .transport import (TransportError, TransportHypothesisError,
                        TransportProblem, split_shape, transport)

__version__ = "0.1.0"

__all__ = [
    "ABOVE_PRECISION", "ArchimedeanValuation", "BinaryField",
    "CharacteristicError", "CoordinateChange", "DEFAULT_MAX_DEGREE",
    "DeterminacyReport", "Field", "FieldError", "ImplicitSystem", "Jet",
    "MilnorReport", "PAdicValuation", "ParseError", "PrecisionError",
    "PrimeField", "QuadNormalForm", "RationalField", "SplitResult",
    "SplitShapeError", "TransportError", "TransportHypothesisError",
    "TransportProblem", "TrivialValuation", "Valuation", "VerificationError",
    "arf_normal_form", "arf_reduce_solvable", "determinacy_certificate",
    "diagonal_signs", "diagonalize", "embed_from_tail", "ift_solve",
    "iterate_arf", "iterate_diagonal", "milnor_number", "normal_form",
    "normalize_squares", "parse_field_spec", "parse_jet",
    "parse_valuation_spec", "project_to_tail", "serialize_jet", "split",
    "split_shape", "transport", "verify_determinacy", "verify_milnor",
    "verify_split",
]
