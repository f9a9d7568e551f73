"""Exact first Hochschild cohomology of bound quiver algebras.

Build a finite-dimensional algebra from a quiver with admissible
relations over the rationals or a prime field, compute HH1 and its
radical-preserving part as explicit Lie algebras, test solvability, and
decompose along maximal Kronecker chains into sl2 summands.
"""

from .algebra import AlgebraTable, Presentation, Relation, build_algebra
from .analysis import AnalysisOptions, AnalysisReport, run_analyze
from .dsl import (load_presentation, parse_presentation, presentation_from_json,
                  presentation_to_json, render_presentation)
from .errors import (DeltaUndefined, InvalidArrow, NotAcyclic, NotAdmissible,
                     NotAssociative, NotFiniteDimensional, ParseError,
                     QuiverHHError, QuotientUndefined, TooLarge,
                     UnsupportedCharacteristic)
from .linal import Field
from .quiver import (Arrow, Quiver, classify_components, hereditary_hh1_dim,
                     reptype_radsq, separated_quiver)

__version__ = "0.1.0"

__all__ = [
    "AlgebraTable", "AnalysisOptions", "AnalysisReport", "Arrow",
    "DeltaUndefined", "Field", "InvalidArrow", "NotAcyclic", "NotAdmissible",
    "NotAssociative", "NotFiniteDimensional", "ParseError", "Presentation",
    "Quiver", "QuiverHHError", "QuotientUndefined", "Relation", "TooLarge",
    "UnsupportedCharacteristic", "build_algebra", "classify_components",
    "hereditary_hh1_dim", "load_presentation", "parse_presentation",
    "presentation_from_json", "presentation_to_json",
    "render_presentation", "reptype_radsq", "run_analyze", "separated_quiver",
]
