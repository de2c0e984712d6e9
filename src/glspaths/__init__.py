"""Exact-arithmetic path model for crystals of generalized Kac-Moody algebras."""

from .rootdata import (BorcherdsCartanMatrix, MatrixError, AxisViolation,
                       AsymmetricZero, InvariantViolation, MatrixFormatError,
                       Weight, WeightContext, context_with_base,
                       format_weight, load_context, parse_context_text,
                       validate_matrix)
from .torbit import (AChain, OrbitRoot, apply_word, dist, find_a_chain,
                     minimal_words, orbit, positive_wpi_roots)
from .paths import (HProfile, PiecewisePath, apply_e, apply_f, concatenate,
                    h_profile, is_integral, is_monotone)
from .gls import (CrystalGraph, GLSPath, JoinRejected, NotAGLSPath,
                  enumerate_crystal, export_dot, gls_e, gls_f, properly_join,
                  verify_gls)
from .crystals import (NEG_INF, BJWord, DepthMismatch, ElementaryElement,
                       GeneratorSequence, TensorElement, bj_apply, bj_word,
                       generate_from, hw_crystal_isomorphic, validate_axioms,
                       validate_category_B, validate_normality)
from .character import (CharacterSeries, NonIntegralOffset, char_of_graph,
                        compare_characters, divide, multiply,
                        orthogonal_subsets, series_text, wkb_series)

__version__ = "0.1.0"
