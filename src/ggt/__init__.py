"""Exact computations in topological full groups of graph groupoids.

The package provides integer-exact linear algebra, the Boolean algebra
of compact opens of a boundary path space, bisection-table arithmetic
for full-group elements, groupoid homology with the index map, and a
certified factorization of index-kernel elements into transpositions.
"""

from .errors import (CarrierMismatch, CriteriaFailed, GgtError,
                     HypothesesFailed, IndexNonzero, MalformedGraph,
                     NegativeLevel, NoDisjointCycles, NotARegularSource,
                     NotEquivalent, NotEssential, NotInfiniteEmitter,
                     NotStronglyConnected, OverlappingSourceRange,
                     ParseError, RangesOverlap, RefusalError, SourcePresent,
                     SourcesOverlap, VerificationFailed)
from .graphs import Graph, CriteriaReport, validate, move_t, move_s, \
    find_path, two_disjoint_cycles, parse_graph, print_graph
from .pathspace import (BoundaryPoint, Clopen, Path, Piece, parse_clopen,
                        parse_path, parse_piece)
from .fullgroup import (Block, Element, GradedPartition, apply, compose,
                        compose_all, doubling_bisections, graded_partition,
                        inverse, is_involution, make_block, parse_element_text,
                        print_element, support, transposition,
                        validate_element)
from .homology import (ClassVector, HomologyReport, IndexValue,
                       abelianization_report, class_of, classes_equal, index,
                       is_zero, shift, vanishing_level)
from .factor import (Factorization, PathFamilies, af_factor,
                     construct_disjoint_paths, find_bisection,
                     graded_cancellation, parse_factorization,
                     print_factorization, verify_product)
from .intlin import (IntMatrix, Lattice, eventual_kernel, kernel,
                     smith_normal_form)
from . import fixtures

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
