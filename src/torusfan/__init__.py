"""Combinatorial invariants of torus-manifold orbit posets.

Simplicial posets and their face rings, exact cell homology via Smith
normal form, characteristic maps and GKM graphs, Betti ranks, and the
realization of admissible h-vectors by connected sums.
"""

from .poset import (Cell, PosetError, RankBoundError, SimplicialPoset,
                    TorusfanError, barycentric_subdivision, connected_sum,
                    from_json_dict, join, point_poset, poset_violations,
                    simplex_boundary, simplex_poset, sphere_poset,
                    sphere_product_poset, stellar_subdivision, to_json_dict)
from .facering import (FaceRing, RingElement, RingError, chain_monomial,
                       chain_monomial_basis, format_element,
                       graded_dimension, graded_dimensions, hilbert_check,
                       lsop_from_lambda, parse_element, restriction_at_vertex,
                       straighten_product, total_restriction)
from .homology import (euler_sphere_check, gorenstein_star, link_verdicts,
                       pseudomanifold, reduced_homology)
from .linalg import smith_normal_form
from .charfun import (CharacteristicMap, GKMError, GKMGraph, build_gkm_graph,
                      check_unimodular, divisibility_check,
                      face_ring_to_gkm, find_characteristic_map,
                      gkm_subalgebra_dimension, thom_class_restriction)
from .cohomology import (RingPresentation, SWParityReport, betti_numbers,
                         dehn_sommerville_check,
                         graded_quotient_basis, present_cohomology_ring,
                         sw_parity)
from .realize import (Block, BlockDecomposition, HVectorTarget,
                      MalformedTargetError, Realization, RealizationError,
                      Refusal, admissible, classify, decompose,
                      realize_decomposition, realize_with_lambda)

__version__ = "0.1.0"
