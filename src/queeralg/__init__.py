"""Exact computer algebra for queer Lie superalgebras.

Builds q(n), map superalgebras q (x) A and their equivariant subalgebras,
Clifford-module machinery for the Cartan part, truncated highest-weight
modules, irreducible products and evaluation modules, and enumerates the
irreducible finite-dimensional modules over preset coefficient algebras.
All arithmetic is exact, over a tower of quadratic extensions of Q(i).
"""

from .scalars import Scalar, Tower, parse_scalar
from .graded import EVEN, ODD, GradedMap, GradedSpace, commutant, \
    graded_tensor, kernel
from .assocsuper import (AssocSuper, QuadraticPair, SimpleType, assoc_tensor,
                         classify_simple, clifford, clifford_generators,
                         density_type_from_maps, make_M, make_Q, odd_center)
from .liesuper import (LieSuper, WeightModule, derived_series, direct_sum,
                       direct_sum_weight, from_assoc, hom_map,
                       hom_space_weight, ideal_closure, is_isomorphic_weight,
                       is_simple, is_solvable, subalgebra)
from .queer import QueerData, build_q, build_q_tilde, cartan_generation_check
from .coeffalg import (CoeffAlgebra, GammaAction, IdealRep, QuotientAlgebra,
                       algebra_from_spec, gamma_from_spec, gamma_validate,
                       ideal_product, preset_base_field, preset_truncated,
                       radical, support, zero_ideal)
from .mapsuper import (InvariantSub, MapSuper, ann_and_support, ev_rank,
                       invariants, tensor_lie)
from .cartanmod import (CartanAlgebra, CliffordData, HModule, PsiFunctional,
                        build_H, classify_cartan_module, i_psi)
from .hwmod import (SimpleQuotient, TruncatedVerma, check_psi0_ideal,
                    is_irreducible_hw, simple_quotient, top_psi)
from .products import (Catalog, WeightSchur, assoc_check, classify_enumerate,
                       ev_pullback, hat_tensor_weight, outer_factors,
                       pullback, q1_module, tensor_same_algebra,
                       trivial_q_module, adjoint_q_module, weight_schur_data)

__version__ = "0.1.0"
