"""Exact calculus of birational modular symbols and boundary classes."""

__version__ = "0.1.0"

from .qz import QZ, qz, preimages, torsion
from .symbols import (Symbol, FormalSum, canonicalize, enumerate_symbols,
                      blowup_relation, relation_rows, relation_matrix,
                      RelationMatrix, minus_canonicalize, minus_reduce,
                      symbol_from_json, symbol_from_lattice, sum_from_json,
                      TWO_TORSION)
from .ops import (sigma_op, rho_op, rho_hat_op, e_op, nabla_op, delta_op,
                  DeltaSum, check_laws, OperatorReport, split_by_modulus,
                  descent_failures)
from .groupring import GroupRingElem, gr_sigma, gr_rho, bridge
from .burnside import (BurnGen, BurnElem, Model, Stratum, model_from_json,
                       edges_from_json, boundary_snc, check_grading,
                       RewriteRules, pushforward, CyclicAction,
                       tower_boundary_check, TowerResult, parse_composite)
from .diagram import (Diagram, Edge, build_pairs_diagram,
                      build_equivariant_diagram, Morphism, CatPresentation,
                      check_poset_in_groupoids, quotient_T)
from .linalg import SparseMat, rank_q, in_span, snf
