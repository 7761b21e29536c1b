"""Embedding-tensor triples over Lie algebras, finite racks, and the local
integration bridge between them, with everything axiom-checked numerically."""

from .algebra import (DEFAULT_TOL, LeibnizAlgebraData, LieAlgebraData,
                      ModuleAction, SubspaceBasis, bracket_closure_check,
                      brackets, check_leibniz, check_lie_algebra, check_module,
                      lie_algebra)
from .errors import (AxiomError, CapabilityError, ChartError, DomainError,
                     LeibrackError, MembershipError, StructuralError)
from .integrate import (IntegrationReport, LocalRackModel, RackPoint,
                        build_model, check_equivariance,
                        check_local_group_set_laws, check_local_rack_laws,
                        embed_point, local_action, rack_product,
                        recover_equivariance_defect, recover_tangent_triple,
                        run_integration_suites)
from .localgroup import (DiffConfig, GroupElement, MatrixRep, adjoint_rep,
                         check_rep, derivative_at_identity, log_matrix,
                         mixed_second_derivative)
from .racks import (FiniteGroup, FiniteRack, GroupCrossedModule,
                    GroupRackTriple, augmented_rack_from_crossed_module,
                    check_group, check_group_crossed_module,
                    check_group_rack_triple, check_rack,
                    check_rack_triple_morphism, conjugation_crossed_module,
                    conjugation_rack, conjugation_triple)
from .report import ValidityReport, Violation
from .triples import (EmbeddingTensor, LieAlgebraCrossedModule,
                      LieLeibnizTriple, RelaxedAugmentation, TripleMorphism,
                      build_triple, check_lie_crossed_module, check_morphism,
                      check_relaxed_augmentation, check_triple,
                      derived_bracket_tensor, equivariance_defect,
                      ideal_crossed_module, ideal_triple,
                      identity_crossed_module, is_strict,
                      max_strictness_subalgebra, random_triple,
                      scaling_crossed_module, scaling_triple,
                      triple_from_crossed_module, triple_reports)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
