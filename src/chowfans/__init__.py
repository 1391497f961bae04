"""Exact Chow rings of matroid fans and projectivized bundle fans."""

from .matroid import (Matroid, matroid_from_bases, matroid_from_graph,
                      matroid_from_json, matroid_uniform, pyramid_matroid)
from .fans import (Fan, bergman_fan, bipermutohedral_fan, check_balanced,
                   permutohedral_fan, projective_bundle_fan)
from .chow import (ChowElement, MinkowskiWeight, cap_product, degree,
                   divisor, fundamental_weight, multiply_by_divisor,
                   pair_all, ray_coefficients, unit_class)
from .tautological import chern_classes, structural_divisors, w_divisors
from .rings import (BundleRing, FanRingModel, bloch_gieseker,
                    quotient_by_ann_segre, segre_vectors, twist_vectors)
from .kahler import check_pd, kahler_report, sample_lefschetz_candidates
from .biflags import (SplitBiflag, canonical_expansion, dyck_profile,
                      family_sets, is_lex_decreasing, lemma_suite,
                      split_at_first_gap, verify_bundle_identity,
                      verify_cancellation, verify_min_dec)
