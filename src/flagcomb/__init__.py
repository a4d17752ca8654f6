"""flagcomb: the combinatorics of full flag codes over prime fields.

Exact GF(q) subspace arithmetic, flag codes and their distance paths,
Ferrers-frame partitions with splittings, and Durfee-rectangle analysis
tying flag-code parameters to projected-code parameters.
"""

from .durfee_analysis import (CodeAnalysis, DurfeeRectangle, analyze,
                              black_dots_in_rectangle, bound_from_codistance,
                              check_separability, durfee_rectangle,
                              durfee_sets_of_code, ferrers_subdiagrams_of_code,
                              flag_distance_bounds, is_optimum_distance,
                              rectangle_to_projected)
from .ferrers import (EmbeddedPartition, FerrersFrame, StaircasePath,
                      UnderlyingDistribution, cell_color, distance_equivalent,
                      enumerate_embedded_partitions, is_embedded,
                      partition_of_staircase, skeleton_of_staircase,
                      splitting_value, splittings_of_codistance,
                      staircase_class, staircase_of_partition,
                      underlying_distribution)
from .flags import (Flag, FlagCode, TypeVector, codistance, flag_distance,
                    flag_from_matrix, max_distance, min_distance,
                    projected_code, projected_distance, projection,
                    random_full_flag_code)
from .gfq_linalg import (MatGFq, PrimeField, Subspace, dim_intersection,
                         dim_sum, grassmannian, injection_distance, rref,
                         subspace_distance, subspace_from_rows)
from .support_paths import (DistancePath, DistanceSupport, enumerate_paths,
                            path_codistance, path_distance,
                            path_from_flag_pair, paths_of_code, pick_area,
                            plateau_count, range_r, realize_path,
                            validate_path)

__version__ = "0.1.0"
