"""flagcomb: the combinatorics of full flag codes over prime fields.

Exact GF(q) subspace arithmetic, flag codes and their distance paths,
Ferrers-frame partitions with splittings, and Durfee-rectangle analysis
tying flag-code parameters to projected-code parameters.

No submodule is imported here: each export loads its module on first
access (PEP 562), so that a CLI call loads only what its command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in {
    "counting": "max_distance",
    "durfee_analysis": """CodeAnalysis DurfeeRectangle analyze
        black_dots_in_rectangle check_separability durfee_rectangle
        durfee_sets_of_code ferrers_subdiagrams_of_code flag_distance_bounds
        is_optimum_distance rectangle_to_projected""",
    "ferrers": """EmbeddedPartition StaircasePath UnderlyingDistribution
        cell_color distance_equivalent enumerate_embedded_partitions
        is_embedded partition_of_staircase skeleton_of_staircase
        splitting_value splittings_of_codistance staircase_class
        staircase_of_partition underlying_distribution""",
    "flags": """Flag FlagCode TypeVector codistance flag_distance
        flag_from_matrix min_distance projected_code projected_distance
        projected_parameters projection random_full_flag_code""",
    "gfq_linalg": """Subspace dim_intersection dim_sum grassmannian
        injection_distance subspace_distance subspace_from_rows""",
    "support_paths": """DistancePath enumerate_paths path_codistance
        path_distance path_from_flag_pair paths_of_code pick_area
        plateau_count range_r realize_path validate_path""",
}.items() for name in names.split()}
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
