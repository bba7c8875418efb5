"""Finite chamber systems: Coxeter groups, buildings, gallery homotopy,
2-coverings, and the reference geometries exercising them."""

from .coxeter import (
    CoxeterMatrix,
    WElement,
    canonical,
    coxeter_complex,
    diagram_components,
    enumerate_group,
    inverse,
    is_admissible_polar,
    is_finite,
    multiply,
    reduced_words,
)
from .chamber import (
    ChamberSystem,
    HomogeneousSpec,
    Residue,
    TypedGallery,
    from_cosets,
    from_partitions,
    infer_type_matrix,
    is_simplicial,
    isomorphism,
    quotient,
)
from .covers import (
    CoverResult,
    CoveringMap,
    cover_from_lift,
    deck_transformations,
    homotopic,
    is_covering,
    lift_gallery,
    universal_cover,
)
from .verify import (
    IncidenceGeometry,
    check_LL,
    check_star,
    incidence_geometry,
    is_building,
    is_c3_geometry,
    shadow,
    w_distance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
