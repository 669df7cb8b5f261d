"""Homological connected width rank of finite simplicial complexes.

Build labeled complexes, decompose them into slabs and levels, evaluate
the max image rank of slab components in first homology, and search for
width-minimizing labelings.
"""
from .complexes import (SimplicialComplex, Subcomplex, build_complex,
                        connected_components, euler_characteristic,
                        induced_subcomplex, maximal_simplices)
from .generators import (LabeledComplex, circle_tent_labeling, generate_circle,
                         generate_torus, labeled_torus, presentation_complex,
                         product_complex, pullback_labeling, spread_wedge,
                         tent_labeling, wedge)
from .homology import FieldSpec, H1Calculator, betti1, boundary
from .morse import (MorseLabeling, QuotientGraph, WidthReport,
                    constant_labeling, hcwr_value, qf_betti1, quotient_graph,
                    slab_components, validate_labeling)
from .search import (AnnealParams, SearchResult, anneal_min, certified_bounds,
                     exhaustive_min)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
