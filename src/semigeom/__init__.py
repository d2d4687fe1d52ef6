"""Coarse geometry of finitely generated monoids.

Word metrics on right Cayley graphs, Green's relations and Schutzenberger
groups, growth and ends estimates, and quasi-isometry checking over exact
rational arithmetic.  Distances are possibly asymmetric and possibly
infinite; computations on infinite monoids work inside finite balls and
stamp every undecided answer with the radius it was computed at.
"""

from importlib import import_module

# every public name, by the module that defines it; the package imports a
# module when one of its names is first asked for (PEP 562), so a caller
# pays only for the modules it uses
_EXPORTS = {
    "distances": ("INFINITE", "ZERO", "ExtDist", "beyond", "finite"),
    "errors": (
        "BackendMismatch",
        "CapExceeded",
        "InvalidSpace",
        "NotACongruence",
        "NotAnHClass",
        "NotFinite",
        "NotGenerating",
        "NotStronglyConnected",
        "ProvedInfinite",
        "SemigeomError",
        "UnknownSymbol",
    ),
    "rewriting": ("ConfluenceFailure", "RewritingSystem", "Rule", "format_word",
                  "parse_word"),
    "monoids": (
        "DEFAULT_CAP",
        "Element",
        "Monoid",
        "ProductMonoid",
        "RewritingMonoid",
        "TableMonoid",
        "TransformationMonoid",
        "direct_product",
        "enumerate_all",
        "enumerate_out_ball",
    ),
    "cayley": (
        "CayleyBall",
        "build_cayley_ball",
        "component_comparability",
        "component_poset",
        "export_dot",
        "full_cayley_graph",
        "realized_distance",
        "sample_points",
        "schutzenberger_ball",
        "strongly_connected_components",
    ),
    "green": (
        "FiniteMonoid",
        "SchutzGroup",
        "check_schutz_action",
        "green_relations",
        "schutz_group",
        "svarc_milnor",
    ),
    "geometry": (
        "QiConstants",
        "Space",
        "check_axioms",
        "check_product_projection_qi",
        "check_qi_embedding",
        "check_quasi_isometry",
        "check_quotient_qi",
        "is_congruence",
        "make_space",
        "quasi_density",
        "quasi_metricity_lambda",
        "search_quasi_isometry",
        "space_from_ball",
        "symmetrize",
    ),
    "growth": ("classify_growth", "dominates_within", "ends_profile",
               "growth_sequence"),
    # the two public submodules stand for themselves
    "catalog": ("catalog",),
    "descriptions": ("descriptions",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = import_module("." + module, __name__)
    return value if name == module else getattr(value, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
