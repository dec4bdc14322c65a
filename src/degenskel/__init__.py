"""Exact skeleta of one-parameter sncd degenerations.

Everything is computed over the base field Q(t) with its t-adic valuation,
using rational arithmetic only: monomial valuations on polynomial rings,
dual intersection complexes of combinatorial sncd models, weight functions
of pluricanonical forms with their Kontsevich-Soibelman and essential
skeleta, and the explicit retraction flow on the basic two-component model.
"""
from .errors import ValidationError
from .field import BaseElement, INFINITY, format_rational, uniformizer
from .monoval import MonomialWeights, MultivariatePoly, monomial_valuation
from .parsing import parse_element, parse_flow_time, parse_polynomial
from .dualcomplex import (
    Component,
    DualComplex,
    ModelDescription,
    MonomialPointData,
    SkeletonPoint,
    Stratum,
    barycentric_to_monomial,
    build_complex,
    connected_components,
    monomial_to_barycentric,
)
from .weight import (
    PluricanonicalForm,
    Subcomplex,
    WeightValue,
    essential_skeleton,
    form_problems,
    global_weight,
    is_closed_pseudomanifold,
    is_connected,
    ks_skeleton,
    weight_at,
)
from .flow import (
    BasicModel,
    RigidPoint,
    flow_expansion,
    flow_value,
    flow_value_monomial,
    flow_valuations,
    retract_point,
)

__version__ = "0.1.0"

__all__ = [
    "BaseElement",
    "BasicModel",
    "Component",
    "DualComplex",
    "INFINITY",
    "ModelDescription",
    "MonomialPointData",
    "MonomialWeights",
    "MultivariatePoly",
    "PluricanonicalForm",
    "RigidPoint",
    "SkeletonPoint",
    "Stratum",
    "Subcomplex",
    "ValidationError",
    "WeightValue",
    "barycentric_to_monomial",
    "build_complex",
    "connected_components",
    "essential_skeleton",
    "flow_expansion",
    "flow_value",
    "flow_value_monomial",
    "flow_valuations",
    "form_problems",
    "format_rational",
    "global_weight",
    "is_closed_pseudomanifold",
    "is_connected",
    "ks_skeleton",
    "monomial_to_barycentric",
    "monomial_valuation",
    "parse_element",
    "parse_flow_time",
    "parse_polynomial",
    "retract_point",
    "uniformizer",
    "weight_at",
]
