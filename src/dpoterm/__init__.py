"""Termination prover for DPO graph transformation systems via weighted
type graphs over well-founded commutative semirings."""

from .semiring import ARCTIC, ARITHMETIC, TROPICAL, SemiringDescriptor
from .signature import IndexSignature, ObjectDecl, parse_signature, representable_shapes
from .graph import CGraph, ElementRef, canonical_key, complete_type_graph
from .morphism import Morphism, compose, enumerate_homs, identity
from .dpo import (
    Framework,
    MONIC,
    REGULAR_MONIC,
    Rule,
    StepDiagram,
    UNRESTRICTED,
    enumerate_matches,
    pushout,
    pushout_complement,
)
from .wtg import (
    WeightedElement,
    WeightedTypeGraph,
    classify_rule,
    element_at,
    side_weight,
    verify_context_closure,
    weight_of_morphism,
    weight_of_object,
)

__all__ = [name for name in dir() if not name.startswith("_")]
