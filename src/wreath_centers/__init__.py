"""Exact computations in centers of wreath product group algebras.

Structure constants of Z(C[G wr S_n]) for a finite group G given by its
multiplication table, their stable-in-n binomial polynomial form through
the algebra of G-labeled partial permutations, and pointwise verification
of the isomorphism with shifted symmetric functions on one alphabet per
irreducible character of G.
"""

from .center import AlgebraVector, product_classes
from .groups import FiniteGroup, builtin_group, group_from_json, group_from_table, resolve_group
from .kernels import BACKEND, available_backends
from .partial import (
    GPartialPermutation, class_size_partial, enumerate_partial_class,
    semigroup_order)
from .shifted import CharacterCalculator, image_eval, verify_theorem71
from .universal import PolynomialInN, k_coeff, structure_polynomial
from .wreath import (
    PartitionFamily, WreathElement, class_order, families_of_size,
    families_up_to, type_of, w_inverse, w_multiply)

__version__ = "0.1.0"

__all__ = [
    "AlgebraVector", "BACKEND", "CharacterCalculator", "FiniteGroup",
    "GPartialPermutation", "PartitionFamily", "PolynomialInN",
    "WreathElement", "__version__", "available_backends",
    "builtin_group", "class_order",
    "class_size_partial", "enumerate_partial_class",
    "families_of_size", "families_up_to", "group_from_json",
    "group_from_table", "image_eval", "k_coeff", "product_classes",
    "resolve_group", "semigroup_order",
    "structure_polynomial", "type_of", "verify_theorem71",
    "w_inverse", "w_multiply",
]
