"""Exact arithmetic in F_q and F_q[T]: the base layer for everything else."""

from .factor import (
    Factorization,
    PrimePower,
    monic_irreducibles,
    poly_factor,
    poly_is_irreducible,
    poly_phi,
)
from .field import FieldCtx, field_create, is_prime_int
from .poly import (
    Poly,
    enumerate_monic_below,
    format_poly,
    monic_of_degree,
    one,
    parse_poly,
    poly_cmp,
    poly_gcd,
    poly_powmod,
    var_T,
    zero,
)

__all__ = [
    "FieldCtx",
    "Factorization",
    "Poly",
    "PrimePower",
    "enumerate_monic_below",
    "field_create",
    "format_poly",
    "is_prime_int",
    "monic_irreducibles",
    "monic_of_degree",
    "one",
    "parse_poly",
    "poly_cmp",
    "poly_factor",
    "poly_gcd",
    "poly_is_irreducible",
    "poly_phi",
    "poly_powmod",
    "var_T",
    "zero",
]
