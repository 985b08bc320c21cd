"""qcff: Galois groups and genera of quasi-cyclotomic function fields over F_q(T).

The library computes, for a conductor M over A = F_q[T] and an ordered set
of prime pairs, the structure of the Galois group of the associated
(q-1)-th Kummer tower (generators, orders, relations) and the genus of both
layers, each genus along two independently coded paths.
"""

__version__ = "0.1.0"

from . import algebra, cyclotomic, errors, kummer, symbols
from ._kernels import backend_name
from .algebra import (
    FieldCtx,
    Factorization,
    Poly,
    PrimePower,
    enumerate_monic_below,
    field_create,
    format_poly,
    parse_poly,
    poly_cmp,
    poly_factor,
    poly_gcd,
    poly_is_irreducible,
    poly_phi,
    poly_powmod,
)
from .config import JobConfig, Options, load_config, parse_config
from .cyclotomic import (
    Conductor,
    DifferentData,
    GaloisStructure,
    conductor_create,
)
from .kummer import (
    FormalSum,
    FracClass,
    GroupPresentation,
    PairSet,
    RamTable,
    pair_formal_sum,
    pairset_create,
    parity_consistency,
    presentation,
    ramification_table,
)
from .report import render_json, render_text, run_report
from .selfcheck import run_selfcheck
from .symbols import check_reciprocity, jacobi_symbol, residue_symbol

__all__ = [
    "Conductor",
    "DifferentData",
    "Factorization",
    "FieldCtx",
    "FormalSum",
    "FracClass",
    "GaloisStructure",
    "GroupPresentation",
    "JobConfig",
    "Options",
    "PairSet",
    "Poly",
    "PrimePower",
    "RamTable",
    "__version__",
    "algebra",
    "backend_name",
    "check_reciprocity",
    "conductor_create",
    "cyclotomic",
    "enumerate_monic_below",
    "errors",
    "field_create",
    "format_poly",
    "jacobi_symbol",
    "kummer",
    "load_config",
    "pair_formal_sum",
    "pairset_create",
    "parity_consistency",
    "parse_config",
    "parse_poly",
    "poly_cmp",
    "poly_factor",
    "poly_gcd",
    "poly_is_irreducible",
    "poly_phi",
    "poly_powmod",
    "presentation",
    "ramification_table",
    "render_json",
    "render_text",
    "residue_symbol",
    "run_report",
    "run_selfcheck",
    "symbols",
]
