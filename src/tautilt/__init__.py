"""tautilt: support tau-tilting posets, blocks and induction functors for
group algebras over small finite fields."""

__version__ = "0.1.0"

import os

# One BLAS thread unless the user chose otherwise.  The products here are
# small: on a 2-core box a 240x60 @ 60x240 float64 product took 387 us with
# OpenBLAS's default thread pool and 167 us with one thread.  OpenBLAS reads
# these when numpy loads, so they are set before any import below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .algebra import (
    Block,
    GroupAlgebra,
    block_decomposition,
    covers,
    inertial_group,
    principal_block,
    splitting_field,
)
from .engine import (
    HassePoset,
    STauTiltPair,
    TiltingContext,
    certify_support_tau_tilting,
    enumerate_poset,
    geq,
    is_tau_rigid,
    mutate,
)
from .ff import FFMatrix, FieldSpec, field_create, rank_and_nullspace, solve_intertwiner_system
from .functors import (
    InductionContext,
    induce,
    is_invariant,
    mackey_decomposition,
    restrict,
    twist,
    verify_main_theorems,
    verify_syzygy_commutation,
)
from .groups import FiniteGroup, SubgroupEmbedding, group_from_generators, group_from_json
from .modules import (
    ModuleRegistry,
    RepModule,
    is_isomorphic,
    module_from_json,
    module_to_json,
    regular_module,
    trivial_module,
)

__all__ = [
    "__version__",
    "Block",
    "FFMatrix",
    "FieldSpec",
    "FiniteGroup",
    "GroupAlgebra",
    "HassePoset",
    "InductionContext",
    "ModuleRegistry",
    "RepModule",
    "STauTiltPair",
    "SubgroupEmbedding",
    "TiltingContext",
    "block_decomposition",
    "certify_support_tau_tilting",
    "covers",
    "enumerate_poset",
    "field_create",
    "geq",
    "group_from_generators",
    "group_from_json",
    "induce",
    "inertial_group",
    "is_invariant",
    "is_isomorphic",
    "is_tau_rigid",
    "mackey_decomposition",
    "module_from_json",
    "module_to_json",
    "mutate",
    "principal_block",
    "rank_and_nullspace",
    "regular_module",
    "restrict",
    "solve_intertwiner_system",
    "splitting_field",
    "trivial_module",
    "twist",
    "verify_main_theorems",
    "verify_syzygy_commutation",
]
