"""tautilt: support tau-tilting posets, blocks and induction functors for
group algebras over small finite fields."""

__version__ = "0.1.0"

import importlib
import os

# One BLAS thread unless the user chose otherwise.  The products here are
# small: on a 2-core box a 240x60 @ 60x240 float64 product took 387 us with
# OpenBLAS's default thread pool and 167 us with one thread.  OpenBLAS reads
# these when numpy loads, so they are set before any submodule loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# Each public name and the submodule that defines it.  A name loads its
# submodule on first use (PEP 562), so importing the package, as the CLI
# does, loads no numpy: a cache hit never needs it.
_EXPORTS = {
    "algebra": (
        "Block",
        "GroupAlgebra",
        "block_decomposition",
        "covers",
        "inertial_group",
        "principal_block",
        "splitting_field",
    ),
    "engine": (
        "HassePoset",
        "STauTiltPair",
        "TiltingContext",
        "certify_support_tau_tilting",
        "enumerate_poset",
        "geq",
        "is_tau_rigid",
        "mutate",
    ),
    "ff": ("FFMatrix", "FieldSpec", "field_create", "rank_and_nullspace", "solve_intertwiner_system"),
    "functors": (
        "InductionContext",
        "induce",
        "is_invariant",
        "mackey_decomposition",
        "restrict",
        "twist",
        "verify_main_theorems",
        "verify_syzygy_commutation",
    ),
    "groups": ("FiniteGroup", "SubgroupEmbedding", "group_from_generators", "group_from_json"),
    "modules": (
        "ModuleRegistry",
        "RepModule",
        "is_isomorphic",
        "module_from_json",
        "module_to_json",
        "regular_module",
        "trivial_module",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_ORIGIN)]


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_ORIGIN})
