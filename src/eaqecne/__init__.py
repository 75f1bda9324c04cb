"""Tools for q-ary entanglement-assisted quantum codes with noisy ebits.

Layers, bottom up: finite-field tables (:mod:`eaqecne.gf`), row-reduction
subspace algebra (:mod:`eaqecne.linalg`), symplectic geometry of F_q^{2n}
(:mod:`eaqecne.symplectic`), additive codes over GF(q^2)
(:mod:`eaqecne.addcodes`), code-parameter derivation and combination
constructions (:mod:`eaqecne.eaqec`), a dense-matrix Pauli-group oracle
(:mod:`eaqecne.pauli`), and the analytic channel-fidelity comparison
(:mod:`eaqecne.fidelity`).  ``eaqecne.cli`` exposes all of it as one command.
"""

from .addcodes import (AdditiveCode, CodeDecomposition, dual, is_acd,
                       is_dual_containing, is_self_orthogonal,
                       min_weight_excluding_detail, puncture, radical,
                       radical_decompose)
from .eaqec import (CombinationParams, CombinationReport, EAQECCParams,
                    combine_construct, combine_neb, eaqec_params,
                    known_tables, puncture_to_eaqecc, stabilizer_params)
from .fidelity import approx_fidelity, compare, crossover_degradation, sweep
from .gf import FieldSpec, field, quadratic_field
from .pauli import PauliLabel, codespace_dim, commutation_phase, pauli_matrix

__version__ = "0.1.0"

__all__ = [
    "AdditiveCode",
    "CodeDecomposition",
    "CombinationParams",
    "CombinationReport",
    "EAQECCParams",
    "FieldSpec",
    "PauliLabel",
    "approx_fidelity",
    "codespace_dim",
    "combine_construct",
    "combine_neb",
    "commutation_phase",
    "compare",
    "crossover_degradation",
    "dual",
    "eaqec_params",
    "field",
    "is_acd",
    "is_dual_containing",
    "is_self_orthogonal",
    "min_weight_excluding_detail",
    "pauli_matrix",
    "known_tables",
    "puncture",
    "puncture_to_eaqecc",
    "quadratic_field",
    "radical",
    "radical_decompose",
    "stabilizer_params",
    "sweep",
    "__version__",
]
