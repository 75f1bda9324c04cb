"""Tools for q-ary entanglement-assisted quantum codes with noisy ebits.

Layers, bottom up: finite-field tables (:mod:`eaqecne.gf`), row-reduction
subspace algebra (:mod:`eaqecne.linalg`), symplectic geometry of F_q^{2n}
(:mod:`eaqecne.symplectic`), additive codes over GF(q^2)
(:mod:`eaqecne.addcodes`), code-parameter derivation and combination
constructions (:mod:`eaqecne.eaqec`, its numpy-free parameter records in
:mod:`eaqecne.records`), a dense-matrix Pauli-group oracle
(:mod:`eaqecne.pauli`), and the analytic channel-fidelity comparison
(:mod:`eaqecne.fidelity`).  ``eaqecne.cli`` exposes all of it as one command.

``import eaqecne`` loads no submodule: each public name or submodule is
imported on first use (PEP 562), so the fidelity layer never loads numpy.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {name: module for module, names in (
    ("addcodes", "AdditiveCode CodeDecomposition dual is_acd is_dual_containing "
                 "is_self_orthogonal min_weight_excluding_detail puncture "
                 "radical radical_decompose"),
    ("eaqec", "CombinationReport combine_construct combine_neb eaqec_params "
              "puncture_to_eaqecc stabilizer_params"),
    ("fidelity", "approx_fidelity compare crossover_degradation sweep"),
    ("gf", "FieldSpec field quadratic_field"),
    ("pauli", "PauliLabel codespace_dim commutation_phase pauli_matrix"),
    ("records", "CombinationParams EAQECCParams known_tables"),
) for name in names.split()}
_SUBMODULES = {"cli", "errors", "linalg", "symplectic", *_HOME.values()}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
