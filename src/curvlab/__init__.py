"""Numerical toolkit for almost isotropic algebraic curvature tensors.

Construct model tensors kappa*R1 + tau*RA, test almost isotropy, recover
the decomposition, classify Kahler tensors into their four structural
cases, and reconstruct skew projective classes from sampled totally
geodesic distributions on unit spheres.

``import curvlab`` loads no submodule: the first use of an exported name
imports the module that owns it (PEP 562), so a process pays only for the
modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_EXPORTS = {
    "curvature": "CurvatureTensor SymmetryReport berger_check build_model build_r1 build_ra "
    "holomorphic_sectional jacobi_operator nullity_space ricci sectional_curvature "
    "validate_symmetries",
    "errors": "ConventionViolation CurvlabError DimensionMismatch EmptySamples "
    "InconsistentKappa InconsistentTau InputFormatError MathematicalRejection "
    "NonFiniteComponents NonOrthonormalBasis NonPositiveTolerance "
    "NotAlmostIsotropic NotKahler NotOrthonormal NotSkew NotUnit NumericalFailure "
    "OddDimension ParseError PreconditionViolated SchemaVersionUnsupported "
    "SignResolutionFailure StructureViolation SymmetryViolation ZeroOperator",
    "io": "load_samples load_tensor save_samples save_tensor",
    "isotropy": "Decomposition IsotropyReport almost_isotropy_scan eigenspace_at "
    "extremal_curvature recover_decomposition",
    "kahler": "BAnalysis Case1 Case2 Case3 Case4 KahlerClass analyze_b_operator "
    "classify_kahler commute_type einstein_check identity_residuals relations_residuals",
    "linalg": "DEFAULT_TOL Subspace random_skew rank_with_tol standard_complex_structure "
    "symmetric_spectrum unit_sphere_samples",
    "sphere": "DistributionSamples FitResult distribution_at fit_skew_from_samples "
    "sphere_structure_check tangency_profile",
}

#: Exported name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def _lazy_getattr(namespace: dict, exports: dict):
    """A module ``__getattr__`` that imports ``curvlab.<exports[name]>`` on the
    first use of ``name`` and caches the value in ``namespace``; later lookups,
    and assignments that replace the value, use the plain attribute."""

    def __getattr__(name):
        if name not in exports:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f"{__name__}.{exports[name]}"), name)
        return value

    return __getattr__


__getattr__ = _lazy_getattr(globals(), _EXPORTS)


def __dir__():
    return sorted(set(globals()) | set(__all__))
