import importlib
import subprocess
import sys

import pytest

import curvlab

# The exported names, pinned: every name of the 0.1.0 surface plus NumericalFailure.
EXPORTED = """
BAnalysis Case1 Case2 Case3 Case4 ConventionViolation CurvatureTensor CurvlabError DEFAULT_TOL
Decomposition DimensionMismatch DistributionSamples EmptySamples FitResult InconsistentKappa
InconsistentTau InputFormatError IsotropyReport KahlerClass MathematicalRejection
NoDominantEigenvalue NonFiniteComponents NonOrthonormalBasis NonPositiveTolerance
NotAlmostIsotropic NotKahler NotOrthonormal NotSkew NotUnit NumericalFailure OddDimension
ParseError PreconditionViolated SchemaVersionUnsupported SignResolutionFailure
StructureViolation Subspace SymmetryReport SymmetryViolation ZeroOperator almost_isotropy_scan
analyze_b_operator berger_check build_model build_r1 build_ra classify_kahler commute_type
distribution_at eigenspace_at einstein_check extremal_curvature fit_skew_from_samples
holomorphic_sectional identity_residuals jacobi_operator kappa_at load_samples load_tensor
nullity_space random_skew rank_with_tol recover_decomposition relations_residuals ricci
save_samples save_tensor sectional_curvature sphere_structure_check standard_complex_structure
symmetric_spectrum tangency_profile unit_sphere_samples validate_symmetries
""".split()


def test_exported_names_pinned():
    assert len(EXPORTED) == 74
    assert curvlab.__all__ == sorted(EXPORTED)


def test_each_export_is_the_defining_object():
    for name in EXPORTED:
        owner = importlib.import_module(f"curvlab.{curvlab._EXPORTS[name]}")
        assert getattr(curvlab, name) is getattr(owner, name), name
    assert set(EXPORTED) <= set(dir(curvlab))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from curvlab import *", namespace)
    assert set(EXPORTED) <= set(namespace)
    for name in EXPORTED:
        assert namespace[name] is getattr(curvlab, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        curvlab.no_such_name


def test_import_loads_no_submodule():
    script = (
        "import sys, curvlab\n"
        "print(sorted(m for m in sys.modules if m.startswith('curvlab.')))\n"
        "curvlab.Subspace\n"
        "print(sorted(m for m in sys.modules if m.startswith('curvlab.')))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "['curvlab.errors', 'curvlab.linalg']"]
