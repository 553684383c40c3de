import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import curvlab

# The exported names, pinned: the 0.1.0 surface plus NumericalFailure, less kappa_at and
# NoDominantEigenvalue (almost_isotropy_scan is the one source of kappa).
EXPORTED = """
BAnalysis Case1 Case2 Case3 Case4 ConventionViolation CurvatureTensor CurvlabError DEFAULT_TOL
Decomposition DimensionMismatch DistributionSamples EmptySamples FitResult InconsistentKappa
InconsistentTau InputFormatError IsotropyReport KahlerClass MathematicalRejection
NonFiniteComponents NonOrthonormalBasis NonPositiveTolerance
NotAlmostIsotropic NotKahler NotOrthonormal NotSkew NotUnit NumericalFailure OddDimension
ParseError PreconditionViolated SchemaVersionUnsupported SignResolutionFailure
StructureViolation Subspace SymmetryReport SymmetryViolation ZeroOperator almost_isotropy_scan
analyze_b_operator berger_check build_model build_r1 build_ra classify_kahler commute_type
distribution_at eigenspace_at einstein_check extremal_curvature fit_skew_from_samples
holomorphic_sectional identity_residuals jacobi_operator load_samples load_tensor
nullity_space random_skew rank_with_tol recover_decomposition relations_residuals ricci
save_samples save_tensor sectional_curvature sphere_structure_check standard_complex_structure
symmetric_spectrum tangency_profile unit_sphere_samples validate_symmetries
""".split()


def test_exported_names_pinned():
    assert len(EXPORTED) == 72
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


@pytest.mark.parametrize("name", ["kappa_at", "NoDominantEigenvalue"])
def test_removed_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(curvlab, name)


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


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    result = subprocess.run([sys.executable, "-W", "error", "-c", block],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout.splitlines()[0] == "Case3(kappa=-1.0, case=3)"


# The functions that may still raise a raw ValueError: only io's two internal
# signals, which io catches itself (the streamed reader falls back to the
# whole-text parse).  Everywhere else the package raises a typed CurvlabError
# instead; the one number-list reader, linalg.require_numbers, raises none.
RAW_VALUE_ERROR_ALLOWED = {"io": {"_read_numbers", "_read_base64"}}


def raw_value_error_sites(path):
    """(enclosing function, line) of each ``raise ValueError`` in a source file."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    sites.append((function, child.lineno))
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return sites


def test_raw_value_error_only_where_allowed():
    stray, used = [], set()
    for path in sorted(Path(curvlab.__file__).parent.glob("*.py")):
        allowed = RAW_VALUE_ERROR_ALLOWED.get(path.stem, set())
        for function, line in raw_value_error_sites(path):
            if function in allowed:
                used.add((path.stem, function))
            else:
                stray.append(f"{path.name}:{line} in {function}")
    assert stray == []
    # each io function allowed still raises one, so the allowance cannot go stale
    assert {f for m, f in used if m == "io"} == RAW_VALUE_ERROR_ALLOWED["io"]

