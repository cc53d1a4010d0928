"""Static checks of the package source, in place of a linter.

Every name a module imports is used in that module, and every name listed
in a module's ``__all__`` is bound at its top level. ``__init__.py`` is
exempt from the first check: its imports are the modules it exports, and the
package root exports modules only, so each public name has one import path.
Every public name of a numeric module is used somewhere in the package or
the benchmark outside its own definition, and every private top-level name
of a module is used somewhere in the package outside its own definition.
The tests' oracles (tests/oracles.py) import nothing from the package, so
no oracle runs the code it checks.
No module refers to numpy.fft: scipy.fft is the one FFT backend. No
numeric module imports core.GRAIN or core.WORKERS by name, since the tests
patch them on core. No numeric module but core takes a largest part or
scales by a power of two: core alone decides scale. The
products whose norms follow pooled passes (cd and sfft) call no BLAS norm
and take ||A|| and ||B|| from their truncations, not from a pass over the
operands, and _fro of M alone; the products that end in BLAS (svd and
lowrank) take no pooled norm; and the column roll and
circulant_materialize make no matrix product.
"""

import ast
import re
from pathlib import Path
from types import ModuleType

import pytest

import apxmm

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "apxmm").glob("*.py"))
NUMERIC = [p for p in SOURCES if p.name not in ("__init__.py", "__main__.py", "cli.py")]
CALLERS = SOURCES + sorted((ROOT / "perfbench").rglob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _top_level_bindings(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def _dunder_all(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return None


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "core.py", "report.py"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported_names(tree) - used) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_dunder_all_names_defined(path):
    tree = _tree(path)
    exported = _dunder_all(tree) or []
    assert sorted(set(exported) - _top_level_bindings(tree)) == []


def test_package_root_exports_only_its_modules():
    assert apxmm.__all__
    for name in apxmm.__all__:
        assert (ROOT / "src" / "apxmm" / f"{name}.py").is_file(), name
        assert isinstance(getattr(apxmm, name), ModuleType), name
    public = [name for name in vars(apxmm) if not name.startswith("_")]
    assert [name for name in public if not isinstance(getattr(apxmm, name), ModuleType)] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_scipy_fft_is_the_one_fft_backend(path):
    # the two backends round differently; one keeps every transform of a
    # real input exactly conjugate-symmetric and its threads in one place
    text = path.read_text(encoding="utf-8")
    numpy_fft = re.compile(r"\b(?:np|numpy)\.fft\b|from\s+numpy\s+import[^\n]*\bfft\b")
    assert numpy_fft.findall(text) == []


def test_patched_settings_are_read_from_core():
    # the tests force split passes by patching core.GRAIN and core.WORKERS;
    # a copy bound by `from .core import GRAIN` escapes the patch, and a
    # test of the split code then runs the unsplit one
    copies = []
    for path in NUMERIC:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.module in ("core", "apxmm.core"):
                copies += [f"{path.stem}.{a.name}" for a in node.names
                           if a.name in ("GRAIN", "WORKERS")]
    assert copies == []


def test_scale_is_decided_in_core():
    # a product checks its factor norms against core's band and reruns on
    # factors scaled by powers of two (core._band_exponents, core._rescaled);
    # a norm that rescued its own scale would bring the per-norm fallbacks back
    scaling = {"_largest_part", "_exponent", "_ldexp", "_scaled_norm", "frexp", "ldexp"}
    found = [f"{path.stem}.{name}" for path in NUMERIC if path.name != "core.py"
             for name in sorted(_references(_tree(path)) & scaling)]
    assert found == []


def _references(tree: ast.AST, skip: str | None = None) -> set[str]:
    """Names and attribute names the tree reads, outside the top-level
    function or class called ``skip``."""
    names = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        names |= _references(node)
    return names


def test_public_names_have_callers():
    trees = {path: _tree(path) for path in CALLERS}
    unused = []
    for path in NUMERIC:
        for name in _dunder_all(trees[path]) or []:
            if not any(name in _references(tree, name if caller == path else None)
                       for caller, tree in trees.items()):
                unused.append(f"{path.stem}.{name}")
    assert sorted(unused) == []


def test_oracles_import_nothing_from_the_package():
    tree = _tree(ROOT / "tests" / "oracles.py")
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    assert modules
    assert sorted(m for m in modules if m.startswith((".", "apxmm"))) == []


def test_private_names_have_callers():
    trees = {path: _tree(path) for path in SOURCES}
    unused = []
    for path, tree in trees.items():
        for name in _top_level_bindings(tree):
            if (name.startswith("_") and not name.startswith("__")
                    and not any(name in _references(other, name if other is tree else None)
                                for other in trees.values())):
                unused.append(f"{path.stem}.{name}")
    assert sorted(unused) == []


def _blas_norm_calls(tree: ast.Module) -> list[str]:
    """Calls of a BLAS dot (dot, vdot, np.dot, x.dot) or of linalg.norm
    without an axis (a BLAS dot underneath). A product written as x @ x is
    not caught."""
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            called = ast.unparse(node.func)
            axis = len(node.args) >= 3 or any(kw.arg == "axis" for kw in node.keywords)
            if (called.endswith("dot")
                    or (called.endswith("linalg.norm") and not axis)):
                calls.append(ast.unparse(node))
    return calls


@pytest.mark.parametrize("name", ["circulant.py", "fsparse.py"])
def test_pooled_products_call_no_blas_norm(name):
    # a threaded BLAS call leaves its worker spinning for a while, and the
    # pooled pass after it then shares a core with that worker; report._fro
    # makes no BLAS call at pool sizes
    assert _blas_norm_calls(_tree(ROOT / "src" / "apxmm" / name)) == []


@pytest.mark.parametrize("name", ["circulant.py", "fsparse.py"])
def test_pooled_products_read_no_operand_for_its_norm(name):
    # ||A|| and ||B|| of the a-priori estimate come from the truncation:
    # the kept part's norm and the residue's norm, which split the factor's
    # energy, and the residue norms from the truncation too, so no n^2 pass
    # reads an operand or a residue for its norm: _fro takes M only
    calls = {ast.unparse(node) for node in ast.walk(_tree(ROOT / "src" / "apxmm" / name))
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "_fro"}
    assert calls == {"_fro(M)"}


@pytest.mark.parametrize("name", ["svd.py", "baseline.py"])
def test_blas_products_take_no_pooled_gate_or_norm(name):
    # svd and lowrank end in BLAS calls: their finiteness check is the norm
    # pass they make anyway, and svd's ||M|| comes from its factors, so on
    # finite factors no pooled pass runs beside a spinning BLAS worker
    tree = _tree(ROOT / "src" / "apxmm" / name)
    assert "_fro" not in _references(tree) | _imported_names(tree)


@pytest.mark.parametrize("name, function", [("core.py", "_roll_columns"),
                                            ("circulant.py", "circulant_materialize")])
def test_roll_and_materialize_make_no_matrix_product(name, function):
    # cd's correction pass follows materialize on the pool; a GEMM per slab
    # in materialize halved its own time at n=2048, but the spinning BLAS
    # workers it left slowed the pooled correction after it by about 40%
    body = next(node for node in _tree(ROOT / "src" / "apxmm" / name).body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    products = []
    for node in ast.walk(body):
        matmul = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        called = (node.id if isinstance(node, ast.Name)
                  else node.attr if isinstance(node, ast.Attribute) else "")
        if matmul or re.search("matmul|dot|einsum", called):
            products.append(ast.unparse(node))
    assert products == []
