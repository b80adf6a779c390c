"""The package namespace: every public name loads on first use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cayley_potts
from cayley_potts import period2, potts, scan, solver, tree

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = (tree, potts, period2, solver, scan)


def test_public_names_are_their_submodules_objects():
    assert len(cayley_potts.__all__) == 28
    assert cayley_potts.__all__[-1] == "__version__"
    for name in cayley_potts.__all__[:-1]:
        value = getattr(cayley_potts, name)
        homes = [m for m in SUBMODULES if hasattr(m, name)]
        assert homes, name
        assert all(getattr(m, name) is value for m in homes), name
    assert set(cayley_potts.__all__) <= set(dir(cayley_potts))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cayley_potts import *", namespace)
    assert set(cayley_potts.__all__) <= set(namespace)
    assert namespace["find_h_roots"] is solver.find_h_roots


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        cayley_potts.no_such_name
    assert not hasattr(cayley_potts, "ThetaDomain")
    assert not hasattr(cayley_potts, "RootReport")
    assert not hasattr(cayley_potts, "row_from_report")
    # the bracketing helpers stay solver module functions, not exports
    assert not hasattr(cayley_potts, "bisect")
    assert not hasattr(cayley_potts, "scan_brackets")
    # the paper's lemmas live with the tests, and emit_json is render_rows
    for name in ("g_scalar", "h_prime", "p_coefficients",
                 "descartes_positive_root_bound", "emit_json"):
        assert not hasattr(cayley_potts, name), name
        assert not any(hasattr(m, name) for m in SUBMODULES), name


def test_scalar_layers_load_without_numpy():
    script = "\n".join([
        "import sys",
        "import cayley_potts as cp",
        "import cayley_potts.cli",
        "import cayley_potts.tree",
        "cp.sphere(cp.build_tree(3, 2), 2)",
        "cp.find_h_roots(0.1, 3)",
        "cp.scan_theta(3, 0.1, 0.2, 2)",
        "cp.h_scalar(1.0, 0.1, 3)",
        "z0 = (1.2, 1.2, 0.8, 0.8)",
        "z1 = cp.period2_map(z0, 0.1, 3)",
        "cp.sign_relation_check(z0, z1, 0.1)",
        "code = cayley_potts.cli.main(['orbit', '--k', '3', '--theta', '0.1',",
        f"    '--z', '1.2,1.2,0.8,0.8', '--out', {os.devnull!r}])",
        "assert code == 0, code",
        "assert 'numpy' not in sys.modules",
        "cp.f_map",
        "assert 'numpy' in sys.modules",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=env, timeout=120, check=False)
    assert done.returncode == 0, done.stderr.decode()


def test_cli_starts_without_heavy_stdlib_modules():
    # what importing the CLI and running its math-only subcommands loads
    # beyond what was there before: a site hook may preload some of these,
    # so only modules new since the import count
    script = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "from cayley_potts.cli import main",
        f"out = ['--out', {os.devnull!r}]",
        "for argv in (['roots', '--k', '3', '--theta', '0.1'],",
        "             ['roots', '--k', '3', '--theta', '0.1',",
        "              '--format', 'csv'],",
        "             ['scan', '--k', '3', '--theta', '0.1:0.4:3'],",
        "             ['scan', '--k', '3', '--theta', '0.1:0.4:3',",
        "              '--format', 'csv'],",
        "             ['orbit', '--k', '3', '--theta', '0.1'],",
        "             ['tree-check', '--k', '3', '--n', '2']):",
        "    assert main(argv + out) == 0, argv",
        "assert main(['roots', '--k', '2', '--theta', '0.1']) == 1",
        "loaded = set(sys.modules) - before",
        "heavy = {'dataclasses', 'inspect', 'json', 'typing', 'pathlib',",
        "         'numbers', 'numpy'} & loaded",
        "assert not heavy, sorted(heavy)",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=env, timeout=120, check=False)
    assert done.returncode == 0, done.stderr.decode()


def test_package_imports_only_stdlib_and_numpy():
    # the runtime dependency is numpy alone: every import in the package is
    # relative, from the standard library, or numpy, so nothing reaches
    # into tests, helpers, perfbench or mpmath
    sources = sorted((ROOT / "src" / "cayley_potts").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            for top in tops:
                assert top in sys.stdlib_module_names or top == "numpy", \
                    f"{path.name}:{node.lineno} imports {top}"
