"""The package namespace: every public name loads on first use."""

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
    assert len(cayley_potts.__all__) == 36
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


def test_scalar_layers_load_without_numpy():
    script = "\n".join([
        "import sys",
        "import cayley_potts as cp",
        "import cayley_potts.cli",
        "import cayley_potts.tree",
        "cp.edges(cp.build_tree(3, 2))",
        "cp.find_h_roots(0.1, 3)",
        "cp.scan_theta(3, 0.1, 0.2, 2)",
        "cp.h_prime(1.0, 0.1, 3)",
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
