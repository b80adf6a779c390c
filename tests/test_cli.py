"""End-to-end runs of every subcommand through cli.main."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cayley_potts import __version__, cli
from cayley_potts.scan import CSV_HEADER
from cayley_potts.solver import bisect

GOLDEN = Path(__file__).parent / "data" / "scan_k3_golden.csv"
ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ roots


def test_roots_text_below_threshold(capsys):
    code, out, _ = run(capsys, "roots", "--k", "3", "--theta", "0.1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("k=3  theta=0.1  theta_cr=0.25")
    assert lines[1].startswith("domain: (")
    assert lines[2] == "count=3: 1 translation-invariant + 2 period-2"
    assert sum(1 for ln in lines if ln.startswith("  x = ")) == 3
    assert any(ln.startswith("orbit pair: f(") for ln in lines)
    assert lines[-1] == "flags: (none)"


def readme_transcript(command: str) -> bytes:
    """The README's output block for ``$ cayley-potts COMMAND``."""
    readme = (ROOT / "README.md").read_text(encoding="ascii")
    block = readme.split(f"$ cayley-potts {command}\n", 1)[1]
    return block.split("```", 1)[0].encode("ascii")


def test_python_m_entry_point_matches_readme():
    command = "roots --k 3 --theta 0.1"
    transcript = readme_transcript(command)
    done = subprocess.run(
        [sys.executable, "-m", "cayley_potts.cli", *command.split()],
        capture_output=True, env=src_env(), timeout=120, check=False)
    assert done.returncode == 0
    assert done.stdout == transcript


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    return env


def test_roots_and_scan_never_import_numpy():
    script = "\n".join([
        "import sys",
        "from cayley_potts import cli",
        "codes = [cli.main(['roots', '--k', '3', '--theta', '0.1']),",
        "         cli.main(['scan', '--k', '3', '--theta', '0.1:0.4:3']),",
        "         cli.main(['roots', '--k', '3', '--theta', '1.5']),",
        "         cli.main(['tree-check', '--k', '3', '--n', '2'])]",
        "assert codes == [0, 0, 1, 0], codes",
        "assert 'numpy' not in sys.modules",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=src_env(), timeout=120, check=False)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (readme_transcript("roots --k 3 --theta 0.1")
                           + readme_transcript("scan --k 3 --theta 0.1:0.4:3")
                           + readme_transcript("tree-check --k 3 --n 2"))
    assert done.stderr.startswith(b"error: activity must be below 1")


def test_roots_text_above_threshold(capsys):
    code, out, _ = run(capsys, "roots", "--k", "3", "--theta", "0.5")
    assert code == 0
    assert "count=1: 1 translation-invariant + 0 period-2" in out


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "--k", "3", "--theta", "0.1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 3 and payload["count"] == 3
    assert payload["theta_cr"] == 0.25
    assert len(payload["roots"]) == 3
    assert payload["roots"][1]["x"] == 1.0
    assert all(abs(e["residual"]) <= 1e-10 for e in payload["roots"])
    assert payload["pairs"] == [[payload["roots"][0]["x"],
                                 payload["roots"][2]["x"]]]


def test_roots_csv(capsys):
    code, out, _ = run(capsys, "roots", "--k", "3", "--theta", "0.1",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("3,0.1")


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json"),
                                      ("csv", "csv")])
@pytest.mark.parametrize("k, theta", [("3", "0.1"), ("3", "0.25"),
                                      ("3", "0.5"), ("4", "0.2"),
                                      ("10", "0.1")])
def test_roots_matches_golden(capsys, k, theta, fmt, ext):
    # below, at and above theta_cr: every field of every format, byte for byte
    golden = GOLDEN.parent / f"roots_k{k}_theta{theta}.{ext}"
    code, out, _ = run(capsys, "roots", "--k", k, "--theta", theta,
                       "--format", fmt)
    assert code == 0
    assert out.encode("ascii") == golden.read_bytes()


def test_roots_accepts_coupling_pair(capsys):
    # theta = exp(J*beta) = exp(-1) ~ 0.368, above the k=3 threshold
    code, out, _ = run(capsys, "roots", "--k", "3", "--J", "-0.5",
                       "--beta", "2.0")
    assert code == 0
    assert "count=1" in out


def test_roots_rejects_conflicting_activity_flags(capsys):
    code, _, err = run(capsys, "roots", "--k", "3", "--theta", "0.1",
                       "--J", "-1.0", "--beta", "1.0")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "roots", "--k", "3", "--J", "-1.0")
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("command", [
    ("roots", "--k", "3"),
    ("verify", "--k", "2", "--n", "1", "--trials", "1"),
    ("orbit", "--k", "3"),
], ids=["roots", "verify", "orbit"])
@pytest.mark.parametrize("J", ["1000", "nan"])
def test_coupling_out_of_range_is_a_validation_error(capsys, command, J):
    # exp(1000) overflows and a NaN coupling has no activity: both are bad
    # input naming the flag, not a numerical failure or a complaint about
    # a theta the caller never gave
    code, out, err = run(capsys, *command, "--J", J, "--beta", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "--J" in err


def test_roots_rejects_bad_parameters(capsys):
    assert run(capsys, "roots", "--k", "2", "--theta", "0.1")[0] == 1
    assert run(capsys, "roots", "--k", "3", "--theta", "1.0")[0] == 1
    assert run(capsys, "roots", "--k", "3", "--theta", "-0.5")[0] == 1
    assert run(capsys, "roots", "--k", "3")[0] == 1  # no activity given


@pytest.mark.parametrize("argv", [
    ("roots", "--k", "3", "--theta", "0.1", "--format", "text"),
    ("roots", "--k", "3", "--theta", "0.1", "--format", "json"),
    ("roots", "--k", "3", "--theta", "0.1", "--format", "csv"),
    ("scan", "--k", "3", "--theta", "0.1:0.4:2", "--format", "csv"),
    ("verify", "--k", "2", "--n", "2", "--theta", "0.5", "--trials", "2"),
    ("verify", "--k", "2", "--n", "2", "--theta", "0.5", "--trials", "2",
     "--perturb", "0.3"),
    ("orbit", "--k", "3", "--theta", "0.1", "--z", "1.2,1.2,0.8,0.8"),
    ("tree-check", "--k", "3", "--n", "2"),
], ids=["roots-text", "roots-json", "roots-csv", "scan-csv", "verify",
        "verify-perturb", "orbit", "tree-check"])
def test_roots_out_file_matches_stdout(capsys, tmp_path, argv):
    # a failing check exits 2 and still writes its report to the file
    expected_code = 2 if "--perturb" in argv else 0
    target = tmp_path / "out"
    code, out, _ = run(capsys, *argv, "--out", str(target))
    assert code == expected_code and out == ""
    code, out, _ = run(capsys, *argv)
    assert code == expected_code
    assert target.read_bytes() == out.encode("ascii")


@pytest.mark.parametrize("command", [
    ("roots", "--k", "3", "--theta", "0.1"),
    ("tree-check", "--k", "2", "--n", "1"),
], ids=["roots", "tree-check"])
def test_unwritable_out_is_an_error(capsys, tmp_path, command):
    # a missing directory, a directory and an empty path are reported,
    # not a traceback, and the empty path does not fall back to stdout
    for target in (tmp_path / "missing" / "out.txt", tmp_path, ""):
        code, out, err = run(capsys, *command, "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and str(target) in err


def test_unwritable_out_fails_before_the_work(capsys, tmp_path, monkeypatch):
    def no_scan(*args):
        raise AssertionError("scan_theta ran before --out was checked")

    monkeypatch.setattr(cli, "scan_theta", no_scan)
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "scan", "--k", "3",
                         "--theta", "0.05:0.95:19", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: [Errno 2]")


def test_validation_error_leaves_existing_out_intact(capsys, tmp_path):
    target = tmp_path / "out"
    target.write_bytes(b"kept\n")
    code, _, err = run(capsys, "roots", "--k", "3", "--theta", "1.5",
                       "--out", str(target))
    assert code == 1 and err.startswith("error: activity must be below 1")
    assert target.read_bytes() == b"kept\n"


@pytest.mark.parametrize("k, theta, expected",
                         [("3", "1.5", 1), ("200", "0.01", 2)])
def test_failed_command_leaves_no_new_out(capsys, tmp_path, k, theta,
                                          expected):
    # the path is created before the work and removed when the work fails
    target = tmp_path / "new.txt"
    code, out, _ = run(capsys, "roots", "--k", k, "--theta", theta,
                       "--out", str(target))
    assert code == expected and out == ""
    assert not target.exists()
    # an existing file stays as it was
    target.write_bytes(b"kept\n")
    assert run(capsys, "roots", "--k", k, "--theta", theta,
               "--out", str(target))[0] == expected
    assert target.read_bytes() == b"kept\n"


@pytest.mark.parametrize("k, theta", [("200", "0.01"), ("3", "5e-324")])
def test_roots_domain_overflow_is_named(capsys, k, theta):
    # theta^-k leaves the float range at both settings; the message says so
    code, _, err = run(capsys, "roots", "--k", k, "--theta", theta)
    assert code == 2
    assert err.startswith("numerical failure: domain endpoints")
    assert "theta^-k" in err
    assert f"theta={float(theta)!r}, k={k}" in err


def test_bisection_failure_is_a_numerical_failure(capsys, monkeypatch):
    def failing(theta, k):
        # the bisection's non-finite guard, met at the first midpoint
        return bisect(lambda x: math.nan, 0.5, 0.6, -1.0, 1.0)

    monkeypatch.setattr(cli, "find_h_roots", failing)
    code, out, err = run(capsys, "roots", "--k", "3", "--theta", "0.1")
    assert code == 2 and out == ""
    assert err == ("numerical failure: non-finite value inside bracket "
                   "(bracket [0.5, 0.6], values [-1.0, 1.0])\n")


# ------------------------------------------------------------------- scan


def test_scan_csv_matches_golden(capsys):
    code, out, _ = run(capsys, "scan", "--k", "3",
                       "--theta", "0.05:0.95:19", "--format", "csv")
    assert code == 0
    assert out == GOLDEN.read_bytes().decode("ascii")


def test_scan_json_matches_golden(capsys):
    # key order and indentation too, not only the keys and values
    code, out, _ = run(capsys, "scan", "--k", "3",
                       "--theta", "0.1:0.4:3", "--format", "json")
    assert code == 0
    golden = GOLDEN.parent / "scan_k3_theta0.1_0.4_3.json"
    assert out.encode("ascii") == golden.read_bytes()


def test_scan_text_table(capsys):
    code, out, _ = run(capsys, "scan", "--k", "3", "--theta", "0.1:0.4:2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["k", "theta", "count", "roots", "/", "flags"]
    assert len(lines) == 3
    assert lines[1].split()[2] == "3" and lines[2].split()[2] == "1"


def test_scan_one_step_is_the_low_end_alone(capsys):
    code, out, _ = run(capsys, "scan", "--k", "3", "--theta", "0.1:0.2:1",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        CSV_HEADER, "3,0.10000000000000001,0.25,3,0.19649931210530613,1,"
                    "15.01147958065304,"]


def test_scan_rejects_bad_ranges(capsys):
    assert run(capsys, "scan", "--k", "3", "--theta", "0.5:0.1:5")[0] == 1
    assert run(capsys, "scan", "--k", "3", "--theta", "0.1:0.5")[0] == 1
    assert run(capsys, "scan", "--k", "3", "--theta", "a:b:c")[0] == 1
    assert run(capsys, "scan", "--k", "3", "--theta", "0.1:2.0:5")[0] == 1


def test_roots_and_scan_have_no_grid_option(capsys):
    # the scan grid is fixed at 4001 points; the option is a usage error
    assert run(capsys, "roots", "--k", "3", "--theta", "0.1",
               "--grid", "4001")[0] == 1
    assert run(capsys, "scan", "--k", "3", "--theta", "0.1:0.4:3",
               "--grid", "4001")[0] == 1


# ----------------------------------------------------------------- verify


def test_verify_passes_on_recursed_fields(capsys):
    code, out, _ = run(capsys, "verify", "--k", "2", "--n", "2",
                       "--theta", "0.5", "--trials", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("verify: k=2 q=3 n=2 theta=0.5 trials=3")
    assert sum(1 for ln in lines if ln.lstrip().startswith("trial")) == 3
    assert lines[-1] == "PASS (tolerance 1e-10)"


def test_verify_matches_readme(capsys):
    command = "verify --k 2 --n 2 --theta 0.5 --trials 3"
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert out.encode("ascii") == readme_transcript(command)


def test_verify_fails_on_perturbed_field(capsys):
    code, out, _ = run(capsys, "verify", "--k", "2", "--n", "2",
                       "--theta", "0.5", "--trials", "2",
                       "--perturb", "0.3")
    assert code == 2
    assert out.splitlines()[-1].startswith("FAIL")


@pytest.mark.parametrize("perturb", ["inf", "-inf", "nan"])
def test_verify_refuses_non_finite_perturb(capsys, monkeypatch, perturb):
    def no_tree(*args):
        raise AssertionError("the tree was built before --perturb was checked")

    monkeypatch.setattr("cayley_potts.tree.build_tree", no_tree)
    code, out, err = run(capsys, "verify", "--k", "2", "--n", "2",
                         "--theta", "0.5", f"--perturb={perturb}")
    assert code == 1 and out == ""
    assert err == f"error: --perturb must be finite, got {float(perturb)}\n"


def test_verify_enumeration_guard(capsys, monkeypatch):
    def no_recursion(*args):
        raise AssertionError("fields were propagated before the guard")

    monkeypatch.setattr("cayley_potts.potts.propagate_fields", no_recursion)
    # 3^118097 has more digits than int-to-str conversion allows
    for n, n_vertices in [(3, 53), (10, 118097)]:
        code, out, err = run(capsys, "verify", "--k", "3", "--n", str(n),
                             "--theta", "0.5")
        assert code == 1 and out == ""
        assert err == (f"error: enumeration guard exceeded: "
                       f"q^|V_n| = 3^{n_vertices} > 20000000\n")


@pytest.mark.parametrize("flag, value, minimum", [
    ("--seed", "-1", 0), ("--n", "0", 1), ("--trials", "0", 1),
    ("--q", "1", 2),
])
def test_verify_integer_flags_are_named(capsys, flag, value, minimum):
    argv = {"--k": "2", "--n": "1", "--theta": "0.5", "--trials": "1"}
    argv[flag] = value
    code, out, err = run(capsys, "verify",
                         *(arg for pair in argv.items() for arg in pair))
    assert code == 1 and out == ""
    assert err == f"error: {flag} must be an integer >= {minimum}, " \
                  f"got {value}\n"


def test_verify_deterministic_for_fixed_seed(capsys):
    args = ("verify", "--k", "2", "--n", "1", "--theta", "0.3",
            "--trials", "4", "--seed", "11")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second and first[0] == 0


# ------------------------------------------------------------------ orbit


@pytest.mark.parametrize("command", [
    "--k 3 --theta 0.1 --z 1.2,1.2,0.8,0.8",
    "--k 3 --theta 0.1 --z 2,1,1,3",
    "--k 4 --theta 0.15 --z 0.7,0.7,1.9,1.9",
    "--k 3 --theta 1.5 --z 2,1,1,3 --max-iter 200",
])
def test_orbit_matches_golden(capsys, command):
    # every step line, mark and closing line of a converging run, byte for
    # byte; the file name spells the flags: "--k 3 --z 2,1" is orbit_k3_z2_1
    flags = command.split()
    stem = "_".join(flag[2:] + value.replace(",", "_")
                    for flag, value in zip(flags[::2], flags[1::2]))
    code, out, _ = run(capsys, "orbit", *flags)
    assert code == 0
    assert out.encode("ascii") == (GOLDEN.parent
                                   / f"orbit_{stem}.txt").read_bytes()


def test_orbit_on_invariant_set(capsys):
    code, out, _ = run(capsys, "orbit", "--k", "3", "--theta", "0.1",
                       "--z", "1.2,1.2,0.8,0.8")
    assert code == 0
    lines = out.splitlines()
    assert any(re.match(r"converged after \d+ double-steps$", ln)
               for ln in lines)
    resid = [ln for ln in lines if ln.startswith("invariant-set residuals")]
    assert len(resid) == 1
    # starts on z1=z2, z3=z4 never leave it: residuals are exactly zero
    assert "|z1-z2| = 0.000e+00" in resid[0]
    assert "|z3-z4| = 0.000e+00" in resid[0]


def test_orbit_generic_start_lands_off_invariant_set(capsys):
    code, out, _ = run(capsys, "orbit", "--k", "3", "--theta", "0.1",
                       "--z", "2,1,1,3")
    assert code == 0
    match = re.search(r"\|z1-z2\| = ([0-9.e+-]+),", out)
    assert match and float(match.group(1)) > 1.0


def test_orbit_step_lines_carry_relation_marks(capsys):
    _, out, _ = run(capsys, "orbit", "--k", "3", "--theta", "0.1",
                    "--z", "2,1,1,3")
    steps = [ln for ln in out.splitlines() if ln.lstrip().startswith("step")]
    assert steps
    assert all(re.search(r"a[+~] b[+~] c[+~]$", ln) for ln in steps)


def test_orbit_warns_outside_regime(capsys):
    code, out, _ = run(capsys, "orbit", "--k", "3", "--theta", "1.5",
                       "--z", "2,1,1,3", "--max-iter", "200")
    assert "warning: outside antiferromagnetic regime" in out
    steps = [ln for ln in out.splitlines() if ln.lstrip().startswith("step")]
    assert steps and not any(re.search(r"[abc][+!~]", ln) for ln in steps)


def test_orbit_reports_non_convergence(capsys):
    code, out, _ = run(capsys, "orbit", "--k", "3", "--theta", "0.1",
                       "--z", "40,0.02,9,0.01", "--max-iter", "2")
    assert code == 2
    assert "no convergence within 2 double-steps; last z = (" in out


def test_orbit_reports_the_z_after_the_accepted_double_steps(capsys):
    # --max-iter N accepts N double-steps; the check that fails after them
    # prints one more, so the reported z is that double-step's input
    start = ("orbit", "--k", "3", "--theta", "0.1", "--z", "1.2,1.3,0.8,0.7")
    code, out, _ = run(capsys, *start, "--max-iter", "1")
    assert code == 2
    steps = re.findall(r"^  step +\d+: z = \((.*)\)  ", out, re.M)
    assert len(steps) == 4
    last = re.search(r"; last z = \((.*)\)$", out, re.M).group(1)
    assert " ".join(f"{float(v):.12g}" for v in last.split(", ")) == steps[1]

    code, out, _ = run(capsys, *start, "--max-iter", "0")
    assert code == 2
    last = re.search(r"; last z = \((.*)\)$", out, re.M).group(1)
    assert tuple(float(v) for v in last.split(", ")) == (1.2, 1.3, 0.8, 0.7)


def test_orbit_float_range_exit_is_numerical_failure(capsys):
    code, _, err = run(capsys, "orbit", "--k", "400", "--theta", "0.1",
                       "--z", "2,1,1,3")
    assert code == 2
    assert err.startswith("numerical failure:")


def test_orbit_rejects_bad_start(capsys):
    assert run(capsys, "orbit", "--k", "3", "--theta", "0.1",
               "--z", "1,2,3")[0] == 1
    assert run(capsys, "orbit", "--k", "3", "--theta", "0.1",
               "--z", "1,2,-3,4")[0] == 1
    assert run(capsys, "orbit", "--k", "3", "--theta", "0.1",
               "--z", "1,2,spam,4")[0] == 1


# ------------------------------------------------------------- tree-check


def test_tree_check_levels(capsys):
    code, out, _ = run(capsys, "tree-check", "--k", "3", "--n", "2")
    assert code == 0
    assert out.splitlines() == [
        "tree: k=3 depth=2",
        "  |W_0| = 1",
        "  |W_1| = 4",
        "  |W_2| = 12",
        "  vertices = 17",
        "  edges    = 16",
    ]


def test_tree_check_guard(capsys):
    code, _, err = run(capsys, "tree-check", "--k", "2", "--n", "60")
    assert code == 1 and "error:" in err


# ------------------------------------------------------------------ misc


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == __version__


def test_no_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert cli.main(["roots", "--k", "3", "--theta", "0.1",
                     "--frobnicate"]) == 1
    capsys.readouterr()
