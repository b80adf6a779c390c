"""Command-line interface: argument parsing and dispatch.

Subcommands:

* ``roots``      enumerate translation-invariant and period-2 roots for one activity
* ``scan``       sweep the activity over a range, emitting text, csv, or json
* ``verify``     exhaustive finite-volume compatibility check of the field recursion
* ``orbit``      iterate the 4-component parity map and report the limit
* ``tree-check`` print the level structure of a finite tree

The activity may be given directly (``--theta``) or as a coupling and
inverse temperature (``--J`` with ``--beta``); exactly one form per call.
Exit codes: 0 success, 1 validation error, 2 numerical failure.  Each
subcommand returns its text and exit code; ``main`` checks ``--out`` before
the work and writes the text once, to ``--out`` or to stdout.  A command
that fails leaves no new ``--out`` file, and an existing one intact.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from ._args import activity, check_int
from .period2 import period2_map, sign_relation_check
from .scan import FORMATS, render_report, render_rows, scan_theta, write_text
from .solver import find_h_roots

# numpy and potts are imported inside verify, and tree inside verify and
# tree-check; every other subcommand runs on math alone.  verify draws its
# leaf fields from _pcg64, the package's copy of numpy's default_rng
# stream, so it never loads numpy.random

VERIFY_TOL = 1e-10


def _resolve_theta(args) -> float:
    has_theta = args.theta is not None
    has_pair = args.J is not None or args.beta is not None
    if has_theta and has_pair:
        raise ValueError("give either --theta or --J/--beta, not both")
    if has_theta:
        if not (math.isfinite(args.theta) and args.theta > 0):
            raise ValueError(f"--theta must be positive and finite, "
                             f"got {args.theta}")
        return args.theta
    if args.J is None or args.beta is None:
        raise ValueError("--J and --beta must be given together "
                         "(or use --theta)")
    try:
        return activity(args.J, args.beta)
    except ValueError as exc:
        raise ValueError(f"--J/--beta: {exc}") from None


def cmd_roots(args) -> tuple[str, int]:
    theta = _resolve_theta(args)
    return render_report(find_h_roots(theta, args.k), args.format), 0


def _parse_theta_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"theta range must be lo:hi:steps, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad theta range {text!r}: {exc}") from None
    return lo, hi, steps


def cmd_scan(args) -> tuple[str, int]:
    lo, hi, steps = _parse_theta_range(args.theta)
    return render_rows(scan_theta(args.k, lo, hi, steps), args.format), 0


def cmd_verify(args) -> tuple[str, int]:
    import numpy as np

    from ._pcg64 import PCG64
    from .potts import (ModelParams, check_consistency, check_enumeration,
                        propagate_fields)
    from .tree import build_tree, sphere

    theta = _resolve_theta(args)
    check_int("--q", args.q, 2)
    check_int("--n", args.n, 1)
    check_int("--trials", args.trials, 1)
    check_int("--seed", args.seed, 0)
    if args.perturb is not None and not math.isfinite(args.perturb):
        raise ValueError(f"--perturb must be finite, got {args.perturb}")
    params = ModelParams.from_theta(args.k, args.q, theta)
    tree = build_tree(args.k, args.n)
    check_enumeration(tree, args.q)

    shape = (len(sphere(tree, args.n)), args.q - 1)
    rng = PCG64(args.seed)
    lines = [f"verify: k={args.k} q={args.q} n={args.n} "
             f"theta={theta:.12g} trials={args.trials} seed={args.seed}"
             + (f" perturb={args.perturb}" if args.perturb is not None else "")]
    worst = 0.0
    for trial in range(args.trials):
        leaf_fields = np.reshape(rng.uniform(-2.0, 2.0, shape[0] * shape[1]),
                                 shape)
        fields = propagate_fields(tree, leaf_fields, params)
        if args.perturb is not None:
            # negative control: knock one inner-boundary field off recursion
            target = sphere(tree, args.n - 1)[0]
            fields[target, 0] += args.perturb
        violation = check_consistency(tree, fields, params)
        worst = max(worst, violation)
        lines.append(f"  trial {trial:2d}: violation = {violation:.3e}")
    passed = worst <= VERIFY_TOL
    lines.append(f"max violation = {worst:.3e} over {args.trials} trials")
    lines.append(f"{'PASS' if passed else 'FAIL'} (tolerance {VERIFY_TOL:g})")
    return "\n".join(lines) + "\n", 0 if passed else 2


def _relation_marks(z_in, z_out, theta: float) -> str:
    a, b, c = sign_relation_check(z_in, z_out, theta)
    eps = sys.float_info.epsilon

    def resolvable(delta: float, scale: float) -> bool:
        return abs(delta) > 64 * eps * max(scale, 1.0)

    marks = []
    # (a) compares computed differences; near the invariant set both are
    # rounding noise, so report unresolved instead of a spurious verdict
    if not (resolvable(z_in[2] - z_in[3], max(z_in[2], z_in[3]))
            and resolvable(z_out[0] - z_out[1], max(z_out[0], z_out[1]))):
        marks.append("a~")
    else:
        marks.append("a+" if a else "a!")
    for name, ok, zi, zo in (("b", b, z_in[2], z_out[0]),
                             ("c", c, z_in[3], z_out[1])):
        if not ok and not resolvable(zo - 1.0, 1.0):
            marks.append(name + "~")
        else:
            marks.append(name + ("+" if ok else "!"))
    return " ".join(marks)


def cmd_orbit(args) -> tuple[str, int]:
    theta = _resolve_theta(args)
    try:
        z = tuple(float(s) for s in args.z.split(","))
    except ValueError:
        raise ValueError(f"--z must be four comma-separated numbers, "
                         f"got {args.z!r}") from None
    if len(z) != 4 or not all(0.0 < v < math.inf for v in z):
        raise ValueError("--z must be four positive finite numbers")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be positive and finite, got {args.tol}")
    check_int("--max-iter", args.max_iter, 0)

    check_relations = theta < 1.0
    lines = [f"orbit: k={args.k} theta={theta:.12g} z0=({args.z}) "
             f"tol={args.tol:g} max-iter={args.max_iter}"]
    if not check_relations:
        lines.append("warning: outside antiferromagnetic regime "
                     "(theta >= 1); sign-relation checks skipped")

    # one pass is a double-step z -> mid -> z_next, printed as two steps;
    # z is accepted at most max_iter times, so z is always the input of
    # the last printed double-step
    for iteration in range(args.max_iter + 1):
        mid = period2_map(z, theta, args.k)
        z_next = period2_map(mid, theta, args.k)
        for step, (z_in, z_out) in enumerate(((z, mid), (mid, z_next)),
                                             start=2 * iteration + 1):
            marks = (_relation_marks(z_in, z_out, theta)
                     if check_relations else "")
            zs = " ".join(f"{v:.12g}" for v in z_out)
            lines.append(f"  step {step:3d}: z = ({zs})  {marks}".rstrip())
        # all(), not max(): a NaN update must not count as converged
        converged = all(abs(a - b) <= args.tol for a, b in zip(z_next, z))
        if converged or iteration == args.max_iter:
            break
        z = z_next

    if converged:
        lines.append(f"converged after {iteration} double-steps")
        lines.append(f"limit z = ({', '.join(f'{v:.17g}' for v in z)})")
        lines.append(f"invariant-set residuals: |z1-z2| = {abs(z[0]-z[1]):.3e}, "
                     f"|z3-z4| = {abs(z[2]-z[3]):.3e}")
    else:
        lines.append(f"no convergence within {args.max_iter} double-steps; "
                     f"last z = ({', '.join(f'{v:.17g}' for v in z)})")
    return "\n".join(lines) + "\n", 0 if converged else 2


def cmd_tree_check(args) -> tuple[str, int]:
    from .tree import build_tree, level_sizes

    tree = build_tree(args.k, args.n)
    sizes = level_sizes(tree)
    lines = [f"tree: k={args.k} depth={args.n}"]
    for m, size in enumerate(sizes):
        lines.append(f"  |W_{m}| = {size}")
    lines.append(f"  vertices = {tree.n_vertices}")
    lines.append(f"  edges    = {tree.n_vertices - 1}")
    return "\n".join(lines) + "\n", 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley-potts",
        description="Potts boundary fields, periodic structure, and exact "
                    "consistency oracles on Cayley trees")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # options shared between subcommands, each declared once
    k_opt, act, fmt = (argparse.ArgumentParser(add_help=False)
                       for _ in range(3))
    k_opt.add_argument("--k", type=int, required=True,
                       help="tree order (descendants per vertex)")
    act.add_argument("--theta", type=float, default=None,
                     help="activity exp(J*beta); give this or --J/--beta")
    act.add_argument("--J", type=float, default=None,
                     help="coupling (negative = antiferromagnetic)")
    act.add_argument("--beta", type=float, default=None,
                     help="inverse temperature (positive)")
    fmt.add_argument("--format", choices=FORMATS, default="text")

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=[k_opt, *parents])
        p.set_defaults(func=func)
        return p

    command("roots", cmd_roots, "roots of h for one activity", act, fmt)

    p = command("scan", cmd_scan, "sweep the activity over a range", fmt)
    p.add_argument("--theta", required=True, metavar="LO:HI:STEPS",
                   help="STEPS evenly spaced activities from LO to HI; "
                        "STEPS=1 gives LO alone")

    p = command("verify", cmd_verify,
                "exhaustive finite-volume compatibility check", act)
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--n", type=int, required=True, help="tree depth (>= 1)")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--perturb", type=float, default=None,
                   help="negative control: offset one inner-boundary field")

    p = command("orbit", cmd_orbit, "iterate the 4-component parity map", act)
    p.add_argument("--z", default="1,1,1,1", metavar="Z1,Z2,Z3,Z4")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=500)

    p = command("tree-check", cmd_tree_check, "print the level structure")
    p.add_argument("--n", type=int, required=True)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; those are validation errors
        return 0 if exc.code in (0, None) else 1
    created = False
    try:
        if args.out is not None:  # before the work, so a bad path fails fast
            try:
                open(args.out, "xb").close()
                created = True
            except FileExistsError:  # "ab" truncates nothing
                open(args.out, "ab").close()
        text, code = args.func(args)
        write_text(sys.stdout if args.out is None else args.out, text)
        return code
    # DomainError and EnumerationLimitError are ValueErrors, a failed
    # bisection is an ArithmeticError, and an OSError is an unusable --out
    except (ValueError, OSError) as exc:
        code, message = 1, f"error: {exc}"
    except ArithmeticError as exc:
        code, message = 2, f"numerical failure: {exc}"
    if created:  # a failed command leaves no new file behind
        try:
            os.remove(args.out)
        except FileNotFoundError:
            pass
    print(message, file=sys.stderr)
    return code


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
