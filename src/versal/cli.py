"""Command-line interface: deterministic, file-based access to everything.

Subcommands: ``jcf``, ``codim``, ``pattern``, ``experiment``, ``recover``,
``reduce-block``.  Inputs and outputs are the JSON documents of
:mod:`versal.files`; reports go to stdout, diagnostics to stderr, and the
exit code is 0 exactly when every internal check passed.

Run as a program (:func:`main` called without arguments), a command keeps
the cyclic garbage collector off and freezes what it loaded before the
interpreter shuts down, so no collection walks the objects of numpy and the
standard library.  In-process callers pass their arguments and keep their
collector as it was.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys
from pathlib import Path

from . import closure, codimension, deformation, files, jordan, linearization
from ._numpy import np
from .errors import VersalError
from .linalg import check_order, eigenvalues, frobenius_norm

EIGEN_MATCH_TOL = 1e-8
CHARPOLY_CHECK_TOL = 1e-10
SIMILARITY_CHECK_TOL = 1e-10


def _format_complex(z):
    # adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is
    z = complex(z.real + 0.0, z.imag + 0.0)
    if z.imag == 0.0:
        return f"{z.real:.12g}"
    return f"({z.real:.12g}{z.imag:+.12g}j)"


def _format_segre(structure):
    parts = [f"{_format_complex(eig)}: {list(sizes)}"
             for eig, sizes in structure.blocks]
    return "{" + "; ".join(parts) + "}"


def _parse_complex(text):
    text = text.strip()
    if "," in text:
        re_part, im_part = text.split(",", 1)
        return complex(float(re_part), float(im_part))
    try:
        return complex(text)
    except ValueError:
        raise ValueError(f"cannot parse complex value {text!r}; "
                         f"use 're,im' or Python syntax like 1e-2 or 1+2j")


def _leverrier(a):
    # characteristic polynomial coefficients [c_0, ..., c_{n-1}], monic x^n
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[n - k + 1] * np.eye(n)
        coeffs[n - k] = -np.trace(a @ m) / k
    return coeffs[:n]


def _eigen_match(a, b):
    u = list(eigenvalues(a))
    v = list(eigenvalues(b))
    worst = 0.0
    for x in u:
        j = min(range(len(v)), key=lambda i: abs(v[i] - x))
        worst = max(worst, abs(v.pop(j) - x))
    return worst


def cmd_jcf(args):
    structure = files.load_segre(args.structure)
    check_order(structure.total_size)
    # build_jcf's rows from its diagonal and superdiagonal, without numpy;
    # each row has one spare column, for the last row's entry past the corner
    diagonal = jordan._base_diagonal(structure)
    above = jordan._superdiagonal(structure.partitions()) + [0.0]
    for i, entries in enumerate(zip(diagonal, above)):
        row = [0.0] * (len(diagonal) + 1)
        row[i:i + 2] = entries
        print(" ".join(_format_complex(z) for z in row[:-1]))
    if args.out:
        files.save_document(args.out,
                            files.matrix_document(jordan.build_jcf(structure)))
        print(f"wrote {args.out}")
    return 0


def cmd_codim(args):
    structure = files.load_segre(args.structure)
    orbit = codimension.orbit_codim(structure)
    n = structure.total_size
    value = codimension.bundle_codim(structure) if args.mode == "bundle" else orbit
    print(f"codim={value}")
    print(f"dimension={n * n - value}")
    if args.oracle:
        nullity = codimension.orbit_codim_oracle(structure)
        agrees = nullity == orbit
        print(f"oracle={nullity}")
        print(f"oracle_agrees={'yes' if agrees else 'no'}")
        if not agrees:
            print("error: commutator nullity disagrees with the pattern count",
                  file=sys.stderr)
            return 1
    return 0


def cmd_pattern(args):
    structure = files.load_segre(args.structure)
    if args.shape == "alternate":
        pattern = deformation.alternate_pattern(structure)
    else:
        pattern = deformation.arnold_pattern(structure)
    print(f"shape={args.shape}")
    print(f"parameters={pattern.parameter_count}")
    print(f"stars={len(pattern.stars)}")
    for row, col, param in pattern.stars:
        print(f"star {row} {col} {param}")
    if args.out:
        files.save_document(args.out, files.pattern_document(pattern))
        print(f"wrote {args.out}")
    return 0


def cmd_experiment(args):
    structure = files.load_segre(args.structure)
    values = {}
    for item in args.set or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise ValueError(f"--set expects INDEX=VALUE, got {item!r}")
        index = int(key)
        if index in values:
            raise ValueError(f"--set gives parameter {index} more than once")
        values[index] = _parse_complex(val)
    jordan._check_tolerances(args.tol_cluster, args.tol_rank,
                             ("--tol-cluster", "--tol-rank"))
    before = codimension.orbit_codim(structure)
    recovered = closure.perturbation_experiment(
        structure, values, args.tol_cluster, args.tol_rank)
    print(f"input={_format_segre(structure)}")
    print(f"recovered={_format_segre(recovered)}")
    print(f"orbit_codim: {before} -> {codimension.orbit_codim(recovered)}")
    return 0


def cmd_recover(args):
    poly = files.load_polynomial(args.polynomial)
    big = poly.degree * poly.size
    if args.perturbation:
        e1 = files.load_matrix(args.perturbation)
    elif args.random_seed is not None:
        rng = np.random.default_rng(args.random_seed)
        e1 = rng.standard_normal((big, big)) + 1j * rng.standard_normal((big, big))
        e1 *= args.norm / np.linalg.norm(e1)
    else:
        raise ValueError("provide a perturbation file or --random-seed")

    try:
        result = linearization.recover(poly, e1, tol=args.tol,
                                       max_iter=args.max_iter)
    except VersalError as exc:
        for i, r in enumerate(getattr(exc, "residual_trace", ()), start=1):
            print(f"residual[{i}]={r:.6e}", file=sys.stderr)
        raise

    for i, r in enumerate(result.residual_trace, start=1):
        print(f"residual[{i}]={r:.6e}")
    print(f"iterations={result.iterations}")

    perturbed = linearization.companion(poly) + e1
    sim_ok = result.similarity_residual <= \
        SIMILARITY_CHECK_TOL * max(1.0, frobenius_norm(perturbed))
    match = _eigen_match(linearization.companion(result.recovered), perturbed)
    match_ok = match <= EIGEN_MATCH_TOL
    print(f"similarity_residual={result.similarity_residual:.6e} "
          f"({'PASS' if sim_ok else 'FAIL'})")
    print(f"eigenvalue_match={match:.6e} ({'PASS' if match_ok else 'FAIL'})")

    stem = Path(args.polynomial)
    out_poly = args.out_poly or str(stem.with_name(stem.stem + ".recovered.json"))
    out_transform = args.out_transform or str(
        stem.with_name(stem.stem + ".transform.json"))
    files.save_document(out_poly, files.polynomial_document(result.recovered))
    files.save_document(out_transform, files.matrix_document(result.transform))
    print(f"wrote {out_poly}")
    print(f"wrote {out_transform}")
    if not (sim_ok and match_ok):
        print("error: recovery checks failed", file=sys.stderr)
        return 1
    return 0


def cmd_reduce_block(args):
    a = files.load_matrix(args.matrix)
    lam = _parse_complex(args.eigenvalue)
    result = deformation.reduce_single_block(a, lam)
    k = a.shape[0]

    row = result.deformed[-1].copy()
    row[-1] -= lam
    print("deformation=" + " ".join(_format_complex(z) for z in row))

    shifted = a - lam * np.eye(k)
    errors = np.abs(row + _leverrier(shifted))
    # coefficient j is homogeneous of degree k - j in the entries of
    # a - lam*I, so its error is read relative to ||a - lam*I||_2**(k - j);
    # dividing k - j times keeps the power from overflowing.  A zero a - lam*I
    # has zero coefficients, whose errors are read as they are
    sigma = float(np.linalg.norm(shifted, 2)) or 1.0
    for j in range(k):
        errors[:k - j] /= sigma
    error = float(errors.max())
    ok = error <= CHARPOLY_CHECK_TOL
    print(f"charpoly_check={error:.6e} ({'PASS' if ok else 'FAIL'})")

    stem = Path(args.matrix)
    out_deformed = args.out_deformed or str(
        stem.with_name(stem.stem + ".deformed.json"))
    out_transform = args.out_transform or str(
        stem.with_name(stem.stem + ".transform.json"))
    files.save_document(out_deformed, files.matrix_document(result.deformed))
    files.save_document(out_transform, files.matrix_document(result.transform))
    print(f"wrote {out_deformed}")
    print(f"wrote {out_transform}")
    if not ok:
        print("error: characteristic-polynomial identity check failed",
              file=sys.stderr)
        return 1
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="versal",
        description="Miniversal deformations of Jordan forms: codimensions, "
                    "perturbation experiments, structured recovery.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=func)
        return p

    p = add("jcf", cmd_jcf, "build the Jordan matrix of a structure")
    p.add_argument("structure", help="path to a segre document")
    p.add_argument("--out", help="also write the matrix document here")

    p = add("codim", cmd_codim, "orbit/bundle codimension of a structure")
    p.add_argument("structure", help="path to a segre document")
    p.add_argument("--mode", choices=["orbit", "bundle"], default="orbit")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the commutator nullity (size <= 10)")

    p = add("pattern", cmd_pattern, "star pattern of the miniversal deformation")
    p.add_argument("structure", help="path to a segre document")
    p.add_argument("--shape", choices=["arnold", "alternate"], default="arnold")
    p.add_argument("--out", help="also write the pattern document here")

    p = add("experiment", cmd_experiment,
            "Jordan structure of a pattern perturbation")
    p.add_argument("structure", help="path to a segre document")
    p.add_argument("--set", action="append", metavar="INDEX=VALUE",
                   help="set a pattern parameter (repeatable); unset ones stay 0")
    p.add_argument("--tol-cluster", type=float, default=jordan.DEFAULT_CLUSTER_TOL,
                   help="relative eigenvalue clustering tolerance")
    p.add_argument("--tol-rank", type=float, default=jordan.DEFAULT_RANK_TOL,
                   help="relative rank tolerance for Weyr counts")

    p = add("recover", cmd_recover,
            "recover coefficient perturbations from a linearization perturbation")
    p.add_argument("polynomial", help="path to a polynomial document")
    p.add_argument("perturbation", nargs="?",
                   help="path to a matrix document (omit to use --random-seed)")
    p.add_argument("--random-seed", type=int, default=None,
                   help="generate a reproducible dense perturbation instead")
    p.add_argument("--norm", type=float, default=1e-4,
                   help="Frobenius norm of the generated perturbation")
    p.add_argument("--tol", type=float, default=linearization.DEFAULT_TOL,
                   help="stop once the unstructured norm falls below this")
    p.add_argument("--max-iter", type=int, default=linearization.DEFAULT_MAX_ITER)
    p.add_argument("--out-poly", help="output path for the recovered polynomial")
    p.add_argument("--out-transform", help="output path for the transformation")

    p = add("reduce-block", cmd_reduce_block,
            "reduce a perturbed single Jordan block to its deformation")
    p.add_argument("matrix", help="path to a matrix document")
    p.add_argument("--lambda", dest="eigenvalue", default="0",
                   help="base eigenvalue, as 're,im' or a complex literal")
    p.add_argument("--out-deformed", help="output path for the deformed matrix")
    p.add_argument("--out-transform", help="output path for the transformation")

    return parser


def _attach_lambda_values(argv):
    # argparse takes a value such as "-1.0,0.0" or "-2e-3" for an option
    # string, so "--lambda VALUE" (or an abbreviation such as "--lam VALUE")
    # is passed on as "--lambda=VALUE"
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        if (len(out[i]) > 2 and "--lambda".startswith(out[i])
                and re.match(r"-\.?\d", out[i + 1])):
            out[i:i + 2] = [f"{out[i]}={out[i + 1]}"]
    return out


def main(argv=None):
    """Run one ``versal`` command; return its exit code.

    Called with ``argv`` (a list of arguments without the program name), it
    runs that command and leaves the garbage collector as it found it.

    Called without ``argv``, as the ``versal`` script and ``python -m
    versal.cli`` do, it is the process's command and reads ``sys.argv``.
    Then it owns the cyclic garbage collector: it disables it before
    parsing and freezes every tracked object on every way out, argparse's
    ``SystemExit`` included.  No collection runs during numpy's import,
    and the interpreter's shutdown collections do not walk the objects that
    numpy and the standard library loaded.  A command makes little cyclic
    garbage and ends soon after, so nothing piles up.
    """
    if argv is not None:
        return _run(argv)
    gc.disable()
    try:
        return _run(sys.argv[1:])
    finally:
        gc.freeze()


def _run(argv):
    parser = _build_parser()
    args = parser.parse_args(_attach_lambda_values(argv))
    try:
        return args.func(args)
    except VersalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
