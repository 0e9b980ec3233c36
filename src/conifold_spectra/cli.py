"""Command-line surface: report, verify and plot-data subcommands.

The exact flat-cone verifier is imported only by ``verify``, so ``report``
and ``plot-data`` processes do not pay for it.

Exit codes: 0 on success, 1 on verification failure or unexpected errors,
2 when the supplied spectrum is certified too shallow for the requested
computation, 3 on malformed input documents and bad arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .core import DEFAULT_EPSILON, Scalar, xi_pair
from .errors import (
    ConifoldSpectraError,
    InsufficientSpectrum,
    InvariantViolation,
    SchemaError,
    UnsupportedDimension,
)
from .links import (
    BUILTIN_LINKS,
    MAX_DIM_CONE_BITS,
    MAX_PLOT_ROWS,
    _parse_number,
    builtin_link,
    check_cone_dimension,
    load_spectrum,
)
from .report import ReportOptions, build_report, csv_number, render_csv, render_json, render_text

MAX_VERIFY_WORK = 10**7     # verify_work of one verify run, a few seconds


def verify_work(n: int, max_degree: int) -> int:
    """The verifier's work estimate, fitted to its measured growth.

    n^3 d^3 follows the flat and identity suites over the rank-2 fields (d is
    at least 3, the identities' own degree); d^5 follows the rotational forms
    at n = 4, where x4 is the reduced coordinate and expands.
    """
    d = max(max_degree, 3)
    return n**3 * d**3 + d**5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conifold-spectra",
        description=(
            "indicial roots, convergence orders and stability verdicts for "
            "Ricci-flat cones, with an exact flat-cone verifier"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="full spectral report for a link")
    src = rep.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="path to a spectrum document (JSON)")
    src.add_argument("--builtin", choices=BUILTIN_LINKS, help="built-in link")
    rep.add_argument("--n", type=int, default=None, help="cone dimension for builtins")
    rep.add_argument(
        "--quotient",
        choices=("trivial", "nontrivial"),
        default=None,
        help=(
            "group triviality for the sphere builtins (default: trivial for "
            "'sphere', nontrivial for 'sphere-quotient')"
        ),
    )
    rep.add_argument("--format", choices=("table", "json", "csv"), default="table")
    rep.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    rep.add_argument("--max-roots", type=int, default=None)

    ver = sub.add_parser("verify", help="exact flat-cone verification suites")
    ver.add_argument(
        "suite",
        choices=("ode", "flat", "identities", "cheeger-tian", "all"),
    )
    ver.add_argument("--n", type=int, default=4)
    ver.add_argument("--max-degree", type=int, default=3)

    plot = sub.add_parser("plot-data", help="CSV of the branch curves over nu")
    plot.add_argument("--n", type=int, required=True)
    plot.add_argument("--nu-min", default=None, help="rational, default resonance-5")
    plot.add_argument("--nu-max", default="10")
    plot.add_argument("--step", default="1/4")
    return parser


def _cmd_report(args) -> int:
    if args.max_roots is not None and args.max_roots < 0:
        raise SchemaError(f"--max-roots must be non-negative, got {args.max_roots}")
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            try:
                document = json.load(fh)
            except (UnicodeDecodeError, RecursionError) as exc:
                raise SchemaError(f"cannot read the document: {exc}") from None
        link = load_spectrum(document, eps=args.epsilon)
    else:
        if args.n is not None:
            check_cone_dimension(args.n, "--n")
        nontrivial = None if args.quotient is None else args.quotient == "nontrivial"
        link = builtin_link(args.builtin, args.n, gamma_nontrivial=nontrivial)
    report = build_report(link, ReportOptions(epsilon=args.epsilon, max_roots=args.max_roots))
    render = {"table": render_text, "json": render_json, "csv": render_csv}[args.format]
    sys.stdout.write(render(report))
    return 0


def _verify_flat(n: int, max_degree: int) -> Tuple[List[str], bool]:
    from .flatcone import flat_schedule, verify_case

    lines = []
    failures = 0
    for case_id, d in flat_schedule(max_degree):
        report = verify_case(case_id, n, d)
        status = "pass" if report.passed else "FAIL"
        if report.degenerate:
            status = "degenerate(pass)"
        if not report.passed:
            failures += 1
        label = f"case ({case_id}) degree {report.degree}"
        lines.append(f"  {label:<28} {status}")
    lines.insert(0, f"flat-cone gauge cases on R^{n}:")
    lines.append(f"  failures: {failures}")
    return lines, failures > 0


def _verify_ode() -> Tuple[List[str], bool]:
    from .flatcone.ode import COEFFICIENT_NOTE, default_grid, ode_residual

    lines = ["radial ODE checks:"]
    failures = 0
    for (n, nu, branch) in default_grid():
        check = ode_residual(n, nu, branch)
        ok = check.passed
        if not ok:
            failures += 1
        lines.append(
            f"  n={n:<3} nu={str(nu):<10} {branch:<6} exponent={str(check.exponent):<8} "
            f"exact={'0' if check.exact_zero else 'NONZERO'} {'pass' if ok else 'FAIL'}"
        )
    lines.append(f"  coefficient note: {COEFFICIENT_NOTE}")
    lines.append(f"  failures: {failures}")
    return lines, failures > 0


def _verify_identities(n: int) -> Tuple[List[str], bool]:
    from .flatcone import (
        identity_b_dstar,
        identity_case_harmonics,
        identity_delta_star_radial,
        identity_trace_commutes,
    )

    reports = [
        identity_b_dstar(n),
        identity_delta_star_radial(n),
        identity_trace_commutes(n),
        identity_case_harmonics(n),
    ]
    lines = ["structural identities:"]
    failures = 0
    for rep in reports:
        if not rep.passed:
            failures += 1
        lines.append(
            f"  {rep.name:<45} cases={rep.cases:<4} "
            f"{'pass' if rep.passed else 'FAIL'}"
        )
        if rep.detail:
            lines.append(f"    {rep.detail}")
    lines.append(f"  failures: {failures}")
    return lines, failures > 0


def _verify_cheeger_tian() -> Tuple[List[str], bool]:
    from .flatcone import cheeger_tian_example

    record = cheeger_tian_example(4)
    lines = [
        "dimension-gap example on R^4:",
        f"  harmonic function:          {'pass' if record.harmonic_function else 'FAIL'}",
        f"  tensor harmonic:            {'pass' if record.tensor_componentwise_harmonic else 'FAIL'}",
        f"  homogeneity degree:         {record.homogeneity_degree} "
        f"{'pass' if record.homogeneity_degree == Fraction(-3) else 'FAIL'}",
        f"  trace-free part not TT:     {'pass' if record.tracefree_part_not_divergence_free else 'FAIL'}",
        f"  printed -4 variant harmonic: {record.printed_variant_harmonic} (recorded)",
        f"  note: {record.note}",
    ]
    return lines, not record.passed


def _cmd_verify(args) -> int:
    # box_L, of which every flat case is an eigentensor, needs n >= 4
    if args.n < 4:
        raise SchemaError(f"--n must be at least 4, got {args.n}")
    if args.max_degree < 0:
        raise SchemaError(f"--max-degree must be at least 0, got {args.max_degree}")
    if verify_work(args.n, args.max_degree) > MAX_VERIFY_WORK:
        raise SchemaError(
            f"verify --n {args.n} --max-degree {args.max_degree} is beyond the work "
            f"bound: n^3*d^3 + d^5 with d = max(degree, 3) must be at most {MAX_VERIFY_WORK}"
        )
    run = {
        "ode": _verify_ode,
        "flat": lambda: _verify_flat(args.n, args.max_degree),
        "identities": lambda: _verify_identities(args.n),
        "cheeger-tian": _verify_cheeger_tian,
    }
    failed = False
    for suite in run if args.suite == "all" else [args.suite]:
        lines, suite_failed = run[suite]()
        failed = failed or suite_failed
        sys.stdout.write("\n".join(lines) + "\n")
    return 1 if failed else 0


def _cmd_plot_data(args) -> int:
    n = args.n
    if n < 3 or n.bit_length() > MAX_DIM_CONE_BITS:
        raise SchemaError(f"--n must be at least 3 and below 2**{MAX_DIM_CONE_BITS}, got {n}")
    if args.nu_min is None:
        nu_min = Fraction(-((n - 2) ** 2), 4) - 5
    else:
        nu_min = _parse_number(args.nu_min, "--nu-min").value
    nu_max = _parse_number(args.nu_max, "--nu-max").value
    step = _parse_number(args.step, "--step").value
    if step <= 0:
        raise SchemaError("step must be positive")
    # the sweep prints floor((nu_max - nu_min) / step) + 1 rows; the parsed
    # arguments are exact, and two ints would divide to a float
    if Fraction(nu_max - nu_min) / step >= MAX_PLOT_ROWS:
        raise SchemaError(
            f"plot-data prints at most {MAX_PLOT_ROWS} rows; the sweep from "
            f"{nu_min} to {nu_max} in steps of {step} has more"
        )
    sys.stdout.write("nu,re_xi_plus,re_xi_minus,im_xi_plus\n")
    nu = nu_min
    while nu <= nu_max:
        plus, minus = xi_pair(n, Scalar(nu))
        row = (
            csv_number(Scalar(nu)),
            csv_number(plus.real),
            csv_number(minus.real),
            csv_number(plus.imag),
        )
        sys.stdout.write(",".join(row) + "\n")
        nu += step
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_plot_data(args)
    except InsufficientSpectrum as exc:
        print(f"error: insufficient spectrum: {exc}", file=sys.stderr)
        return 2
    except (SchemaError, InvariantViolation, UnsupportedDimension, json.JSONDecodeError) as exc:
        print(f"error: bad input: {exc}", file=sys.stderr)
        return 3
    except (ConifoldSpectraError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
