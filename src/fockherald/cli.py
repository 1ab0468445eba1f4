"""Command-line front end: parameter solving, protocol runs, sweeps, oracle checks.

Exit codes: 0 success, 2 usage / invalid input, 3 numerical-contract breach
(solver residual, expected-unit fidelity, oracle deviation).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

from . import protocols, squeezers
from .states import FockError

USAGE_ERROR = 2
NUMERIC_ERROR = 3


def _fail(message: str, code: int = USAGE_ERROR) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


def _cutoff(args) -> int | None:
    """``--cutoff``, or None (the herald cutoff); must be >= 1."""
    if args.cutoff is not None and args.cutoff < 1:
        raise FockError(f"--cutoff must be positive, got {args.cutoff}")
    return args.cutoff


def _coefficients(args) -> protocols.InputCoefficients:
    # ``or`` reads an imaginary -0.0 as +0.0, a real one stays as it is
    return protocols.InputCoefficients(
        *(complex(getattr(args, c), getattr(args, f"{c}_im") or 0.0) for c in ("c0", "c1", "c2")))


# -- subcommands --------------------------------------------------------------


def cmd_params(args) -> int:
    if args.protocol == "nls":
        gp = protocols.solve_nls_params()
        g1, g2 = gp.gamma1, gp.gamma2
        residual = max(map(abs, protocols.coupling_residuals(g1, g2)))
    else:
        if args.gamma2 is None:
            raise FockError("params teleport requires --gamma2")
        g2 = args.gamma2
        g1 = protocols.solve_teleport_constraint(g2)
        residual = abs(protocols.coupling_residuals(g1, g2)[0])
    print(json.dumps({"gamma1": g1, "gamma2": g2, "residual": residual}))
    return 0 if residual < 1e-12 else NUMERIC_ERROR


def cmd_run(args) -> int:
    coeffs = _coefficients(args)
    constrained = True
    if args.protocol == "nls":
        cutoff = _cutoff(args)
        if args.gamma1 is not None or args.gamma2 is not None:
            if args.gamma1 is None or args.gamma2 is None:
                raise FockError("nls needs both --gamma1 and --gamma2, or neither")
            params = protocols.GateParams(args.gamma1, args.gamma2)
            constrained = False
        else:
            params = protocols.solve_nls_params()
        result = protocols.run_nls(coeffs, params, cutoff)
    else:
        if args.gamma2 is None:
            raise FockError(f"{args.protocol} requires --gamma2")
        if args.gamma1 is not None:
            raise FockError(f"{args.protocol} derives gamma1 from the constraint")
        result = protocols.run_teleport(args.protocol, coeffs, args.gamma2, _cutoff(args))

    if args.format == "json":
        print(result.to_json())
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(
            ["protocol", "gamma1", "gamma2", "success_probability",
             "paper_claimed_probability", "fidelity", "leaked_norm"]
        )
        writer.writerow(
            [result.protocol, repr(result.gamma1), repr(result.gamma2),
             repr(result.success_probability),
             "" if result.paper_claimed_probability is None
             else repr(result.paper_claimed_probability),
             repr(result.fidelity), repr(result.leaked_norm)]
        )
    else:
        print(f"protocol            : {result.protocol}")
        print(f"gamma1              : {result.gamma1:.12g}")
        print(f"gamma2              : {result.gamma2:.12g}")
        print(f"success probability : {result.success_probability:.12g}")
        if result.paper_claimed_probability is not None:
            print(f"paper-claimed prob. : {result.paper_claimed_probability:.12g}")
        if result.closed_form_probability is not None:
            print(f"closed-form (1,..,1): {result.closed_form_probability:.12g}")
        print(f"fidelity            : {result.fidelity:.12g}")
        print(f"leaked norm         : {result.leaked_norm:.3e}")
        print(f"exact               : {result.exact}")
        print("top output terms:")
        top = sorted(
            result.output_state.terms.items(), key=lambda kv: -abs(kv[1])
        )[:10]
        for occ, amp in top:
            ket = ",".join(str(n) for n in occ)
            print(f"  |{ket}>  {amp.real:+.9f}{amp.imag:+.9f}j")

    if constrained and result.fidelity < 1.0 - 1e-6:
        print(
            json.dumps({"error": f"fidelity {result.fidelity} below contract"}),
            file=sys.stderr,
        )
        return NUMERIC_ERROR
    return 0


def cmd_sweep(args) -> int:
    if args.points < 1:
        raise FockError("--points must be >= 1")
    if args.points == 1:
        grid = [args.start]
    elif args.log:
        if args.start <= 0 or args.stop <= 0:
            raise FockError("log grid requires positive bounds")
        step = (math.log(args.stop) - math.log(args.start)) / (args.points - 1)
        grid = [math.exp(math.log(args.start) + i * step) for i in range(args.points)]
    else:
        step = (args.stop - args.start) / (args.points - 1)
        grid = [args.start + i * step for i in range(args.points)]
    rows = protocols.sweep(args.protocol, grid, _cutoff(args))
    writer = csv.writer(sys.stdout)
    writer.writerow(["gamma2", "gamma1", "probability", "fidelity", "leaked_norm", "error"])
    for row in rows:
        writer.writerow(
            [repr(row["gamma2"])]
            + ["" if row[k] is None else repr(row[k])
               for k in ("gamma1", "probability", "fidelity", "leaked_norm")]
            + [row["error"] or ""]
        )
    return 0


def cmd_oracle_check(args) -> int:
    if args.cutoff > 16:
        raise FockError("oracle-check supports cutoff <= 16")
    deviation = squeezers.oracle_max_deviation(args.gamma, args.cutoff, args.theta_terms)
    print(json.dumps({"gamma": args.gamma, "cutoff": args.cutoff,
                      "max_amplitude_deviation": deviation}))
    return 0 if deviation < 1e-9 else NUMERIC_ERROR


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every call.

    Parsing leaves the parser unchanged, so reuse is safe; callers must not
    add arguments to the returned object.
    """
    parser = argparse.ArgumentParser(
        prog="fockherald",
        description="Heralded parametric-amplifier circuit simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="solve coupling constraints")
    p_params.add_argument("protocol", choices=["nls", "teleport"])
    p_params.add_argument("--gamma2", type=float)
    p_params.set_defaults(func=cmd_params)

    p_run = sub.add_parser("run", help="run a protocol")
    p_run.add_argument("protocol", choices=["nls", *protocols.TELEPORTS])
    for name in ("c0", "c1", "c2"):
        p_run.add_argument(f"--{name}", type=float, default=0.0)
        p_run.add_argument(f"--{name}-im", type=float, default=0.0)
    p_run.add_argument("--gamma1", type=float)
    p_run.add_argument("--gamma2", type=float)
    p_run.add_argument("--cutoff", type=int)
    p_run.add_argument(
        "--format", choices=["json", "csv", "pretty"], default="json"
    )
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="gamma2 sweep, CSV on stdout")
    p_sweep.add_argument("protocol", choices=list(protocols.TELEPORTS))
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--points", type=int, default=10)
    p_sweep.add_argument("--log", action="store_true")
    p_sweep.add_argument("--cutoff", type=int)
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle-check", help="factored vs series squeezer")
    p_oracle.add_argument("--gamma", type=float, required=True)
    p_oracle.add_argument("--cutoff", type=int, default=12)
    p_oracle.add_argument("--theta-terms", type=int, default=80)
    p_oracle.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FockError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
