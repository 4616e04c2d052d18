"""Command line surface.

    dpoterm prove <file> [--strategy S] [--out CERT] [--json] [--verified]
                  [--seed N]
    dpoterm check <file> <cert>
    dpoterm steps <file> --graph NAME [--depth N]

Exit codes: 0 success/accept, 1 input error, 2 certificate rejected or
no proof found.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .certificate import certificate_to_json, read_certificate, write_certificate
from .checker import CertificateError, check_certificate, step_wtg
from .dpo import enumerate_matches
from .graph import canonical_key, isomorphic
from .prover import DEFAULT_STRATEGY, parse_strategy, run_strategy
from .sysfile import System, SystemParseError, parse_system_file
from .verify import verify_step_decompositions


def _load_system(path: str) -> System:
    try:
        return parse_system_file(Path(path).read_text())
    except (OSError, SystemParseError, ValueError) as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        raise SystemExit(1)


def _cmd_prove(args) -> int:
    system = _load_system(args.file)
    strategy_text = args.strategy or system.strategy or DEFAULT_STRATEGY
    try:
        strategy = parse_strategy(strategy_text)
    except ValueError as e:
        print(f"error: strategy: {e}", file=sys.stderr)
        return 1
    result = run_strategy(system, strategy)
    cert = result.certificate
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.verified:
        failures = _run_verified(system, cert, args.seed)
        if failures:
            for f in failures:
                print(f"error: verified mode: {f}", file=sys.stderr)
            return 2
    text = certificate_to_json(cert) if args.json else write_certificate(cert)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as e:
            print(f"error: {args.out}: {e}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    verdict = f"verdict {cert.verdict}"
    if cert.remaining:
        verdict += f" remaining=[{', '.join(cert.remaining)}]"
    # without --out, standard output carries the certificate alone
    print(verdict, file=sys.stdout if args.out else sys.stderr)
    return 0 if cert.verdict != "failed" else 2


def _run_verified(system: System, cert, seed: int) -> list[str]:
    failures: list[str] = []
    remaining = list(system.rules)
    for idx, step in enumerate(cert.steps, 1):
        failures.extend(
            f"step {idx}: {f}"
            for f in verify_step_decompositions(
                step_wtg(step), remaining, system.framework, seed + idx
            )
        )
        remaining = [r for r in remaining if r.name not in step.removed]
    return failures


def _cmd_check(args) -> int:
    system = _load_system(args.file)
    try:
        cert = read_certificate(system.sig, Path(args.cert).read_text())
    except (OSError, UnicodeDecodeError, CertificateError) as e:
        print(f"error: {args.cert}: {e}", file=sys.stderr)
        return 1
    got = check_certificate(system, cert)
    if got.accepted:
        print("accept")
        return 0
    print(f"reject: {got.reason}", file=sys.stderr)
    print("reject")
    return 2


def _cmd_steps(args) -> int:
    system = _load_system(args.file)
    if args.graph not in system.graphs:
        print(f"error: unknown graph {args.graph!r}", file=sys.stderr)
        return 1
    frontier = [system.graphs[args.graph]]
    # invariant key -> the graphs kept under it, pairwise non-isomorphic
    seen = {canonical_key(frontier[0]): frontier[:1]}
    print(f"depth 0: 1 graph ({frontier[0].size} elements)")
    for depth in range(1, args.depth + 1):
        next_frontier = []
        step_count = 0
        for g in frontier:
            for rule in system.rules:
                for m, diag in enumerate_matches(rule, g, system.framework):
                    step_count += 1
                    kept = seen.setdefault(canonical_key(diag.H), [])
                    if not any(isomorphic(diag.H, k) for k in kept):
                        kept.append(diag.H)
                        next_frontier.append(diag.H)
        print(
            f"depth {depth}: {step_count} steps, {len(next_frontier)} new graphs"
        )
        if not next_frontier:
            print("normal forms reached")
            break
        frontier = next_frontier
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpoterm",
        description="Termination prover for DPO graph transformation systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="search for a termination proof")
    p.add_argument("file")
    p.add_argument("--strategy", help="strategy expression (overrides the file)")
    p.add_argument("--out", help="write the certificate here")
    p.add_argument("--json", action="store_true", help="emit the JSON variant")
    p.add_argument("--verified", action="store_true",
                   help="dynamically validate decompositions on sampled steps")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_prove)

    p = sub.add_parser("check", help="check a certificate against a system")
    p.add_argument("file")
    p.add_argument("cert")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("steps", help="enumerate rewrite steps from a graph")
    p.add_argument("file")
    p.add_argument("--graph", required=True)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(fn=_cmd_steps)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
