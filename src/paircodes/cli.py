"""Command line front end.

Subcommands:
  construct   build one family member and print its parameters
  certify     run the full pipeline and write a certificate file
  distance    exact distances plus classic bounds for any given code
  table       certify a family x q grid, one summary row per member

Exit codes: 0 success or confirmed, 2 inadmissible or invalid input,
3 certified discrepancy, 4 wall-clock budget exhausted.  Certificate
files are canonical JSON (sorted keys, nulled timings) so repeated
runs are byte-identical; human-readable timings only ever go to
stdout in text format.
"""

import argparse
import sys
from pathlib import Path

from paircodes.certify import (
    STATUS_BUDGET,
    STATUS_CONFIRMED,
    canonical_json,
    certify_family,
)
from paircodes.codes import make_code, min_hamming, min_pair
from paircodes.cosets import (
    bch_bound,
    closed_defining_set,
    generator_from_defining_set,
    hartmann_tzeng_bound,
)
from paircodes.families import (
    InadmissibleFamilyError,
    build_family,
    family_ids,
    get_spec,
)
from paircodes.field import factorize, make_field, make_tower, nth_root_of_unity
from paircodes.poly import Poly

EXIT_OK = 0
EXIT_INADMISSIBLE = 2
EXIT_DISCREPANCY = 3
EXIT_BUDGET = 4


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_construct(args) -> int:
    try:
        code = build_family(args.family, args.q)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    if args.format == "json":
        payload = {
            "family": args.family,
            "q": args.q,
            "n": code.n,
            "k": code.k,
            "generator": [int(c) for c in code.g.coeffs],
            "defining_set": code.T.serialize(),
        }
        _emit(canonical_json(payload), args.out)
    else:
        lines = [
            f"{args.family} at q = {code.ctx.q}: [{code.n}, {code.k}] cyclic code",
            f"generator (ascending): {' '.join(str(int(c)) for c in code.g.coeffs)}",
            f"defining set mod {code.T.rn}: {sorted(code.T.exponents)}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _certify_summary(cert) -> str:
    lines = [f"{cert.family} q={cert.q}: [{cert.n}, {cert.k}] status {cert.status}"]
    for label, c in (("d_H", cert.d_H), ("d_P", cert.d_P)):
        if c is None:
            lines.append(f"  {label}: stage not reached")
            continue
        val = "not found" if c.value is None else c.value
        lines.append(
            f"  {label} = {val} via {c.method}"
            f" (searched to {c.search_bound}, {c.elapsed_ms:.1f} ms)"
        )
    lines.append(
        f"  shapes swept: {cert.shapes_swept}; distance-gain consistency: {cert.lemma3_ok}"
    )
    return "\n".join(lines)


def cmd_certify(args) -> int:
    try:
        cert = certify_family(args.family, args.q, budget_seconds=args.budget)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    doc = canonical_json(cert.to_json_dict())
    if args.out:
        Path(args.out).write_text(doc)
        if args.format == "text":
            print(_certify_summary(cert))
    elif args.format == "json":
        sys.stdout.write(doc)
    else:
        print(_certify_summary(cert))
    if cert.status == STATUS_CONFIRMED:
        return EXIT_OK
    if cert.status == STATUS_BUDGET:
        return EXIT_BUDGET
    return EXIT_DISCREPANCY


def _parse_ints(text: str) -> list:
    return [int(t) for t in text.split(",") if t.strip() != ""]


def _code_from_args(args):
    fac = factorize(args.q)
    if len(fac) != 1:
        raise ValueError(f"q = {args.q} is not a prime power")
    ((p, e),) = fac.items()
    ctx = make_field(p, e)
    lam = ctx.neg(1) if args.lam == -1 else args.lam
    if not 0 <= lam < ctx.q:
        raise ValueError(f"lam must be -1 or a field index in 0..{ctx.q - 1}")
    if args.generator is not None:
        g = Poly(ctx, _parse_ints(args.generator))
        return make_code(ctx, args.n, lam, g)
    if lam != 1:
        raise ValueError("--defining-set input is supported for cyclic codes only")
    ds = closed_defining_set(args.n, 1, _parse_ints(args.defining_set), ctx.q)
    smap = make_tower(ctx.p, ctx.m)
    root = nth_root_of_unity(smap.big, args.n)
    g = generator_from_defining_set(ds, root, smap)
    return make_code(ctx, args.n, 1, g, root=root)


def cmd_distance(args) -> int:
    try:
        code = _code_from_args(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    w_max = code.n if args.w_max is None else min(args.w_max, code.n)
    d_h = min_hamming(code, w_max)
    d_p = None
    if args.pair:
        pw_max = code.n if args.pw_max is None else min(args.pw_max, code.n)
        d_p = min_pair(code, max(pw_max, 2))
    bch = None if code.T is None else bch_bound(code.T)
    ht = None
    if code.T is not None and code.r == 1:
        ht = hartmann_tzeng_bound(code.T)
    if args.format == "json":
        payload = {
            "q": code.ctx.q,
            "n": code.n,
            "lam": int(code.lam),
            "k": code.k,
            "d_H": d_h.to_json_dict(),
            "d_P": None if d_p is None else d_p.to_json_dict(),
            "bounds": {"bch": bch, "hartmann_tzeng": ht},
        }
        _emit(canonical_json(payload), args.out)
    else:
        val = "not found" if d_h.value is None else d_h.value
        lines = [
            f"[{code.n}, {code.k}] over GF({code.ctx.q}), lam index {int(code.lam)}",
            f"d_H = {val} via {d_h.method} ({d_h.elapsed_ms:.1f} ms)",
        ]
        if d_p is not None:
            pval = "not found" if d_p.value is None else d_p.value
            lines.append(f"d_P = {pval} via {d_p.method} ({d_p.elapsed_ms:.1f} ms)")
        lines.append(f"bounds: bch {bch}, hartmann_tzeng {ht}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_table(args) -> int:
    try:
        fams = _parse_names(args.family) if args.family else family_ids()
        for fam in fams:
            get_spec(fam)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    qs = _parse_ints(args.q) if args.q else []
    rows = []
    for fam in fams:
        for q in qs:
            try:
                cert = certify_family(fam, q, budget_seconds=args.budget)
            except InadmissibleFamilyError:
                continue
            rows.append(
                {
                    "family": fam,
                    "q": q,
                    "n": cert.n,
                    "k": cert.k,
                    "d_H": None if cert.d_H is None else cert.d_H.value,
                    "d_P": None if cert.d_P is None else cert.d_P.value,
                    "status": cert.status,
                }
            )
    if args.format == "json":
        _emit(canonical_json({"rows": rows}), args.out)
        return EXIT_OK
    header = f"{'family':<10} {'q':>4} {'n':>4} {'k':>4} {'d_H':>4} {'d_P':>4}  status"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['family']:<10} {r['q']:>4} {r['n']:>4} {r['k']:>4}"
            f" {str(r['d_H']):>4} {str(r['d_P']):>4}  {r['status']}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _parse_names(text: str) -> list:
    return [t.strip() for t in text.split(",") if t.strip()]


def _add_output_flags(p) -> None:
    p.add_argument("--out", default=None, help="write output to this path")
    p.add_argument("--format", choices=("json", "text"), default="text")


def _add_workers_flag(p) -> None:
    p.add_argument("--workers", type=_positive(int), default=1,
                   help="accepted for compatibility; ignored, scans run single-threaded")


def _positive(kind):
    def parse(text):
        v = kind(text)
        if v <= 0:
            raise argparse.ArgumentTypeError(f"{text} is not positive")
        return v

    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="paircodes",
        description="construct and certify MDS symbol-pair cyclic codes",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build one family member")
    p.add_argument("--family", required=True, choices=family_ids())
    p.add_argument("--q", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("certify", help="run the certification pipeline")
    p.add_argument("--family", required=True, choices=family_ids())
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--budget", type=_positive(float), default=600.0,
                   help="wall-clock cap in seconds")
    _add_workers_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("distance", help="exact distances for a described code")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=_positive(int), required=True)
    p.add_argument("--lam", type=int, default=1,
                   help="constant as a field index; -1 means minus one")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--generator", help="ascending coefficients, comma separated")
    src.add_argument("--defining-set", dest="defining_set",
                     help="exponent representatives, comma separated")
    p.add_argument("--pair", action="store_true", help="also compute d_P")
    p.add_argument("--w-max", dest="w_max", type=_positive(int), default=None)
    p.add_argument("--pw-max", dest="pw_max", type=_positive(int), default=None)
    _add_workers_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("table", help="certify a family x q grid")
    p.add_argument("--family", default=None,
                   help="comma separated ids (default: all)")
    p.add_argument("--q", default=None, help="comma separated values")
    p.add_argument("--budget", type=_positive(float), default=600.0)
    _add_workers_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_table)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
