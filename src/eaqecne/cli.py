"""Command-line interface: analysis, decomposition, construction, tables,
Pauli certification, and fidelity sweeps over the shared file formats.

Exit codes: 0 on success, 1 on domain errors (bad codes, violated
preconditions, budget), 2 on usage errors (argparse).
"""

from __future__ import annotations

import argparse
import itertools
import sys

import numpy as np

from .errors import EaqecneError, FormatError, RangeError
from .gf import SUPPORTED_ORDERS, field
from . import addcodes as ac
from . import eaqec, fidelity as fid, linalg, pauli, symplectic as sp


def format_analysis(params: eaqec.EAQECCParams, m: int, compute_d: bool) -> str:
    line = f"{params}{'' if params.c else ' c=0'} l={params.l} m={m}"
    if compute_d and params.d is None:
        line += " d=undefined"
    return line


def cmd_analyze(args) -> int:
    code = ac.load_code(args.codefile, args.symplectic)
    compute_d = not args.no_distance
    params = eaqec.eaqec_params(code, compute_d, budget=args.budget)
    print(format_analysis(params, code.m, compute_d))
    return 0


def cmd_decompose(args) -> int:
    code = ac.load_code(args.codefile, args.symplectic)
    dec = ac.radical_decompose(code)
    print(f"q2={code.field.order} n={code.n} m={code.m} l={dec.l} c={dec.c}")
    for name, part in (("radical", dec.radical), ("complement", dec.complement)):
        if args.symplectic:
            print(sp.dump_preimage(code.base_field, part.preimage,
                                   (f"{name} basis",)), end="")
        else:
            print(linalg.dump_matrix(code.field, part.generators,
                                     comments=(f"{name} generators",)), end="")
    return 0


def cmd_mindist(args) -> int:
    code = ac.load_code(args.codefile, args.symplectic)
    res = ac.min_weight_excluding_detail(code, budget=args.budget)
    d = res.distance(code.n)
    print(f"d={'undefined' if d is None else d} enumerated={res.examined}")
    return 0


def cmd_combine(args) -> int:
    fa, G = linalg.load_matrix(args.G)
    fb, G2 = linalg.load_matrix(args.G2)
    fc, E = linalg.load_matrix(args.E)
    if not (fa is fb is fc):
        raise FormatError("G, G2, E must share one field order")
    if not fa.is_quadratic:
        raise FormatError("combine expects matrices over a quadratic extension")
    _, report = eaqec.combine_construct(fa, G, G2, E,
                                        compute_d=not args.no_distance,
                                        budget=args.budget)
    for line in report.lines():
        print(line)
    return 0


def _parse_ints(text: str, count: int, what: str) -> list[int | None]:
    parts = text.split(",")
    if len(parts) != count:
        raise FormatError(f"{what} needs {count} comma-separated values")
    out = []
    for tok in parts:
        tok = tok.strip()
        try:
            out.append(None if tok in ("?", "") else int(tok))
        except ValueError:
            raise FormatError(f"{what}: {tok!r} is not an integer") from None
    return out


def _params(flag: str, **fields) -> eaqec.EAQECCParams:
    try:
        return eaqec.EAQECCParams(**fields)
    except RangeError as exc:
        raise RangeError(f"{flag}: {exc}") from None


def cmd_match(args) -> int:
    n, k, d, c = _parse_ints(args.alice, 4, "--alice")
    m, kb, db = _parse_ints(args.bob, 3, "--bob")
    if None in (n, k, c, m, kb):
        raise FormatError("only the distances d and db may be '?' or empty")
    alice = _params("--alice", q=args.q, n=n, k=k, c=c, d=d)
    bob = _params("--bob", q=args.q, n=m, k=kb, c=0, d=db)
    print(f"match={eaqec.CombinationParams(alice, bob).label}")
    return 0


def cmd_tables(args) -> int:
    try:
        ms = tuple(int(t) for t in args.family_m.split(","))
    except ValueError:
        raise FormatError(f"--family-m needs comma-separated integers, "
                          f"got {args.family_m!r}") from None
    print(eaqec.tables_csv(ms), end="")
    return 0


def cmd_fidelity(args) -> int:
    N, d = _parse_ints(args.c, 2, "--c")
    n, da = _parse_ints(args.ea, 2, "--ea")
    m, db = _parse_ints(args.b, 2, "--b")
    if None in (N, d, n, da, m, db):
        raise FormatError("--c, --ea and --b need a length and a distance")
    lam = fid.read_rational(args.lam, "degradation coefficient")
    if lam > 1:
        print(f"warning: degradation coefficient {args.lam} exceeds 1",
              file=sys.stderr)
    grid = fid.parse_grid(args.grid)
    rows = fid.sweep((N, d), ((n, da), (m, db)), lam, grid)
    text = fid.curve_csv(rows)
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise FormatError(
                f"cannot write {args.csv}: {exc.strerror or exc}") from exc
        print(f"wrote {len(rows)} rows to {args.csv}")
    else:
        print(text, end="")
    return 0


def cmd_verify_pauli(args) -> int:
    p, n = args.p, args.n
    pauli.PauliLabel.identity(p, n)  # rejects p that is not a supported prime
    pauli.check_cap(p, n)  # both laws build p^n x p^n matrices
    F = field(p)
    rng = np.random.default_rng(args.seed)
    if p ** (4 * n) <= min(args.samples ** 2, 10000):  # all p^(2n) classes, paired
        classes = itertools.product(itertools.product(range(p), repeat=n), repeat=2)
        labels = [pauli.PauliLabel(p, n, 0, x, z) for x, z in classes]
        pairs, mode = list(itertools.product(labels, repeat=2)), "exhaustive"
    else:
        pairs = [(pauli.random_label(p, n, rng), pauli.random_label(p, n, rng))
                 for _ in range(args.samples)]
        mode = "random"
    laws = all(pauli.commutation_phase(g, h) == sp.symp_inner(
        F, g.symplectic_image(), h.symplectic_image()) for g, h in pairs)
    print(f"commutation-law p={p} n={n} pairs={len(pairs)} mode={mode} "
          f"{'pass' if laws else 'FAIL'}")

    ranks = True
    for _ in range(args.sets):
        m = int(rng.integers(1, n + 1))
        labels = pauli.random_stabilizer_labels(p, n, m, rng)
        ranks &= pauli.codespace_dim(labels) == p ** (n - m)
    print(f"projector-rank p={p} n={n} sets={args.sets} "
          f"{'pass' if ranks else 'FAIL'}")
    return 0 if laws and ranks else 1


_ALL_ORDERS = sorted(set(SUPPORTED_ORDERS) | {q * q for q in SUPPORTED_ORDERS})


def cmd_print_field(args) -> int:
    orders = [args.order] if args.order else _ALL_ORDERS
    for order in orders:
        F = field(order)
        if F.base is None:
            print(f"GF({order}): prime field, elements 0..{order - 1}")
        else:
            print(f"GF({order}) = GF({F.base.order})[x]/({F.modulus_str()})"
                  f", encoding index = sum(coeff_i * {F.base.order}^i)")
        if F.is_quadratic:
            print(f"  beta=x (index {F.beta}), beta^q index {F.beta_conj}, "
                  f"beta^2-beta^(2q) index {F.alt_normalizer}")
        if args.order:
            for a in range(F.order):
                print(f"  {a}: {F.poly_str(a)}")
    return 0


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`; argparse reports a
    non-integer as an 'invalid integer value' after the inner name."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eaqecne",
        description="q-ary entanglement-assisted quantum codes with noisy "
                    "ebits: analysis, construction, certification, fidelity.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--budget", type=_int_at_least(0),
                       default=ac.DEFAULT_BUDGET,
                       help="enumeration word cap (default 2^30)")

    def add_symplectic(p):
        p.add_argument("--symplectic", action="store_true",
                       help="input file is a base-field preimage matrix "
                            "with 2n columns")

    p = sub.add_parser("analyze", help="EA parameters of a code file")
    p.add_argument("codefile")
    p.add_argument("--no-distance", action="store_true")
    add_symplectic(p)
    add_budget(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decompose", help="radical/complement split of a code")
    p.add_argument("codefile")
    add_symplectic(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("mindist", help="minimum weight by exhaustive enumeration")
    p.add_argument("codefile")
    add_symplectic(p)
    add_budget(p)
    p.set_defaults(func=cmd_mindist)

    p = sub.add_parser("combine", help="stack (G|0),(G2|E) and report")
    p.add_argument("G")
    p.add_argument("G2")
    p.add_argument("E")
    p.add_argument("--no-distance", action="store_true")
    add_budget(p)
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("match", help="classify an Alice/Bob parameter pair")
    p.add_argument("--q", type=int, required=True, choices=SUPPORTED_ORDERS)
    p.add_argument("--alice", required=True, metavar="n,k,d,c")
    p.add_argument("--bob", required=True, metavar="m,kb,db")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("tables", help="published parameter families as CSV")
    p.add_argument("--family-m", default="2,3,4",
                   help="instantiations of the binary family parameter")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("fidelity", help="channel-fidelity sweep as CSV")
    p.add_argument("--c", required=True, metavar="N,d")
    p.add_argument("--ea", required=True, metavar="n,d")
    p.add_argument("--b", required=True, metavar="m,db")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="ebit degradation coefficient p_b/p_a")
    p.add_argument("--grid", required=True, metavar="start:stop:steps")
    p.add_argument("--csv", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("verify-pauli", help="certify commutation and "
                                            "projector-rank laws")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--samples", type=_int_at_least(1), default=500)
    p.add_argument("--sets", type=_int_at_least(1), default=50)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_verify_pauli)

    p = sub.add_parser("print-field", help="modulus table and element encodings")
    p.add_argument("--order", type=int, choices=_ALL_ORDERS)
    p.set_defaults(func=cmd_print_field)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EaqecneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
