"""Command-line interface: analysis, decomposition, construction, tables,
Pauli certification, and fidelity sweeps over the shared file formats.

Exit codes: 0 on success, 1 on domain errors (bad codes, violated
preconditions, budget) and, silently, on a closed stdout, 2 on usage errors
(argparse), 130 on Ctrl-C.  Each call builds the parser of the command it
runs alone and imports only the modules that command runs, so
``fidelity``, ``match`` and ``tables`` never load numpy.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

import eaqecne  # the lazy namespace: annotations name records without loading it
from .errors import (DEFAULT_BUDGET, FIELDS, SUPPORTED_ORDERS, EaqecneError,
                     FormatError, RangeError)


def format_analysis(params: eaqecne.EAQECCParams, m: int, compute_d: bool) -> str:
    line = f"{params}{'' if params.c else ' c=0'} l={params.l} m={m}"
    if compute_d and params.d is None:
        line += " d=undefined"
    return line


def cmd_analyze(args) -> int:
    from . import addcodes as ac, eaqec
    code = ac.load_code(args.codefile, args.symplectic)
    compute_d = not args.no_distance
    params = eaqec.eaqec_params(code, compute_d, budget=args.budget)
    print(format_analysis(params, code.m, compute_d))
    return 0


def cmd_decompose(args) -> int:
    from . import addcodes as ac, linalg, symplectic as sp
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
    from . import addcodes as ac
    code = ac.load_code(args.codefile, args.symplectic)
    res = ac.min_weight_excluding_detail(code, budget=args.budget)
    print(f"d={'undefined' if res.d is None else res.d} enumerated={res.examined}")
    return 0


def cmd_combine(args) -> int:
    from . import eaqec, linalg
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


def cmd_match(args) -> int:
    from .records import CombinationParams, EAQECCParams
    n, k, d, c = _parse_ints(args.alice, 4, "--alice")
    m, kb, db = _parse_ints(args.bob, 3, "--bob")
    if None in (n, k, c, m, kb):
        raise FormatError("only the distances d and db may be '?' or empty")
    pair = []
    for flag, *fields in (("--alice", n, k, c, d), ("--bob", m, kb, 0, db)):
        try:
            pair.append(EAQECCParams(args.q, *fields))
        except RangeError as exc:
            raise RangeError(f"{flag}: {exc}") from None
    print(f"match={CombinationParams(*pair).label}")
    return 0


def cmd_tables(args) -> int:
    from .records import tables_csv
    try:
        ms = tuple(int(t) for t in args.family_m.split(","))
    except ValueError:
        raise FormatError(f"--family-m needs comma-separated integers, "
                          f"got {args.family_m!r}") from None
    print(tables_csv(ms), end="")
    return 0


def cmd_fidelity(args) -> int:
    from . import fidelity as fid
    N, d = _parse_ints(args.c, 2, "--c")
    n, da = _parse_ints(args.ea, 2, "--ea")
    m, db = _parse_ints(args.b, 2, "--b")
    if None in (N, d, n, da, m, db):
        raise FormatError("--c, --ea and --b need a length and a distance")
    lam = fid.read_degradation(args.lam)
    if lam > 1:
        print(f"warning: degradation coefficient {args.lam} exceeds 1",
              file=sys.stderr)
    grid = fid.parse_grid(args.grid)
    text = fid.curve_csv((N, d), ((n, da), (m, db)), lam, grid)
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise FormatError(
                f"cannot write {args.csv}: {exc.strerror or exc}") from exc
        print(f"wrote {len(grid)} rows to {args.csv}")
    else:
        print(text, end="")
    return 0


def cmd_verify_pauli(args) -> int:
    import numpy as np
    from . import pauli, symplectic as sp
    from .gf import field
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


def cmd_print_field(args) -> int:
    from .gf import field
    orders = [args.order] if args.order else FIELDS
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


_CODEFILE = ("codefile", {})
_NO_DISTANCE = ("--no-distance", dict(action="store_true"))
_SYMPLECTIC = ("--symplectic", dict(
    action="store_true",
    help="input file is a base-field preimage matrix with 2n columns"))
_BUDGET = ("--budget", dict(type=_int_at_least(0), default=DEFAULT_BUDGET,
                            help="enumeration word cap (default 2^30)"))

# command -> (help, handler, its arguments as (name, add_argument keywords))
_COMMANDS = {
    "analyze": ("EA parameters of a code file", cmd_analyze,
                (_CODEFILE, _NO_DISTANCE, _SYMPLECTIC, _BUDGET)),
    "decompose": ("radical/complement split of a code", cmd_decompose,
                  (_CODEFILE, _SYMPLECTIC)),
    "mindist": ("minimum weight by exhaustive enumeration", cmd_mindist,
                (_CODEFILE, _SYMPLECTIC, _BUDGET)),
    "combine": ("stack (G|0),(G2|E) and report", cmd_combine,
                (("G", {}), ("G2", {}), ("E", {}), _NO_DISTANCE, _BUDGET)),
    "match": ("classify an Alice/Bob parameter pair", cmd_match, (
        ("--q", dict(type=int, required=True, choices=SUPPORTED_ORDERS)),
        ("--alice", dict(required=True, metavar="n,k,d,c")),
        ("--bob", dict(required=True, metavar="m,kb,db")))),
    "tables": ("published parameter families as CSV", cmd_tables, (
        ("--family-m", dict(
            default="2,3,4",
            help="instantiations of the binary family parameter")),)),
    "fidelity": ("channel-fidelity sweep as CSV", cmd_fidelity, (
        ("--c", dict(required=True, metavar="N,d")),
        ("--ea", dict(required=True, metavar="n,d")),
        ("--b", dict(required=True, metavar="m,db")),
        ("--lambda", dict(dest="lam", required=True,
                          help="ebit degradation coefficient p_b/p_a")),
        ("--grid", dict(required=True, metavar="start:stop:steps")),
        ("--csv", dict(help="write the CSV here instead of stdout")))),
    "verify-pauli": ("certify commutation and projector-rank laws",
                     cmd_verify_pauli, (
        ("--p", dict(type=int, required=True)),
        ("--n", dict(type=_int_at_least(1), required=True)),
        ("--samples", dict(type=_int_at_least(1), default=500)),
        ("--sets", dict(type=_int_at_least(1), default=50)),
        ("--seed", dict(type=_int_at_least(0), default=0)))),
    "print-field": ("modulus table and element encodings", cmd_print_field,
                    (("--order", dict(type=int, choices=tuple(FIELDS))),)),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of every command or, when ``argv[0]`` names one, of that
    command alone; help and usage errors read the same either way."""
    parser = argparse.ArgumentParser(
        prog="eaqecne",
        description="q-ary entanglement-assisted quantum codes with noisy "
                    "ebits: analysis, construction, certification, fidelity.")
    one = argv[0] if argv and argv[0] in _COMMANDS else None
    # a lone command keeps every name in the usage line that reports a
    # trailing argument; the full build must not set it, since the metavar
    # would also replace "command" in its missing- and invalid-choice errors
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=one and "{%s}" % ",".join(_COMMANDS))
    for name in [one] if one else _COMMANDS:
        help_, func, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    # one BLAS thread unless the user set a count: every product is small,
    # and starting a thread pool costs more CPU than it saves
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return rc
    except EaqecneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone: say nothing, and give the interpreter's last
        # flush of the unwritten output somewhere to go
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
