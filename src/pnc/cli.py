"""Command-line front end: `pnc <subcommand>`.

Scalar reports are emitted as JSON, data series as CSV with a header row
and 12-significant-digit floats.  Exit codes: 0 success, 2 usage error
(including a flag that the chosen mode ignores, a missing flag that it
needs, or a --csv path that cannot be opened or written), 3 infeasible
parameters.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys

from . import bounds as bounds_mod
from . import encoders as enc_mod
from . import mimo as mimo_mod
from . import sync as sync_mod
from .constellation import _step, _validate_orders

__all__ = ["main", "run", "DEFAULT_SEED"]

DEFAULT_SEED = 20_177  # fixed so every artifact is reproducible without flags

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3

FIGURES = ("rays_pmf", "sync_err", "gaps", "cap_approx")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def _profile_rows(ma: int, mb: int):
    """Header and rows (y, count, pmf) over the reachable sums y, counted in closed form.

    The M = ma + mb - 1 sums y = 2s - (M - 1) are taken in rank order s.
    """
    M = ma + mb - 1
    counts = [_step(s, M, ma) for s in range(M)]
    return ("y", "count", "pmf"), [(2 * s - (M - 1), c, c / (ma * mb)) for s, c in enumerate(counts)]


def _cmd_profile(args) -> str:
    return _csv(*_profile_rows(args.ma, args.mb))


def _cmd_bounds(args) -> str:
    b = bounds_mod.compute_bounds(args.ma, args.mb)
    r_a, r_b = enc_mod.rate_nocoop(args.ma, args.mb)
    r_coop = enc_mod.rate_coop(args.ma, args.mb)
    gap_a, gap_b, gap_a_coop = enc_mod.gaps(b, r_a, r_b, r_coop)
    report = {
        "ub_shared": b.ub_shared,
        "ub_alice_nocoop": b.ub_alice_nocoop,
        "ub_bob_nocoop": b.ub_bob_nocoop,
        "rate_alice_nocoop": r_a,
        "rate_bob_nocoop": r_b,
        "rate_alice_coop": r_coop,
        "gap_alice": gap_a,
        "gap_bob": gap_b,
        "gap_alice_coop": gap_a_coop,
    }
    return json.dumps(report, indent=2) + "\n"


def _cmd_encode(args) -> str:
    queues = enc_mod.BitQueues(public_bits=args.public, secret_bits=args.secret)
    if args.scheme == "nocoop":
        partition = enc_mod.build_partition(args.ma, args.mb, args.side)
        # every symbol takes exactly m bits, so this stops where the queues run dry
        count = math.ceil(
            (len(args.public) + len(args.secret)) / partition.constellation.bits_per_symbol
        )
        symbols = enc_mod.encode_stream(queues, partition, count=count)
    else:
        symbols = enc_mod.encode_coop(queues, args.levels, enc_mod.make_pam(args.ma))
        if not queues.exhausted:
            raise ValueError("bits left over after the supplied levels")
    return ",".join(str(s) for s in symbols) + "\n"


def _cmd_audit(args) -> str:
    scheme = {"nocoop": f"nocoop_{args.side}", "coop": "coop"}[args.scheme]
    report = enc_mod.audit_leakage(scheme, args.ma, args.mb)
    payload = {
        "scheme": report.scheme,
        "suffix_mi": list(report.suffix_mi),
        "semantic_mi": report.semantic_mi,
        "flat_suffix_mi": list(report.flat_suffix_mi),
        "flat_semantic_mi": report.flat_semantic_mi,
    }
    return json.dumps(payload, indent=2) + "\n"


def _cmd_sync_sweep(args) -> str:
    return _csv(("dta", "dtb", "ub"), sync_mod.sync_sweep(args.ma, args.mb, args.step))


def _cmd_mimo(args) -> str:
    if args.dim:
        d = mimo_mod.dof_max(args.m, args.n)
        payload = {"dof_max": d}
        if d >= 1:
            payload["precoder_space_dim"] = mimo_mod.precoder_space_dim(args.m, args.n)
        return json.dumps(payload) + "\n"
    method = {"zf": "zf", "opt": "optimized"}[args.method]
    snrs = [10 ** (db / 10) for db in args.snr_db]
    result = mimo_mod.ergodic_capacity_mc(args.m, args.n, snrs, args.trials, args.seed, method)
    rows = [(db, mean) for db, (_, mean) in zip(args.snr_db, result)]
    return _csv(("snr_db", "mean_capacity_bits"), rows)


def _cmd_figure(args) -> str:
    if args.name == "rays_pmf":
        return _csv(*_profile_rows(4, 16))
    if args.name == "sync_err":
        return _csv(("dta", "dtb", "ub"), sync_mod.sync_sweep(4, 16, 0.05))
    if args.name == "gaps":
        rows = []
        for ma in (4, 8, 16, 32, 64):
            mb = 2 * ma
            while mb <= 256:
                b = bounds_mod.compute_bounds(ma, mb)
                rates = (*enc_mod.rate_nocoop(ma, mb), enc_mod.rate_coop(ma, mb))
                rows.append((ma, mb, *enc_mod.gaps(b, *rates)))
                mb *= 2
        return _csv(("ma", "mb", "gap_alice", "gap_bob", "gap_alice_coop"), rows)
    rows = []  # cap_approx, the last of FIGURES
    snr_db = [0.0, 5.0, 10.0, 15.0, 20.0]
    snrs = [10 ** (db / 10) for db in snr_db]
    for m, n in ((2, 2), (3, 3), (3, 2), (4, 3)):
        for method in ("zf", "optimized"):
            result = mimo_mod.ergodic_capacity_mc(m, n, snrs, args.trials, args.seed, method)
            rows.extend((m, n, method, db, mean) for db, (_, mean) in zip(snr_db, result))
    return _csv(("m", "n", "method", "snr_db", "mean_capacity_bits"), rows)


def _checked(convert, what, ok=lambda value: True):
    """Argparse type: convert(text), a usage error if that fails or `ok` rejects it."""

    def parse(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except (ValueError, OverflowError):
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return parse


def _list_of(kind):
    """Argparse type for a comma-separated list of `kind` values."""
    return _checked(
        lambda text: [kind(v) for v in text.split(",")], f"comma-separated {kind.__name__} values"
    )


class _Noted(argparse.Action):
    """Store the value as argparse would, and note in `given` that the flag was given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = {*getattr(namespace, "given", ()), self.option_strings[0]}


def _ignored_flags(args) -> tuple[str, tuple[str, ...]]:
    """The mode the parsed command runs in and the (noted) flags that mode ignores."""
    if args.command == "mimo" and args.dim:
        return "--dim", ("--snr-db", "--trials", "--seed", "--method", "--csv")
    if args.command == "figure" and args.name != "cap_approx":
        return f"figure {args.name}", ("--trials", "--seed")
    if args.command in ("encode", "audit") and args.scheme == "coop":
        return "--scheme coop", ("--side",)
    if args.command == "encode":
        return "--scheme nocoop", ("--levels",)
    return "", ()


_POSITIVE_INT = _checked(int, "an int > 0", lambda v: v > 0)
_SEED = _checked(int, "an int >= 0", lambda v: v >= 0)  # numpy's seeds are non-negative
_POSITIVE_FLOAT = _checked(float, "a float > 0", lambda v: v > 0)  # nan is not
_BITS = _checked(str, "a 0/1 string", lambda text: not text.strip("01"))
# each 10^(dB/10) must be a float > 0: nan, ±inf, above 3082 dB or below -3233 dB is not
_SNR_DB = _checked(
    _list_of(float),
    "dB values with a finite SNR > 0",
    lambda dbs: all(0 < 10 ** (db / 10) < math.inf for db in dbs),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pnc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_orders(p):
        p.add_argument("--ma", type=int, required=True, help="Alice's PAM order M_A")
        p.add_argument("--mb", type=int, required=True, help="Bob's PAM order M_B")

    p = sub.add_parser("profile", help="sum-profile rows y,count,pmf")
    add_orders(p)
    p.add_argument("--csv", help="write to this path instead of stdout")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("bounds", help="secrecy-rate bounds and gaps as JSON")
    add_orders(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("encode", help="encode public/secret bit queues to symbols")
    add_orders(p)
    p.add_argument("--scheme", choices=("nocoop", "coop"), required=True)
    p.add_argument("--side", choices=("alice", "bob"), default="bob", action=_Noted)
    p.add_argument("--public", type=_BITS, default="", help="public bit string")
    p.add_argument("--secret", type=_BITS, default="", help="secret bit string")
    p.add_argument(
        "--levels",
        type=_list_of(int),
        action=_Noted,
        help="comma-separated secret-bit counts (coop)",
    )
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("audit", help="exact leakage report as JSON")
    add_orders(p)
    p.add_argument("--scheme", choices=("nocoop", "coop"), required=True)
    p.add_argument("--side", choices=("alice", "bob"), default="bob", action=_Noted)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("sync-sweep", help="upper bound over the timing-offset grid")
    add_orders(p)
    p.add_argument("--step", type=_POSITIVE_FLOAT, default=0.05, help="grid step in (0, 0.5]")
    p.add_argument("--csv", help="write to this path instead of stdout")
    p.set_defaults(func=_cmd_sync_sweep)

    p = sub.add_parser("mimo", help="MIMO ergodic capacity or dimension report")
    p.add_argument("--m", type=_POSITIVE_INT, required=True, help="relay antennas M")
    p.add_argument("--n", type=_POSITIVE_INT, required=True, help="user antennas N")
    p.add_argument("--dim", action="store_true", help="print dof and manifold dimension")
    p.add_argument(
        "--snr-db",
        type=_SNR_DB,
        default="0,5,10,15,20",
        action=_Noted,
        help="comma-separated SNRs in dB; a list that starts negative needs '=', as --snr-db=-5,0",
    )
    p.add_argument("--trials", type=_POSITIVE_INT, default=1000, action=_Noted)
    p.add_argument("--seed", type=_SEED, default=DEFAULT_SEED, action=_Noted)
    p.add_argument("--method", choices=("zf", "opt"), default="zf", action=_Noted)
    p.add_argument("--csv", action=_Noted, help="write to this path instead of stdout")
    p.set_defaults(func=_cmd_mimo)

    p = sub.add_parser("figure", help="emit the data series behind a figure")
    p.add_argument("name", choices=FIGURES)
    p.add_argument("--trials", type=_POSITIVE_INT, default=1000, action=_Noted)
    p.add_argument("--seed", type=_SEED, default=DEFAULT_SEED, action=_Noted)
    p.add_argument("--csv", help="write to this path instead of stdout")
    p.set_defaults(func=_cmd_figure)

    return parser


def _cannot_write(err, path: str, exc: OSError) -> int:
    err.write(f"error: cannot write {path}: {exc.strerror}\n")
    return EXIT_USAGE


def run(argv=None, out=None, err=None) -> int:
    """Run the command in argv (default sys.argv[1:]) and return its exit code.

    The command's text goes to the --csv file, opened before the work as
    `> PATH` would, or else to `out`; messages go to `err`.  A --csv file
    that cannot be opened, written or closed exits 2.  The streams
    default to sys.stdout and sys.stderr as they are at the call.
    """
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    mode, ignored = _ignored_flags(args)
    unused = [flag for flag in ignored if flag in getattr(args, "given", ())]
    if unused:
        err.write(f"error: {mode} ignores {', '.join(unused)}\n")
        return EXIT_USAGE
    if args.command == "encode" and args.scheme == "coop" and args.levels is None:
        err.write("error: --scheme coop requires --levels\n")
        return EXIT_USAGE
    try:
        if hasattr(args, "ma"):  # every command with --ma has --mb
            _validate_orders(args.ma, args.mb)
        path = getattr(args, "csv", None)
        try:
            sink = open(path, "w") if path else contextlib.nullcontext(out)
        except OSError as exc:
            return _cannot_write(err, path, exc)
        text = None  # set once the command returns: an OSError before that is its own
        try:
            with sink as dest:
                text = args.func(args)
                dest.write(text)  # a full device fails here or on the close
        except OSError as exc:
            if text is None or not path:
                raise
            return _cannot_write(err, path, exc)
    except (ValueError, enc_mod.QueueUnderflow) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_INFEASIBLE
    return EXIT_OK


def main() -> None:
    sys.exit(run())
