"""Command-line front end.

Three subcommands:

  verify   run seeded verification campaigns and write report files
  explain  print what a named check computes, with the tensor layout
           rendered for a concrete chain length
  perm     print the slot permutation and padding pattern for one n

Exit status: 0 when everything passed, 1 when any trial failed, 2 on
configuration or usage errors and on report paths that cannot be written.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from . import __version__
from .campaign import (
    CHECKS,
    FORMATS,
    SUITES,
    CampaignConfig,
    _check_caps,
    config_from,
    load_config_file,
    run_campaign,
)
from .combinatorics import MAX_N, thue_morse
from .entangle import build_layout
from .errors import ConfigError, TraceIneqError, UnknownCheck


def _shape_line(layout) -> str:
    """The doubling shape of a layout: its levels, padded length and pads."""
    return (f"levels = {layout.level_count}, full chain length = {layout.full_n}, "
            f"padded slots = {layout.pad_count}")


def _layout_text(n: int, d: int, dense: bool) -> list[str]:
    """Slot-by-slot description of the tensor factors for chain length n."""
    layout = build_layout(n, d, dense)
    lines = [
        f"layout for n = {n}, local dimension d = {d}:",
        f"  {_shape_line(layout)}",
        f"  total one-side dimension = {layout.total_dim}",
        f"  left factors: A_1 and conj(A_{n}), then maximally entangled",
        "  projector blocks: " +
        ", ".join(f"P on {c} pair cop{'ies' if c > 1 else 'y'}"
                  for c in layout.pair_copies),
        "  mid slots (order of tensor factors in the conjugating power):",
    ]
    for slot in layout.mid_slots:
        if slot.source is None:
            lines.append(f"    slot {slot.slot}: identity pad")
        else:
            tag = ", entrywise conjugate" if slot.conjugate else ""
            lines.append(f"    slot {slot.slot}: A_{slot.source}{tag}")
    lines.append(f"  outer pairing copies = {layout.outer_copies}")
    return lines


def _perm_text(n: int) -> list[str]:
    layout = build_layout(n, 2)  # its shape and slots do not depend on d
    lines = [
        f"chain length n = {n}",
        _shape_line(layout),
        "full slot table (slot: source, conjugation bit):",
    ]
    for slot in layout.mid_slots:
        what = f"A_{slot.source}" if slot.source is not None else "identity"
        lines.append(f"  slot {slot.slot}: {what:9s} alpha = {thue_morse(slot.slot)}")
    lines.append("reduced permutation on live slots:")
    live = [slot.source for slot in layout.mid_slots if slot.source is not None]
    lines += [f"  {k} -> {v}" for k, v in enumerate(live, 2)]
    return lines


def _flag_overrides(args) -> dict:
    """CampaignConfig overrides from the verify flags, whose dests are the
    field names. Unset flags stay None; lists become tuples."""
    values = {f.name: getattr(args, f.name, None) for f in fields(CampaignConfig)}
    return {k: tuple(v) if isinstance(v, list) else v for k, v in values.items()}


def _cmd_verify(args) -> int:
    file_overrides = load_config_file(args.config) if args.config else {}
    cfg = config_from(file_overrides, _flag_overrides(args))
    summary = run_campaign(cfg)
    print(summary.to_text())
    if cfg.out:
        print(f"reports under {cfg.out}.*")
    return 0 if summary.passed else 1


def _cmd_explain(args) -> int:
    if args.check not in CHECKS:
        raise UnknownCheck(f"no check named {args.check!r}; known: "
                           f"{', '.join(sorted(CHECKS))}")
    spec = CHECKS[args.check]
    fixed_n = spec.length if isinstance(spec.length, int) else None
    if spec.length is None and args.n is not None:
        raise ConfigError(f"{spec.check_id} takes no chain, got --n {args.n}")
    if fixed_n and args.n not in (None, fixed_n):
        raise ConfigError(f"{spec.check_id} runs at the fixed chain length "
                          f"n = {fixed_n}, got --n {args.n}")
    if spec.length == "n" and args.n is not None and not 3 <= args.n <= MAX_N:
        raise ConfigError(f"chain lengths must be in [3, {MAX_N}]: {(args.n,)}")
    # the caps verify checks and the layout the row builds, first, so their
    # errors print nothing
    n = fixed_n or (4 if args.n is None else args.n)
    _check_caps(spec, (n,), args.d)
    layout = _layout_text(n, args.d, spec.dense) if spec.layout_aware else None
    print(f"{spec.check_id}  (suite: {spec.suite})")
    print()
    print(f"  {spec.formula}")
    print()
    print(f"{spec.description}")
    if fixed_n:
        print(f"chain length: fixed at n = {fixed_n}")
    elif spec.length == "n":
        print("chain length: runs over the configured n grid")
    if layout:
        print()
        print("\n".join(layout))
    return 0


def _cmd_perm(args) -> int:
    print("\n".join(_perm_text(args.n)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traceineq",
        description="Numerical verification of multivariate trace "
                    "inequalities and the identities behind them.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification campaign")
    # dests are CampaignConfig field names; see _flag_overrides
    p.add_argument("--suite", choices=SUITES,
                   default=None, help="which family of checks to run")
    p.add_argument("--check", action="append", metavar="ID", dest="checks",
                   help="restrict to a named check (repeatable)")
    p.add_argument("--n", type=int, nargs="+", metavar="N", dest="n_values",
                   help=f"chain lengths for the n-dependent checks (3..{MAX_N})")
    p.add_argument("--d", type=int, default=None, metavar="D", dest="local_dim",
                   help="local matrix dimension")
    p.add_argument("--trials", type=int, default=None,
                   help="random trials per check and chain length")
    p.add_argument("--seed", type=int, default=None,
                   help="base seed; trial i uses seed + i")
    p.add_argument("--lam-min", type=float, dest="lam_lo", metavar="LAM_MIN",
                   help="smallest eigenvalue drawn")
    p.add_argument("--lam-max", type=float, dest="lam_hi", metavar="LAM_MAX",
                   help="largest eigenvalue drawn")
    p.add_argument("--out", default=None, metavar="PREFIX",
                   help="report file prefix (default: $TRACEINEQ_OUT/report "
                        "when the variable is set, else no files)")
    p.add_argument("--format", choices=FORMATS, default=None, dest="fmt",
                   help="per-trial report format")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="key = value configuration file; flags override it")
    p.add_argument("--parallel", type=int, default=None, metavar="W",
                   help="worker processes (0 = one per available core, 1 = in process)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("explain", help="describe one check")
    p.add_argument("--check", required=True, metavar="ID")
    p.add_argument("--n", type=int, default=None,
                   help=f"chain length for the layout rendering (3..{MAX_N})")
    p.add_argument("--d", type=int, default=2,
                   help="local dimension for the layout rendering")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("perm", help="print the slot permutation for one n")
    p.add_argument("--n", type=int, required=True,
                   help=f"chain length (3..{MAX_N})")
    p.set_defaults(func=_cmd_perm)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TraceIneqError, OSError) as exc:  # OSError: a report path that cannot be made
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
