"""Command-line front end.

Subcommands: payoff, sweep, surface, best-response, nash-check, verify.
Single evaluations and search results are printed as JSON on stdout; sweeps
and surfaces are written as CSV (stdout by default, or --out FILE); a
--table file is validated as it is read.  Exit codes: 0 success, 1 failed
verification, 2 bad arguments or unreadable inputs, 3 numerical invariant
violation, 141 (128 + SIGPIPE) when the reader of stdout closed it early,
as ``qpd3 ... | head`` does.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import analysis, presets, verify
from .channel import ChannelParams
from .game import (
    COOPERATE,
    DEFAULT_TABLE,
    PLAYER_KEYS,
    PLAYER_NAMES,
    GameConfig,
    check_moves,
    closed_form_payoffs,
    outcome_probabilities,
    payoff_table,
)
from .linalg import InvariantViolation

_ANGLE_RE = re.compile(r"^([+-]?)(\d+(?:\.\d+)?)?\s*pi(?:\s*/\s*(\d+(?:\.\d+)?))?$")


def parse_angle(text: str) -> float:
    """Parse an angle in radians, accepting shorthands like 'pi', '-pi/2', '2pi/3'."""
    s = str(text).strip().lower()
    try:
        return float(s)
    except ValueError:
        pass
    m = _ANGLE_RE.match(s)
    if not m:
        raise argparse.ArgumentTypeError(
            f"cannot parse angle {text!r}; use radians or forms like pi, pi/2, -2pi/3"
        )
    sign = -1.0 if m.group(1) == "-" else 1.0
    coef = float(m.group(2)) if m.group(2) else 1.0
    den = float(m.group(3)) if m.group(3) else 1.0
    if den == 0.0:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}: division by zero")
    return sign * coef * math.pi / den


def parse_unit(text: str) -> float:
    try:
        val = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}") from exc
    if not 0.0 <= val <= 1.0:
        raise argparse.ArgumentTypeError(f"value {val} outside [0, 1]")
    return val


def parse_grid(text: str) -> tuple:
    """Parse 'start:stop:count' into an inclusive evenly spaced grid."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"grid must be start:stop:count, got {text!r}"
        )
    try:
        return analysis.grid_points(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from exc


def parse_triple(text: str) -> tuple[float, float, float]:
    """Parse 'theta,alpha,beta' with angle shorthands into a range-checked move."""
    parts = str(text).split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"strategy must be theta,alpha,beta, got {text!r}"
        )
    move = tuple(parse_angle(p) for p in parts)
    try:
        check_moves([move])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return move


def parse_seed(text: str) -> int:
    """Parse a non-negative integer seed."""
    try:
        val = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if val < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return val


def parse_player_strategy(text: str) -> tuple[str, tuple[float, float, float]]:
    """Parse 'A:theta,alpha,beta' (player key A, B or C)."""
    key, sep, rest = str(text).partition(":")
    if not sep or key.upper() not in PLAYER_KEYS:
        raise argparse.ArgumentTypeError(
            f"strategy must look like A:theta,alpha,beta, got {text!r}"
        )
    return key.upper(), parse_triple(rest)


def _add_game_flags(parser: argparse.ArgumentParser,
                    strategy_default: str = "all cooperate, i.e. 0,0,0"):
    g = parser.add_argument_group("game parameters")
    g.add_argument("--gamma", type=parse_angle, default=math.pi / 2,
                   help="initial-state entanglement in [0, pi/2] (default: pi/2)")
    g.add_argument("--delta", type=parse_angle, default=math.pi / 2,
                   help="measurement-basis entanglement in [0, pi/2] (default: pi/2)")
    g.add_argument("--p", type=parse_unit, default=None,
                   help="decoherence parameter for both passages (default: 0)")
    g.add_argument("--mu", type=parse_unit, default=None,
                   help="memory parameter for both passages (default: 0)")
    g.add_argument("--p2", type=parse_unit, default=None,
                   help="decoherence of the second passage, kept by mu sweeps "
                        "(default: same as --p)")
    g.add_argument("--mu2", type=parse_unit, default=None,
                   help="memory of the second passage, kept by p sweeps "
                        "(default: same as --mu)")
    g.add_argument("--table", default=None, metavar="FILE",
                   help="JSON payoff table mapping outcome labels to 3 numbers "
                        "(default: built-in table)")
    g.add_argument("--strategy", action="append", type=parse_player_strategy,
                   default=None, metavar="P:THETA,ALPHA,BETA",
                   help="strategy for player A, B or C, repeatable "
                        f"(default: {strategy_default})")


def _load_table(args):
    """The --table file, a JSON object mapping outcome labels to triples, as a table array."""
    if args.table is None:
        return DEFAULT_TABLE
    try:
        with open(args.table, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("payoff table file must contain a JSON object")
        return payoff_table(data)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot load payoff table {args.table!r}: {exc}") from exc


def _config_from(args, strategies=None, p=None, mu=None) -> GameConfig:
    """The flags' game over the command's defaults (None: all cooperate, p = mu = 0)."""
    given = [key for key, _ in args.strategy or []]
    for key in PLAYER_KEYS:
        if given.count(key) > 1:
            raise ValueError(f"--strategy {key}:... is given more than once; "
                             "each player takes one strategy")
    strategies = (COOPERATE,) * 3 if strategies is None else strategies
    profile = dict(zip(PLAYER_KEYS, strategies), **dict(args.strategy or []))
    p = args.p if args.p is not None else p or 0.0
    mu = args.mu if args.mu is not None else mu or 0.0
    p2 = p if args.p2 is None else args.p2
    mu2 = mu if args.mu2 is None else args.mu2
    return GameConfig(
        gamma=args.gamma,
        delta=args.delta,
        passage1=ChannelParams(p, mu),
        passage2=ChannelParams(p2, mu2),
        strategies=tuple(profile.values()),
        payoffs=_load_table(args),
    )


def _write_csv(path: str, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" for v in row))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_payoff(args) -> int:
    cfg = _config_from(args)
    probs = outcome_probabilities(cfg)
    pay = probs @ cfg.payoffs
    cf = closed_form_payoffs(cfg, pipeline=tuple(float(x) for x in pay))
    out = {
        "payoff_A": pay[0],
        "payoff_B": pay[1],
        "payoff_C": pay[2],
        "outcome_probabilities": list(probs),
        "closed_form": {
            "values": cf["payoffs"],
            "max_abs_discrepancy": cf["max_abs_discrepancy"],
        },
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_sweep(args) -> int:
    swept, p, mu, strategies = presets.FIGURES.get(args.preset, (None,) * 4)
    var = args.var or swept
    if swept not in (None, var):
        raise ValueError(f"--var {var} conflicts with --preset {args.preset}, "
                         f"which sweeps {swept}")
    if var is None:
        raise ValueError("--var is required (p or mu) unless a sweep preset is given")
    for flag in (var, var + "2"):
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} has no effect with --var {var}: "
                             f"the sweep sets {var} in both passages")
    rows = analysis.sweep(_config_from(args, strategies, p, mu), var, args.grid)
    _write_csv(args.out, "x,payoff_A,payoff_B,payoff_C", rows)
    return 0


def cmd_surface(args) -> int:
    _, p, mu, strategies = presets.FIGURES.get(
        args.preset, (None, None, None, presets.SURFACE_PROFILE))
    cfg = _config_from(args, strategies, p, mu)
    alphas, thetas, values = analysis.strategy_surface(cfg, args.res)
    rows = ((a, t, values[i, j]) for i, a in enumerate(alphas) for j, t in enumerate(thetas))
    _write_csv(args.out, "alpha1,theta1,payoff_A", rows)
    return 0


def cmd_best_response(args) -> int:
    idx = PLAYER_NAMES.index(args.player)
    key = PLAYER_KEYS[idx]
    if any(k == key for k, _ in args.strategy or []):
        raise ValueError(f"--strategy {key}:... has no effect with --player {args.player}: "
                         "--claimed sets that player's strategy")
    strategies = tuple(args.claimed if q == idx else COOPERATE for q in range(3))
    cfg = _config_from(args, strategies)
    print(json.dumps(analysis.best_response(cfg, idx, args.res), indent=2))
    return 0


def cmd_nash_check(args) -> int:
    print(json.dumps(analysis.nash_check(_config_from(args), args.res), indent=2))
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all(seed=args.seed, report_path=args.report)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        print("failed: " + ", ".join(r.name for r in failed))
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpd3",
        description="Three-player quantum Prisoner's Dilemma under correlated "
                    "dephasing noise: payoffs, sweeps, strategy surfaces and "
                    "equilibrium checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sweep_presets = tuple(name for name, fig in presets.FIGURES.items() if fig[0] is not None)
    surface_presets = tuple(name for name, fig in presets.FIGURES.items() if fig[0] is None)

    p_pay = sub.add_parser("payoff", help="evaluate one game and print payoffs as JSON")
    _add_game_flags(p_pay)
    p_pay.set_defaults(func=cmd_payoff)

    p_sweep = sub.add_parser("sweep", help="sweep p or mu and write a CSV table")
    _add_game_flags(p_sweep, "all cooperate, i.e. 0,0,0; with --preset, "
                             "A and B play pi/2,0,0 and C plays pi/2,pi/2,pi/2")
    p_sweep.add_argument("--var", choices=("p", "mu"), default=None,
                         help="variable to sweep (default: from preset)")
    p_sweep.add_argument("--grid", type=parse_grid, default=analysis.grid_points(0, 1, 21),
                         help="sweep grid start:stop:count (default: 0:1:21)")
    p_sweep.add_argument("--preset", choices=sweep_presets, default=None,
                         help="canned sweep profile (default: none)")
    p_sweep.add_argument("--out", default="-", metavar="FILE",
                         help="output CSV path, '-' for stdout (default: -)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_surf = sub.add_parser("surface", help="scan Alice's (alpha1, theta1) payoff surface")
    _add_game_flags(p_surf, "all play pi/2,0,0")
    p_surf.add_argument("--res", type=int, default=41,
                        help="grid resolution per axis (default: 41)")
    p_surf.add_argument("--preset", choices=surface_presets, default=None,
                        help="canned surface settings (default: none)")
    p_surf.add_argument("--out", default="-", metavar="FILE",
                        help="output CSV path, '-' for stdout (default: -)")
    p_surf.set_defaults(func=cmd_surface)

    p_br = sub.add_parser("best-response",
                          help="exhaustive one-player grid search against a claimed strategy")
    _add_game_flags(p_br)
    p_br.add_argument("--player", choices=PLAYER_NAMES, required=True,
                      help="which player deviates")
    p_br.add_argument("--claimed", type=parse_triple, required=True,
                      metavar="THETA,ALPHA,BETA",
                      help="the deviating player's strategy, compared against the grid; "
                           "it replaces --strategy for that player, which is refused")
    p_br.add_argument("--res", type=int, default=25,
                      help="grid resolution per axis (default: 25)")
    p_br.set_defaults(func=cmd_best_response)

    p_nash = sub.add_parser("nash-check",
                            help="check the configured profile for unilateral deviations")
    _add_game_flags(p_nash)
    p_nash.add_argument("--res", type=int, default=25,
                        help="grid resolution per axis (default: 25)")
    p_nash.set_defaults(func=cmd_nash_check)

    p_ver = sub.add_parser("verify", help="run the built-in verification suite")
    p_ver.add_argument("--seed", type=parse_seed, default=0,
                       help="seed for the randomized property checks (default: 0)")
    p_ver.add_argument("--report", default="closed_form_discrepancy.json", metavar="FILE",
                       help="where to persist the closed-form discrepancy report "
                            "(default: closed_form_discrepancy.json)")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, so a closed pipe is caught below
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"numerical invariant violation: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader is gone: fd 1 goes to devnull, so the final flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
