"""Command line front end.

Subcommands wrap the library one to one: translate (arena to matrix sets),
value (solve a game), decide (threshold queries with certificates),
simulate (traces and growth estimates), encode-2cmm / check-2cmm (counter
machine gadgets), and mpg (mean payoff game reduction).

Each subparser names its handler with ``set_defaults(run=...)``; a handler
takes the parsed namespace and returns ``(exit code, document, lines)``: the
result as a JSON-ready dict and as lines of text.  A command whose result is
itself a document file (translate, encode-2cmm, mpg without --solve) returns
None for the dict and the file's text as its one line.  Both renderings
format the same values, computed once, so building the one that is not
printed cannot fail where the printed one would not.  No handler reads
--json or -o: ``main`` is the one place a result is written.  It writes
``json.dumps(document, indent=2)`` under --json when there is a document and
the joined lines otherwise, to the -o file or to standard output, adding a
final newline only when the text has none.  The write runs inside the same
``try`` as the handler, so a file that cannot be opened exits 2 like any
other error.

``main`` checks any --turns before the handler runs.  Only value and mpg
--solve read --tol, so they parse and check it themselves, before anything
else; every other subcommand accepts any --tol and ignores it.

Exit codes: 0 for success (and for decide: the query holds), 1 for a false
verdict or a failed check, 2 for any error.  With --json every command
prints exactly one JSON document, on standard output or in the -o file."""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from . import io
from .decide import (
    decide_jsr_le,
    decide_jsr_lt,
    decide_jssr_ge,
    decide_jssr_gt,
    decide_mm_ge,
    decide_mm_lt,
    value_bisection,
)
from .games import (
    MpgArena,
    arena_to_iru,
    eg_payoff_entropy,
    forest_counts,
    mpg_to_weighted_eg,
    mpg_value,
    simulate_payoff,
    solve,
)
from .iru import IruSet
from .minsky import TwoCounterMachine
from .reductions import (
    INTEGER,
    NONNEG,
    check_nonneg_punishment,
    encode_integer,
    encode_nonneg,
    run_scripted_play,
)

QUERIES = {
    "jsr<": ("set", decide_jsr_lt),
    "jsr<=": ("set", decide_jsr_le),
    "jssr>": ("set", decide_jssr_gt),
    "jssr>=": ("set", decide_jssr_ge),
    "mm<": ("pair", decide_mm_lt),
    "mm>=": ("pair", decide_mm_ge),
}


def _interval_doc(lower, upper) -> dict:
    return {
        "lower": io.format_rational(lower),
        "upper": io.format_rational(upper),
        "lower_float": float(lower),
        "upper_float": float(upper),
        "width": io.format_rational(Fraction(upper) - Fraction(lower)),
    }


def _certificate_doc(cert) -> dict | None:
    if cert is None:
        return None
    doc = {
        "kind": cert.kind,
        "vector": [io.format_rational(x) for x in cert.vector],
    }
    if cert.chosen_matrix is not None:
        doc["chosen_matrix"] = [
            [io.format_rational(x) for x in row] for row in cert.chosen_matrix.data
        ]
    return doc


def _strategy_text(strategy) -> str:
    return ", ".join(f"{s}={a}" for s, a in sorted(strategy.choice.items()))


def cmd_translate(args):
    kind, value = io.load_document(args.input)
    if kind != io.ARENA:
        raise ValueError(f"translate expects an arena document, got {kind}")
    tr = arena_to_iru(value)
    return 0, None, [io.dumps_document((tr.a_set, tr.e_set))]


def _tolerance(args) -> Fraction:
    """The --tol flag as a positive rational."""
    tol = io.parse_rational(args.tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return tol


def cmd_value(args):
    tol = _tolerance(args)
    kind, value = io.load_document(args.input)
    if kind == io.ARENA:
        sol = solve(value, tol)
        vi, bits = sol.value, sol.entropy_bits()
        doc = {
            "value": _interval_doc(vi.lower, vi.upper),
            "entropy_bits": bits,
            "despot_strategy": dict(sol.despot_strategy.choice),
            "tribune_strategy": dict(sol.tribune_strategy.choice),
            "bisections": vi.bisections,
        }
        lines = [
            f"value in [{float(vi.lower):.10f}, {float(vi.upper):.10f}]"
            f" (width {float(vi.width()):.3e})",
            f"entropy {bits:.10f} bits per quarter-move",
            f"despot strategy: {_strategy_text(sol.despot_strategy)}",
            f"tribune strategy: {_strategy_text(sol.tribune_strategy)}",
        ]
        return 0, doc, lines
    if kind == io.PAIR:
        vi = value_bisection(*value, tol)
        doc = {
            "value": _interval_doc(vi.lower, vi.upper),
            "bisections": vi.bisections,
            "lower_certificate": _certificate_doc(vi.lower_certificate),
            "upper_certificate": _certificate_doc(vi.upper_certificate),
        }
        line = (
            f"value in [{float(vi.lower):.10f}, {float(vi.upper):.10f}]"
            f" (width {float(vi.width()):.3e}, {vi.bisections} bisections)"
        )
        return 0, doc, [line]
    raise ValueError(f"value expects an arena or pair document, got {kind}")


def cmd_decide(args):
    query = args.query
    shape, decide = QUERIES[query]
    alpha = io.parse_rational(args.alpha)
    kind, value = io.load_document(args.input)
    if shape == "set":
        if kind != io.MATRIX_SET:
            raise ValueError(f"query {query} expects a matrix-set document, got {kind}")
        answer, cert = decide(value, alpha)
    else:
        if kind != io.PAIR:
            raise ValueError(f"query {query} expects a pair document, got {kind}")
        answer, cert = decide(*value, alpha)
    doc = {
        "query": query,
        "alpha": io.format_rational(alpha),
        "answer": answer,
        "certificate": _certificate_doc(cert),
    }
    lines = [f"{query} {doc['alpha']}: {'true' if answer else 'false'}"]
    if cert is not None:
        lines.append("certificate vector: " + " ".join(doc["certificate"]["vector"]))
        if cert.chosen_matrix is not None:
            lines.append("committed matrix:")
            lines += ["  " + " ".join(row) for row in doc["certificate"]["chosen_matrix"]]
    return (0 if answer else 1), doc, lines


def _strategy_int(text: str, rest: str, what: str) -> int:
    """``rest``, the part of strategy ``text`` after its colon, as an int;
    ValueError naming the strategy and the text otherwise."""
    try:
        return int(rest)
    except ValueError:
        raise ValueError(f"strategy {text!r}: {what} {rest!r} is not an integer") from None


def _parse_strategy(text: str, seed: int):
    head, sep, rest = text.partition(":")
    if head == "positional" and sep:
        table = {}
        for item in rest.split(","):
            state, eq, action = item.partition("=")
            if not eq:
                raise ValueError(f"bad positional assignment {item!r}")
            table[state.strip()] = action.strip()
        return table
    if head == "constant" and sep:
        return ("constant", rest)
    if head == "script" and sep:
        return ("script", rest)
    if head == "random":
        return ("random", _strategy_int(text, rest, "seed") if rest else seed)
    raise ValueError(
        f"unrecognised strategy {text!r}; use positional:s=a,..., constant:a, "
        "script:letters or random:seed"
    )


def _parse_matrix_chooser(text: str, s: IruSet, seed: int):
    """A simulate_payoff source from a matrix game strategy: constant:INDEX
    fixes the member at INDEX in itertools.product order (negative indices
    count from the end), random:SEED draws members.  No member list is
    formed: randrange(size) draws as choice from one would.  An INDEX
    outside -size..size-1 raises ValueError naming it and the size."""
    head, sep, rest = text.partition(":")
    if head == "constant" and sep:
        index = _strategy_int(text, rest, "index")
        if not -s.size <= index < s.size:
            raise ValueError(
                f"strategy {text!r}: index {index} is out of range for a set of "
                f"{s.size} members, indices {-s.size}..{s.size - 1}"
            )
        return _member_at(s, range(s.size)[index])
    if head == "random":
        rng = random.Random(_strategy_int(text, rest, "seed") if rest else seed)
        return lambda turn, history: _member_at(s, rng.randrange(s.size))
    raise ValueError(
        f"unrecognised matrix strategy {text!r}; use constant:INDEX or random:SEED"
    )


def _member_at(s: IruSet, index: int):
    """The member at 0 <= index < size, the last row set varying fastest."""
    choice = []
    for rs in reversed(s.row_sets):
        index, k = divmod(index, rs.size)
        choice.append(k)
    return s.member(choice[::-1])


def cmd_simulate(args):
    kind, value = io.load_document(args.input)
    if kind == io.ARENA:
        despot = _parse_strategy(args.despot, args.seed)
        tribune = _parse_strategy(args.tribune, args.seed + 1)
        levels = forest_counts(value, despot, tribune, args.turns)
        # even levels count despot states, odd levels tribune states
        sides = (value.despot_states, value.tribune_states)
        doc = {
            "despot_states": list(value.despot_states),
            "tribune_states": list(value.tribune_states),
            "levels": [[io.format_rational(x) for x in v.entries] for v in levels],
            "level_sums": [io.format_rational(sum(v.entries)) for v in levels],
        }
        lines = []
        for k, (entries, total) in enumerate(zip(doc["levels"], doc["level_sums"])):
            cells = ", ".join(f"{s}={x}" for s, x in zip(sides[k % 2], entries))
            lines.append(f"half-turn {k:3d}: {cells}   total {total}")
        return 0, doc, lines
    if kind == io.PAIR:
        a_set, e_set = value
        report = simulate_payoff(
            _parse_matrix_chooser(args.despot, a_set, args.seed),
            _parse_matrix_chooser(args.tribune, e_set, args.seed + 1),
            steps=args.turns,
        )
        # a product that vanished by the run's last quarter has a tail of 0,
        # which has no entropy
        entropy = eg_payoff_entropy(report) if report.tail > 0 else None
        doc = {
            "steps": report.steps,
            "growth_tail": report.tail,
            "entropy_bits": entropy,
            "zeroed_at": report.zeroed_at,
            "per_turn": list(report.per_turn),
        }
        line = (
            f"growth estimate {report.tail:.6f} after {report.steps} steps"
            + (f" (entropy {entropy:.6f} bits per quarter-move)" if entropy is not None else "")
            + (f"; product vanished at step {report.zeroed_at}" if report.zeroed_at else "")
        )
        return 0, doc, [line]
    raise ValueError(f"simulate expects an arena or pair document, got {kind}")


def _load_machine(args) -> TwoCounterMachine:
    kind, value = io.load_document(args.input)
    if kind != io.MACHINE:
        raise ValueError(f"expected a machine description, got {kind}")
    return value


def cmd_encode_2cmm(args):
    m = _load_machine(args)
    encoded = encode_integer(m) if args.variant == INTEGER else encode_nonneg(m)
    if encoded.degenerate:
        print(
            "warning: degenerate machine, every state halts and Eve has no matrices",
            file=sys.stderr,
        )
    return 0, None, [io.dumps_document(encoded)]


def cmd_check_2cmm(args):
    m = _load_machine(args)
    variant = args.variant
    if variant == INTEGER:
        g = encode_integer(m)
        rep = run_scripted_play(g, m, args.turns, args.cheat_turn)
        deviated = bool(rep.deviations)
        ok = rep.faithful_invariant_ok and (
            rep.annihilation_turn is not None if deviated else True
        )
        doc = {
            "variant": variant,
            "turns": rep.turns,
            "faithful_invariant_ok": rep.faithful_invariant_ok,
            "machine_halted_turn": rep.machine_halted_turn,
            "deviations": [
                {"turn": t, "played": p, "expected": e} for t, p, e in rep.deviations
            ],
            "flashes": [
                {"turn": t, "coordinate": c, "value": io.format_rational(x)}
                for t, c, x in rep.flashes
            ],
            "undetectable": list(rep.undetectable),
            "annihilation_turn": rep.annihilation_turn,
            "cheat_played": rep.cheat_played,
            "ok": ok,
        }
        lines = [
            f"integer variant, {rep.turns} turns",
            f"faithful invariant: {'held' if rep.faithful_invariant_ok else 'BROKEN'}",
            f"machine halted: "
            + (f"turn {rep.machine_halted_turn}" if rep.machine_halted_turn else "no"),
            f"deviations: {len(rep.deviations)}"
            + (f", undetectable: {list(rep.undetectable)}" if rep.undetectable else ""),
            "product annihilated: "
            + (f"turn {rep.annihilation_turn}" if rep.annihilation_turn else "no"),
            f"check {'passed' if ok else 'failed'}",
        ]
    else:
        g = encode_nonneg(m)
        rep = check_nonneg_punishment(g, m, args.turns, args.cheat_turn)
        ok = rep.magnitude_ok and rep.segment_bounds_ok and (
            rep.aggregate_below_two if rep.punished else True
        )
        doc = {
            "variant": variant,
            "turns": rep.turns,
            "halted_turn": rep.halted_turn,
            "punished": rep.punished,
            "magnitude_ok": rep.magnitude_ok,
            "segments": [
                {
                    "start": s.start_turn,
                    "end": s.end_turn,
                    "turns": s.turns,
                    "ratio": io.format_rational(s.ratio),
                    "within_bound": s.within_bound,
                }
                for s in rep.segments
            ],
            "segment_bounds_ok": rep.segment_bounds_ok,
            "aggregate_growth": rep.aggregate_growth,
            "aggregate_below_two": rep.aggregate_below_two,
            "ok": ok,
        }
        lines = [
            f"non-negative variant, {rep.turns} turns",
            f"machine halted: " + (f"turn {rep.halted_turn}" if rep.halted_turn else "no"),
            f"punished: {'yes' if rep.punished else 'no'}"
            + (f" ({len(rep.segments)} resets)" if rep.segments else ""),
            f"magnitude structure: {'held' if rep.magnitude_ok else 'BROKEN'}",
            f"segment growth bounds: {'held' if rep.segment_bounds_ok else 'BROKEN'}",
            f"aggregate growth {rep.aggregate_growth:.4f} per turn"
            + (" (< 2)" if rep.aggregate_below_two else " (NOT < 2)"),
            f"check {'passed' if ok else 'failed'}",
        ]
    return (0 if ok else 1), doc, lines


def cmd_mpg(args):
    tol = _tolerance(args) if args.solve else None
    kind, value = io.load_document(args.input)
    if kind != io.MPG:
        raise ValueError(f"mpg expects a mean payoff game document, got {kind}")
    if not args.solve:
        return 0, None, [io.dumps_document(mpg_to_weighted_eg(value))]
    (lo, hi), sol = mpg_value(value, tol)
    doc = {
        "mean_payoff_lower": lo,
        "mean_payoff_upper": hi,
        "entropy_game_value": _interval_doc(sol.value.lower, sol.value.upper),
        "despot_strategy": dict(sol.despot_strategy.choice),
        "tribune_strategy": dict(sol.tribune_strategy.choice),
    }
    lines = [
        f"mean payoff value in [{lo:.10f}, {hi:.10f}]",
        f"despot strategy: {_strategy_text(sol.despot_strategy)}",
        f"tribune strategy: {_strategy_text(sol.tribune_strategy)}",
    ]
    return 0, doc, lines


def _add_shared_flags(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # the same flags exist on the top-level parser (with real defaults) and
    # on every subparser (suppressed defaults), so they are accepted on
    # either side of the subcommand without the subparser wiping out values
    # parsed before it
    d = (lambda v: v) if top_level else (lambda v: argparse.SUPPRESS)
    parser.add_argument(
        "--tol", default=d("1/1000000"), help="tolerance as p/q (default 1/1000000)"
    )
    parser.add_argument("--seed", type=int, default=d(0), help="seed for random strategies")
    if top_level:
        parser.add_argument(
            "--json", action="store_true", help="emit one JSON document on stdout"
        )
    else:
        parser.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    parser.add_argument(
        "-o", "--output", default=d(None), help="write the result to a file"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parse_args keeps no
    state between calls, as every flag has an immutable default."""
    parser = argparse.ArgumentParser(
        prog="entropygames",
        description="Solve entropy games and matrix multiplication games "
        "over independent-row-uncertainty sets.",
    )
    _add_shared_flags(parser, top_level=True)
    common = argparse.ArgumentParser(add_help=False)
    _add_shared_flags(common, top_level=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help)
        p.add_argument("input")
        p.set_defaults(run=run)
        return p

    command("translate", cmd_translate, "arena to matrix-set pair")
    command("value", cmd_value, "solve a game from an arena or pair file")

    p = command("decide", cmd_decide, "threshold query with certificate")
    p.add_argument("--query", required=True, choices=sorted(QUERIES))
    p.add_argument("--alpha", required=True, help="threshold as p/q")

    p = command("simulate", cmd_simulate, "trace plays and estimate growth")
    p.add_argument("--despot", default="random:", help="despot/adam strategy")
    p.add_argument("--tribune", default="random:", help="tribune/eve strategy")
    p.add_argument("--turns", type=int, default=10)

    p = command("encode-2cmm", cmd_encode_2cmm, "encode a counter machine as a game")
    p.add_argument("--variant", choices=[INTEGER, NONNEG], default=INTEGER)

    p = command("check-2cmm", cmd_check_2cmm, "audit the encoding's invariants by play")
    p.add_argument("--variant", choices=[INTEGER, NONNEG], default=INTEGER)
    p.add_argument("--turns", type=int, default=50)
    p.add_argument("--cheat-turn", type=int, default=None)

    p = command("mpg", cmd_mpg, "mean payoff game to weighted entropy game")
    p.add_argument("--solve", action="store_true", help="also solve and report log2 value")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "turns", 1) < 1:
            raise ValueError("horizon must be at least 1")
        code, doc, lines = args.run(args)
        text = json.dumps(doc, indent=2) if args.json and doc is not None else "\n".join(lines)
        text += "" if text.endswith("\n") else "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (ValueError, KeyError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
