"""Replay the committed CLI corpus through ``cli.main``.

``cases.json`` holds, for each run, the command-line arguments and the exact
stdout, stderr and exit code that run gave.  Each run reads a file from
``machines/`` or ``games/`` in this directory.  The corpus covers:

- ``check-2cmm``: both variants, text and ``--json``, horizons 1, 2, 20,
  150 and 401, with and without a cheat turn, on the four audit-2cmm
  benchmark machines, ZEROLOOP and a machine whose initial state halts,
  plus two runs that exit 2, and ``LONG_PLAYS``: the integer variant over
  1000 turns, with ``--json``, on the looper and ZEROLOOP, whose running
  products never vanish;
- ``value --json`` on 72 arenas drawn by ``perfbench.workloads.random_arena``
  with ``random.Random(1000 n + 10 k + s)``, s = 0-8, at each n x k of
  ``ARENAS``, on the three larger ones of ``SCAN_ARENAS`` drawn the same
  way, and ``value`` as text on Fig. 1 of the paper;
- ``mpg --solve --json`` on 24 3+3 mean payoff games drawn by
  ``perfbench.workloads.random_mpg`` with ``random.Random(seed)``, seeds
  7000-7023 (from 7012 on, the weights are redrawn in 0-30 from the same
  stream after the draw), and on a 2+2 game with a weight of 1000;
- ``simulate`` on a pair whose product vanishes at step 2, and
  ``STRATEGY_ERRORS``: strategies on Fig. 1's arena and pair that exit 2
  naming a member index out of range or a text that is not an integer;
- ``FRONT_END``: the subcommands the runs above leave out (``translate``
  on Fig. 1, ``encode-2cmm`` on m1 in both variants, ``mpg`` without
  ``--solve``), ``decide --json`` for all six queries, the tolerance
  errors of ``value`` (``--tol 0``, ``--tol abc``), the horizon error
  ``main`` reports before a subcommand runs (``--turns 0``, alone and with
  ``--tol 0`` on ``simulate``, which reads no tolerance), ``check-2cmm``
  with ``--tol 0`` and ``translate`` with ``--tol abc``, which ignore the
  flag and exit 0, ``--json`` before the subcommand, and the three
  documents beyond the float range that exit 2;
- ``KNOWN_ANSWERS``: ``value`` on hand-built arenas whose values are 6, 3, 5
  and 12, one of them with 2^20 members a side, ``decide`` on Fig. 1's
  pair and on the two small sets above, a seeded random play of
  Fig. 1's pair over 300 turns, and three ``check-2cmm`` runs as text;
- ``REFUSED_INPUTS``: one run that exits 2 for each document or document
  kind the CLI refuses: a weight or a declared size that is no integer, a
  malformed transition, each broken rule of an arena's or a mean payoff
  game's graph, mismatched or missing row sets, a pair whose shapes do not
  chain, an unrecognised document, and the wrong kind for ``translate``, a
  set query of ``decide``, ``simulate`` and ``check-2cmm``;
- ``FAULTS``: runs that show a fault, each first stored as the program gave
  it before any fix: ``check-2cmm --cheat-turn 1`` as text, at 8 and 50
  turns in both variants, on ``twoloops.2cm`` (``q0: inc x -> q0`` and
  ``q1: inc x -> q1``), whose lie the integer audit cannot detect and the
  non-negative audit punishes with aggregate growth above 2, so each exits
  1; and five inputs that exit 2: an arena and a mean payoff game
  transition without ``"from"``, a positional strategy that leaves out a
  state the play reaches, and an arena and a mean payoff game edge into a
  state that does not exist; and ``check-2cmm --turns 6 --cheat-turn 2
  --json`` in both variants on ``liehalt.2cm`` (``q0: ifz x -> q0 else dec
  -> q1``, ``q1: stop``), which never halts on its own: the lie enters the
  stop state, and the integer audit reported it as the machine's halt;
- ``PAIR_VALUES``: ``value --json`` on Fig. 1's pair and on a pair whose
  saddle product is nilpotent (value 0), the only runs that print the
  certificate vectors of both ends of a value bracket.

Runs are only ever appended, so a stored run keeps its position.

    PYTHONPATH=src python tests/golden/replay.py            # compare
    PYTHONPATH=src python tests/golden/replay.py --rewrite  # store outputs

Comparing prints each run whose output differs and exits 1 if any does.
``--rewrite`` stores what the importable package prints now, first printing
``moved:`` and the arguments of each run that differs from the stored run at
its position, then their count, then ``added:`` and the arguments of each
run past the stored ones; a change that moves an expected output says which
and why.  A plan with fewer runs than are stored makes ``--rewrite`` exit 1
without writing.  Only the standard library and the package are needed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CASES = os.path.join(HERE, "cases.json")
MACHINES = ("looper", "m1", "m2", "m3", "zeroloop", "haltonce")
# (turns, cheat turn, --json) per machine and variant
RUNS = (
    (1, None, False),
    (2, 1, True),
    (20, None, False),
    (20, 2, True),
    (150, None, True),
    (150, 3, False),
    (401, None, False),
    (401, None, True),
)
ERRORS = (
    ["--turns", "0"],
    ["--turns", "2", "--cheat-turn", "5"],
)
# faithful integer plays that never annihilate, 1000 turns each
LONG_PLAYS = ("looper", "zeroloop")
ARENAS = ((2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3), (2, 4))
# larger arenas drawn the same way, whose saddle checks meet non-aligned
# blocks on Despot's side: 8 x 2 at s = 2 and 5, 6 x 3 at s = 4
SCAN_ARENAS = ("arena_8x2_8022", "arena_8x2_8025", "arena_6x3_6034")
MPGS = [f"mpg_{seed}" for seed in range(7000, 7024)] + ["mpg_2x2_w1000"]
# (document, Despot's strategy, Tribune's); Fig. 1's Despot set has 2 members
STRATEGY_ERRORS = (
    ("fig1_pair", "constant:9", "constant:0"),
    ("fig1_pair", "constant:-3", "constant:0"),
    ("fig1_pair", "constant:x", "constant:0"),
    ("fig1_pair", "constant:0", "random:x"),
    ("fig1", "random:x", "constant:a"),
    ("fig1", "constant:a", "random:1.5"),
)
# the set queries run on a positive 1 x 1 set with members 2 and 3, whose
# jsr is 3 and jssr 2, and on a non-positive set; the pair queries on
# Fig. 1's translated pair
FRONT_END = (
    ["translate", "games/fig1.json"],
    ["encode-2cmm", "machines/m1.2cm"],
    ["encode-2cmm", "machines/m1.2cm", "--variant", "nonnegative"],
    ["mpg", "games/mpg_7000.json"],
    ["decide", "--json", "--query", "jsr<", "--alpha", "3", "games/positive.json"],
    ["decide", "--json", "--query", "jsr<=", "--alpha", "3", "games/positive.json"],
    ["decide", "--json", "--query", "jssr>", "--alpha", "19/10", "games/positive.json"],
    ["decide", "--json", "--query", "jssr>=", "--alpha", "5/2", "games/positive.json"],
    ["decide", "--json", "--query", "jsr<=", "--alpha", "1/2", "games/unit.json"],
    ["decide", "--json", "--query", "jssr>", "--alpha", "1/2", "games/unit.json"],
    ["decide", "--json", "--query", "mm<", "--alpha", "357/100", "games/fig1_pair.json"],
    ["decide", "--json", "--query", "mm>=", "--alpha", "7/2", "games/fig1_pair.json"],
    ["value", "games/fig1.json", "--tol", "0"],
    ["value", "games/fig1.json", "--tol", "abc"],
    ["simulate", "games/vanishing_pair.json", "--turns", "0"],
    ["simulate", "games/vanishing_pair.json", "--tol", "0", "--turns", "0"],
    ["check-2cmm", "machines/m1.2cm", "--tol", "0"],
    ["translate", "games/fig1.json", "--tol", "abc"],
    ["--json", "value", "games/fig1.json"],
    ["--json", "decide", "--query", "jsr<", "--alpha", "7/2", "games/positive.json"],
    ["mpg", "--solve", "games/heavy.json"],
    ["value", "games/near_range.json"],
    ["value", "games/pair600.json"],
)
# runs whose answers a reader can check by hand: arenas whose values are
# exactly 6 (tied members), 3 (Tribune's saddle product is diag(2, 3)), 5
# (20 disjoint games, 2^20 members a side) and 12 (a Perron vector off the
# dyadic grid), mm< on Fig. 1's pair, whose certificate commits Despot to the
# saddle member, a seeded random play of that pair, the audits on m1 and the
# looper, and the set queries on the non-positive and the positive set
KNOWN_ANSWERS = (
    ["value", "games/weighted.json"],
    ["value", "games/reducible.json"],
    ["value", "games/separable.json"],
    ["value", "--json", "games/value12.json"],
    ["decide", "--query", "mm<", "--alpha", "357/100", "games/fig1_pair.json"],
    ["simulate", "games/fig1_pair.json", "--despot", "random:3", "--tribune", "constant:2",
     "--turns", "300"],
    ["check-2cmm", "--variant", "nonnegative", "--turns", "400", "machines/m1.2cm"],
    ["check-2cmm", "--variant", "integer", "--turns", "200", "--cheat-turn", "1",
     "machines/m1.2cm"],
    ["check-2cmm", "--variant", "integer", "--turns", "150", "machines/looper.2cm"],
    ["decide", "--query", "jssr>", "--alpha", "1/2", "games/unit.json"],
    ["decide", "--query", "jssr>=", "--alpha", "1/2", "games/unit.json"],
    ["decide", "--json", "--query", "jssr>=", "--alpha", "1/2", "games/unit.json"],
    ["decide", "--query", "jsr<=", "--alpha", "3", "games/positive.json"],
    ["decide", "--query", "jsr<=", "--alpha", "29/10", "games/positive.json"],
    ["decide", "--query", "jssr>", "--alpha", "19/10", "games/positive.json"],
    ["decide", "--query", "jssr>", "--alpha", "2", "games/positive.json"],
)
# documents and document kinds the CLI refuses, each with exit code 2 and one
# error line naming the broken precondition
REFUSED_INPUTS = (
    ["value", "games/fractional.json"],
    ["value", "games/list_transition.json"],
    ["decide", "--query", "jsr<", "--alpha", "100", "games/rows29.json"],
    ["value", "games/error_arena_one_side.json"],
    ["value", "games/error_arena_shared_state.json"],
    ["value", "games/error_arena_alphabet.json"],
    ["value", "games/error_arena_unknown_state.json"],
    ["value", "games/error_arena_tribune_edge.json"],
    ["mpg", "games/error_mpg_one_side.json"],
    ["mpg", "games/error_mpg_shared_state.json"],
    ["mpg", "games/error_mpg_unknown_state.json"],
    ["mpg", "games/error_mpg_tribune_edge.json"],
    ["decide", "--query", "jsr<", "--alpha", "3", "games/error_dimensions.json"],
    ["value", "games/error_structure.json"],
    ["value", "games/error_top_level.json"],
    ["decide", "--query", "jsr<", "--alpha", "3", "games/error_no_row_sets.json"],
    ["decide", "--query", "jsr<", "--alpha", "3", "games/error_row_lengths.json"],
    ["decide", "--query", "jsr<", "--alpha", "3", "games/error_row_set_lengths.json"],
    ["decide", "--query", "mm<", "--alpha", "3", "games/error_shapes.json"],
    ["translate", "games/fig1_pair.json"],
    ["decide", "--query", "jsr<", "--alpha", "3", "games/fig1_pair.json"],
    ["simulate", "games/positive.json"],
    ["check-2cmm", "games/fig1.json"],
)
# runs that show a fault, each first stored as the program gave it: a lie on
# turn 1 on a machine of two self-loops, on which both audits' checks fail
# (exit 1), five inputs refused with a message that named no missing key
# or unknown state (exit 2), and both audits of a lie into a stop state on a
# machine that never halts (exit 0)
FAULTS = (
    ["check-2cmm", "machines/twoloops.2cm", "--variant", "integer", "--turns", "8",
     "--cheat-turn", "1"],
    ["check-2cmm", "machines/twoloops.2cm", "--variant", "integer", "--turns", "50",
     "--cheat-turn", "1"],
    ["check-2cmm", "machines/twoloops.2cm", "--variant", "nonnegative", "--turns", "8",
     "--cheat-turn", "1"],
    ["check-2cmm", "machines/twoloops.2cm", "--variant", "nonnegative", "--turns", "50",
     "--cheat-turn", "1"],
    ["value", "games/error_arena_missing_key.json"],
    ["mpg", "games/error_mpg_missing_key.json"],
    ["simulate", "games/fig1.json", "--despot", "positional:d1=a", "--tribune", "constant:a"],
    ["value", "games/error_arena_unknown_target.json"],
    ["mpg", "games/error_mpg_unknown_target.json"],
    ["check-2cmm", "machines/liehalt.2cm", "--variant", "integer", "--turns", "6",
     "--cheat-turn", "2", "--json"],
    ["check-2cmm", "machines/liehalt.2cm", "--variant", "nonnegative", "--turns", "6",
     "--cheat-turn", "2", "--json"],
)
# value brackets with both certificates: Fig. 1's pair, and a pair whose
# saddle product is nilpotent, so its radius is 0
PAIR_VALUES = (
    ["value", "--json", "games/fig1_pair.json"],
    ["value", "--json", "games/vanishing_pair.json"],
)


def plan() -> list[list[str]]:
    """The argument lists of the corpus, machine paths relative to HERE."""
    runs = []
    for machine in MACHINES:
        path = f"machines/{machine}.2cm"
        for variant in ("integer", "nonnegative"):
            for turns, cheat, as_json in RUNS:
                # 401 turns in one format per variant keeps the replay short
                if turns == 401 and as_json != (variant == "integer"):
                    continue
                args = ["check-2cmm", path, "--variant", variant, "--turns", str(turns)]
                if cheat is not None:
                    args += ["--cheat-turn", str(cheat)]
                if as_json:
                    args.append("--json")
                runs.append(args)
    runs += [["check-2cmm", "machines/m2.2cm"] + extra for extra in ERRORS]
    runs += [
        ["check-2cmm", f"machines/{machine}.2cm", "--variant", "integer", "--turns", "1000",
         "--json"]
        for machine in LONG_PLAYS
    ]
    for n, k in ARENAS:
        for s in range(9):
            runs.append(["value", "--json", f"games/arena_{n}x{k}_{1000 * n + 10 * k + s}.json"])
    runs += [["value", "--json", f"games/{name}.json"] for name in SCAN_ARENAS]
    runs.append(["value", "games/fig1.json"])
    runs += [["mpg", "--solve", "--json", f"games/{name}.json"] for name in MPGS]
    for turns in ("8", "2"):
        args = ["simulate", "games/vanishing_pair.json", "--turns", turns]
        args += ["--despot", "constant:0", "--tribune", "constant:0"]
        runs += [args, args + ["--json"]]
    for doc, despot, tribune in STRATEGY_ERRORS:
        runs.append(
            ["simulate", f"games/{doc}.json", "--despot", despot, "--tribune", tribune]
        )
    tail = FRONT_END + KNOWN_ANSWERS + REFUSED_INPUTS + FAULTS + PAIR_VALUES
    return runs + [list(args) for args in tail]


def run(args: list[str]) -> dict:
    """One in-process CLI run: its stdout, stderr and exit code."""
    from entropygames import cli

    out, err = io.StringIO(), io.StringIO()
    resolved = [
        os.path.join(HERE, a) if a.startswith(("machines/", "games/")) else a for a in args
    ]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(resolved)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def stored() -> list[dict]:
    with open(CASES, encoding="utf-8") as fh:
        return json.load(fh)


def differences(cases: list[dict]) -> list[str]:
    """The argument lines of every stored run whose output differs now."""
    return [
        " ".join(case["args"])
        for case in cases
        if run(case["args"]) != {key: case[key] for key in ("stdout", "stderr", "exit")}
    ]


def rewrite() -> int:
    """Store every run of the plan, first naming each run that differs from
    the stored run at its position and then each run past the stored ones.
    A plan shorter than the stored corpus would drop runs: write nothing
    and return 1."""
    runs = plan()
    old = stored() if os.path.exists(CASES) else []
    if len(runs) < len(old):
        print(
            f"the plan has {len(runs)} runs but {len(old)} are stored; "
            "runs are appended, never removed",
            file=sys.stderr,
        )
        return 1
    cases = [{"args": args, **run(args)} for args in runs]
    moved = [" ".join(new["args"]) for new, case in zip(cases, old) if new != case]
    for line in moved:
        print(f"moved: {line}")
    print(f"{len(moved)} runs moved")
    for new in cases[len(old) :]:
        print(f"added: {' '.join(new['args'])}")
    with open(CASES, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(cases)} runs to {CASES}")
    return 0


def main(argv: list[str]) -> int:
    if argv == ["--rewrite"]:
        return rewrite()
    if argv:
        print("usage: replay.py [--rewrite]", file=sys.stderr)
        return 2
    cases = stored()
    bad = differences(cases)
    for line in bad:
        print(f"differs: {line}")
    print(f"{len(bad)} of {len(cases)} stored runs differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
