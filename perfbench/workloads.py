"""The benchmark workloads: inputs made from a seed, the timed call of
each operation, and the check of its output against an oracle.

Every workload is a closed loop with one client: the benchmark calls the
next operation only after the previous one returned.  Inputs, files and
oracle answers are all made during set-up; an operation only calls the
program.  Each workload repeats a fixed schedule of operations whose mix
of instance classes is set here.  The random arenas and mean payoff games
are drawn once from fixed streams; the seed renames their states and
shuffles the schedule.  It keeps the order of the states, because that
order sets the order members are enumerated in and so the path of the
bisection and of the saddle scan: listing the states in a new order moved
the cost of one instance by up to a third, and with the few instances that
fit in a pass it moved a run's figures by more than their bounds.  Fresh
instances per seed would do the same.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles
from oracles import bits

# Fig. 1 of the paper, the running example (value (3 + sqrt(17)) / 2).
FIG1 = (
    ("d1", "d2", "d3"),
    ("t1", "t2", "t3"),
    ("a", "b"),
    (
        ("d1", "a", "t1", 1), ("d1", "a", "t2", 1), ("d1", "b", "t1", 1),
        ("d1", "b", "t2", 1), ("d2", "a", "t1", 1), ("d2", "a", "t3", 1),
        ("d2", "b", "t2", 1), ("d3", "a", "t2", 1), ("d3", "a", "t3", 1),
        ("d3", "b", "t2", 1), ("d3", "b", "t3", 1), ("t1", "a", "d1", 1),
        ("t1", "b", "d2", 1), ("t2", "a", "d1", 1), ("t2", "a", "d2", 1),
        ("t2", "a", "d3", 1), ("t2", "b", "d1", 1), ("t2", "b", "d2", 1),
        ("t2", "b", "d3", 1), ("t3", "a", "d3", 1), ("t3", "b", "d2", 1),
    ),
)

# Acceptance criterion 11: one machine that never halts, three that do.
MACHINES = {
    "looper": "q0: inc x -> q0\n",
    "m1": "q0: inc x -> q1\nq1: stop\n",
    "m2": "q0: inc x -> q1\nq1: ifz x -> q2 else dec -> q1\nq2: stop\n",
    "m3": (
        "q0: ifz x -> q1 else dec -> q0\nq1: inc x -> q2\n"
        "q2: ifz x -> q3 else dec -> q2\nq3: stop\n"
    ),
}

HERE = os.path.dirname(os.path.abspath(__file__))
TOL = Fraction(1, 10**6)  # the CLI's default tolerance
RHO_SLACK = 1e-6  # relative; numpy radii of defective products are this rough


class Mismatch(Exception):
    """An output that disagrees with the oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@dataclass
class Op:
    """One operation: ``run`` is the timed call, ``check`` validates its
    return value and gives the largest certificate size in bits."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], int]


@dataclass
class Workload:
    ops: list[Op]
    warmup: Op
    # span names that must fire in a traced pass of this workload
    required: tuple[str, ...] = ()


# -- input generators ---------------------------------------------------------


def random_arena(rng: random.Random, n: int, k: int):
    """n despot and n tribune states, k actions, 1-3 targets per action
    with weights 1-3.  A state's actions are redrawn until their rows
    differ, so every instance of a size has k^n members per player."""
    despot = tuple(f"d{i}" for i in range(n))
    tribune = tuple(f"t{i}" for i in range(n))
    actions = tuple(f"a{j}" for j in range(k))
    transitions = []
    for frm, targets in [(d, tribune) for d in despot] + [(t, despot) for t in tribune]:
        while True:
            drawn = [
                {to: rng.randint(1, 3) for to in rng.sample(targets, rng.randint(1, min(3, n)))}
                for _ in actions
            ]
            if len({tuple(sorted(d.items())) for d in drawn}) == k:
                break
        for action, row in zip(actions, drawn):
            transitions.extend((frm, action, to, w) for to, w in sorted(row.items()))
    return despot, tribune, actions, tuple(transitions)


def rename(rng: random.Random, despot, tribune, transitions):
    """The same game with new state names that keep the states' order,
    listed or sorted.  Transitions are (from, [action,] to, weight)."""
    names = {s: f"{s}_{rng.randrange(16**6):06x}" for s in despot + tribune}
    return (
        tuple(names[s] for s in despot),
        tuple(names[s] for s in tribune),
        tuple((names[t[0]], *t[1:-2], names[t[-2]], t[-1]) for t in transitions),
    )


def random_mpg(rng: random.Random):
    """3+3 mean payoff game, two successors per state (so 8 members per
    player), weights 0-3."""
    despot = ("d0", "d1", "d2")
    tribune = ("t0", "t1", "t2")
    transitions = []
    for frm, targets in [(d, tribune) for d in despot] + [(t, despot) for t in tribune]:
        for to in rng.sample(targets, 2):
            transitions.append((frm, to, rng.randint(0, 3)))
    return despot, tribune, tuple(transitions)


def arena_doc(despot, tribune, actions, transitions) -> dict:
    return {
        "despot_states": list(despot),
        "tribune_states": list(tribune),
        "alphabet": list(actions),
        "transitions": [
            {"from": f, "action": a, "to": t, "weight": w} for f, a, t, w in transitions
        ],
    }


def mpg_doc(despot, tribune, transitions) -> dict:
    return {
        "despot_states": list(despot),
        "tribune_states": list(tribune),
        "transitions": [{"from": f, "to": t, "weight": w} for f, t, w in transitions],
    }


def mpg_weighted(despot, tribune, transitions):
    """The weighted entropy game of a mean payoff game, built the way the
    reduction in the paper defines it: edge (f, t, w) becomes action "f>t"
    of multiplicity 2^w."""
    seen: dict = {}
    out = []
    for frm, to, w in transitions:
        bump = seen.get((frm, to), 0)
        seen[(frm, to)] = bump + 1
        action = f"{frm}>{to}" if bump == 0 else f"{frm}>{to}#{bump}"
        out.append((frm, action, to, 2**w))
    return out


def strategy_rows(states, others, transitions, choice) -> list[list[int]]:
    """Matrix a positional strategy (state -> action) induces."""
    index = {s: j for j, s in enumerate(others)}
    rows = []
    for state in states:
        row = [0] * len(others)
        for frm, action, to, weight in transitions:
            if frm == state and action == choice[state]:
                row[index[to]] += weight
        rows.append(row)
    return rows


def write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def oracle_tables(workdir: str, games) -> list:
    """The numpy oracle's table of rho(A E) for each (a_row_sets,
    e_row_sets) pair, computed in a child process (see oracles.py)."""
    jobs = os.path.join(workdir, "oracle-jobs.json")
    out = os.path.join(workdir, "oracle-tables.json")
    write_json(jobs, [list(game) for game in games])
    subprocess.run(
        [sys.executable, os.path.join(HERE, "oracles.py"), jobs, out],
        check=True, timeout=120,
    )
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def check_saddle(a_rows, e_rows, table, a0, e0) -> float:
    """Check that the strategy matrices (a0, e0) are members and a saddle of
    the oracle's table; returns the game's value from the table."""
    try:
        i0, j0 = oracles.member_index(a_rows, a0), oracles.member_index(e_rows, e0)
    except ValueError:
        raise Mismatch("a strategy matrix is not a member of its set") from None
    value = oracles.minimax(table)
    row_gap, col_gap = oracles.saddle_gaps(table, i0, j0)
    slack = RHO_SLACK * max(1.0, value)
    expect(row_gap <= slack and col_gap <= slack, "strategy pair is not a saddle")
    return value


# -- solve-cli ----------------------------------------------------------------


def solve_cli(seed: int, workdir: str, tiny: bool = False) -> Workload:
    from entropygames import cli

    rng = random.Random(f"solve-cli:{seed}")
    counts = {"arena3x2": 0, "mpg": 1} if tiny else {"arena3x2": 1, "mpg": 2}
    out = os.path.join(workdir, "solve-out.json")

    games = []
    for kind, count in (("fig1", 1), *counts.items()):
        for i in range(count):
            if kind == "mpg":
                despot, tribune, edges = rename(
                    rng, *random_mpg(random.Random(f"solve-cli:mpg:{i}"))
                )
                transitions = mpg_weighted(despot, tribune, edges)
                doc = mpg_doc(despot, tribune, edges)
                mean_payoff = float(oracles.mpg_value(despot, tribune, edges))
            else:
                spec = FIG1 if kind == "fig1" else random_arena(
                    random.Random(f"solve-cli:3x2:{i}"), 3, 2
                )
                despot, tribune, transitions = rename(rng, spec[0], spec[1], spec[3])
                doc = arena_doc(despot, tribune, spec[2], transitions)
                mean_payoff = None
            path = write_json(os.path.join(workdir, f"{kind}-{i}.json"), doc)
            games.append((kind, despot, tribune, transitions, path, mean_payoff))
    row_sets = [oracles.arena_row_sets(d, t, tr) for _, d, t, tr, _, _ in games]
    tables = oracle_tables(workdir, row_sets)

    def solve_op(game, rows, table):
        kind, despot, tribune, transitions, path, mean_payoff = game
        a_rows, e_rows = rows
        if kind == "mpg":
            args, key = ["mpg", path, "--solve", "--json", "-o", out], "entropy_game_value"
        else:
            args, key = ["value", path, "--json", "-o", out], "value"

        def run():
            return cli.main(args)

        def check(code):
            expect(code == 0, f"exit code {code}")
            doc = read_json(out)
            if mean_payoff is not None:
                expect(doc["mean_payoff_lower"] - 1e-9 <= mean_payoff
                       <= doc["mean_payoff_upper"] + 1e-9,
                       f"mean payoff {mean_payoff} outside the reported bracket")
            lower = Fraction(doc[key]["lower"])
            upper = Fraction(doc[key]["upper"])
            expect(upper - lower <= TOL, "interval wider than the tolerance")
            a0 = strategy_rows(despot, tribune, transitions, doc["despot_strategy"])
            e0 = strategy_rows(tribune, despot, transitions, doc["tribune_strategy"])
            value = check_saddle(a_rows, e_rows, table, a0, e0)
            slack = RHO_SLACK * max(1.0, value)
            expect(float(lower) - slack <= value <= float(upper) + slack,
                   f"value {value} outside [{float(lower)}, {float(upper)}]")
            return max(bits(lower), bits(upper))

        return Op(kind, run, check)

    ops = [solve_op(*args) for args in zip(games, row_sets, tables)]
    rng.shuffle(ops)
    translate = ["translate", games[0][4], "-o", out]

    def warm_check(code):
        expect(code == 0, f"translate exit code {code}")
        return 0

    return Workload(
        ops=ops,
        warmup=Op("translate", lambda: cli.main(translate), warm_check),
        required=(
            "cli.main", "io.load_document", "games.solve", "games.arena_to_iru",
            "games.find_saddle", "decide.value_bisection", "decide.decide_mm_lt",
            "decide.decide_mm_ge", "decide.decide_jsr_lt", "decide.decide_jssr_ge",
            "iru.right_product", "lp.lp_max", "linalg.mat_mul",
            "linalg.spectral_radius", "kernels.power_enclosure",
        ),
    )


# -- saddle-grid --------------------------------------------------------------


def saddle_grid(seed: int, workdir: str, tiny: bool = False) -> Workload:
    from entropygames import games as program

    rng = random.Random(f"saddle-grid:{seed}")
    sizes = {(3, 2): 1} if tiny else {(3, 2): 16, (4, 2): 5, (3, 3): 3}
    specs = [("fig1", *FIG1)]  # the warm-up
    for (n, k), count in sizes.items():
        for i in range(count):
            despot, tribune, actions, transitions = random_arena(
                random.Random(f"saddle-grid:{n}x{k}:{i}"), n, k
            )
            despot, tribune, transitions = rename(rng, despot, tribune, transitions)
            specs.append((f"arena{n}x{k}", despot, tribune, actions, transitions))
    row_sets = [oracles.arena_row_sets(d, t, tr) for _, d, t, _, tr in specs]
    tables = oracle_tables(workdir, row_sets)

    def chain_op(spec, rows, table):
        kind, despot, tribune, actions, transitions = spec
        arena = program.Arena(despot, tribune, actions, transitions)
        a_rows, e_rows = rows

        def run():
            tr = program.arena_to_iru(arena)
            sp = program.find_saddle(tr.a_set, tr.e_set)
            ok = program.verify_saddle(tr.a_set, tr.e_set, sp.despot_matrix, sp.tribune_matrix)
            return (
                sp, ok,
                tr.despot_strategy_for(sp.despot_matrix),
                tr.tribune_strategy_for(sp.tribune_matrix),
            )

        def check(result):
            sp, ok, despot_strategy, tribune_strategy = result
            expect(ok, "verify_saddle rejected the saddle find_saddle returned")
            a0, e0 = sp.despot_matrix.data, sp.tribune_matrix.data
            value = check_saddle(a_rows, e_rows, table, a0, e0)
            radius = sp.radius
            slack = RHO_SLACK * max(1.0, value)
            expect(float(radius.lower) - slack <= value <= float(radius.upper) + slack,
                   f"value {value} outside the saddle radius enclosure")
            expect(strategy_rows(despot, tribune, transitions, despot_strategy.choice)
                   == [list(row) for row in a0],
                   "despot strategy does not induce the saddle matrix")
            expect(strategy_rows(tribune, despot, transitions, tribune_strategy.choice)
                   == [list(row) for row in e0],
                   "tribune strategy does not induce the saddle matrix")
            witness = radius.witness_lower.entries + radius.witness_upper.entries
            return max(bits(x) for x in witness + (radius.lower, radius.upper))

        return Op(kind, run, check)

    ops = [chain_op(*args) for args in zip(specs, row_sets, tables)]
    warmup = ops.pop(0)
    rng.shuffle(ops)
    return Workload(
        ops=ops,
        warmup=warmup,
        required=(
            "games.arena_to_iru", "games.find_saddle", "games.verify_saddle",
            "linalg.mat_mul", "linalg.spectral_radius", "kernels.power_enclosure",
        ),
    )


# -- audit-2cmm ---------------------------------------------------------------


def _interpreter_program(text: str) -> dict:
    program = {}
    for line in text.splitlines():
        state, _, body = line.partition(":")
        words = body.replace("->", " ").split()
        if words[0] == "inc":
            program[state] = ("inc", words[1], words[2])
        elif words[0] == "ifz":
            program[state] = ("jzdec", words[1], words[2], words[5])
        else:
            program[state] = ("stop",)
    return program


def audit_2cmm(seed: int, workdir: str, tiny: bool = False) -> Workload:
    from entropygames import cli

    rng = random.Random(f"audit-2cmm:{seed}")
    out = os.path.join(workdir, "audit-out.json")
    paths = {}
    halting = {}
    for name, text in MACHINES.items():
        paths[name] = os.path.join(workdir, f"{name}.txt")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
        halting[name] = oracles.machine_halting_step(_interpreter_program(text), "q0", 1000)

    def audit_op(machine, variant, turns, cheat):
        h = halting[machine]
        args = ["check-2cmm", paths[machine], "--variant", variant, "--turns", str(turns),
                "--json", "-o", out]
        if cheat is not None:
            args += ["--cheat-turn", str(cheat)]

        def run():
            return cli.main(args)

        def check(code):
            expect(code == 0, f"exit code {code}")
            doc = read_json(out)
            expect(doc["ok"] and doc["turns"] == turns, "audit reported failure")
            sizes = [bits(Fraction(f["value"])) for f in doc.get("flashes", ())]
            sizes += [bits(Fraction(s["ratio"])) for s in doc.get("segments", ())]
            if variant == "integer":
                expect(doc["faithful_invariant_ok"], "faithful invariant broken")
                cheated = bool(doc["cheat_played"])
                if not cheated:
                    expect(doc["machine_halted_turn"] == h, "halting turn differs")
                    expect((doc["annihilation_turn"] is not None) == (h is not None),
                           "annihilation disagrees with halting")
                else:
                    expect(doc["annihilation_turn"] is not None, "cheat went unpunished")
                    expect(any(d["turn"] == cheat for d in doc["deviations"]),
                           "cheat not reported as a deviation")
            else:
                expect(doc["magnitude_ok"] and doc["segment_bounds_ok"],
                       "magnitude or segment bound broken")
                if cheat is None:
                    expect(doc["halted_turn"] == h, "halting turn differs")
                must_punish = h is not None or cheat is not None
                expect(doc["punished"] == must_punish, "punishment disagrees with the oracle")
                if doc["punished"]:
                    expect(doc["aggregate_below_two"], "punished play grows at rate >= 2")
            return max(sizes, default=0)

        return Op(f"{machine}-{variant}", run, check)

    ops = []
    for variant, lo, hi in (("integer", 140, 160), ("nonnegative", 380, 420)):
        if tiny:
            lo, hi = 20, 20
        for machine in MACHINES:
            ops.append(audit_op(machine, variant, rng.randint(lo, hi), None))
            if halting[machine] is not None:
                cheat = rng.randint(1, halting[machine])
                ops.append(audit_op(machine, variant, rng.randint(lo, hi), cheat))
    rng.shuffle(ops)
    return Workload(
        ops=ops,
        warmup=audit_op("m2", "integer", 20, None),
        required=(
            "cli.main", "io.load_document", "reductions.run_scripted_play",
            "reductions.check_nonneg_punishment", "linalg.mat_mul", "linalg.vec_mat",
        ),
    )


WORKLOADS = {
    "solve-cli": solve_cli,
    "saddle-grid": saddle_grid,
    "audit-2cmm": audit_2cmm,
}
