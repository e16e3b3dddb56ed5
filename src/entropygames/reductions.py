"""Machine-to-game encodings behind the undecidability results.

Both encoders turn a two-counter machine into a matrix multiplication game
in which Eve's matrices enact machine transitions on a vector of named
coordinates (row vectors acting on the right) and Adam's matrices audit the
run.  Faithful play keeps an exact arithmetic invariant; the only way Eve
can misreport the machine is to break it in a way Adam's audit matrices can
convert into growth suppression.

Integer variant: coordinates are the states plus x, y, One, E, Neg.  A lie
drives some coordinate negative; Adam flashes it into Neg, tops it up to -1
with adjustment steps, adds it to E and reinitialises, which zeroes the
whole product exactly.

Non-negative variant: coordinates are the states plus x+, x-, y+, y-, with
counter value c carried as the ratio pair (2^(n+c), 2^(n-c)) at time scale
2^n.  A lie leaves some coordinate lagging at least a factor 2 behind the
scale; Adam's reset matrices restart the clock from the lagging coordinate,
capping long-run growth strictly below 2 on punished plays.

One builder, ``_program_matrix``, makes every matrix of both encoders, and
the two audits share one pre-play check (``_start_play``) and one machine
run (``_EveSimulation``), which decides Eve's every move.  Eve's moves are
public, so Adam reads his expected move off her run before she moves: a
move other than that one is a deviation.  Only two moves can be: the lie on
the cheat turn, and the move Eve is forced to play once the machine has
halted.  A halted machine has no move of its own, so it forces move 0, and
the first such turn is the halt unless the move entering the stop state was
recorded first.  A cheat is a lie only while the machine has a move of its
own: on a halted turn Eve plays the forced move, as an honest Eve would.
The integer audit counts a deviation only on a turn Adam audits, that is,
outside a punishment and before the product vanishes.

The halt is the first turn on which the machine's own run halts.  A lie
takes the run off that path until ``reset()`` (Adam's Init) puts it back,
and no halt is recorded while it is off: a lie into a stop state is not the
machine's halt.  The non-negative audit never follows a lie, so only the
integer audit's run leaves the path.

The integer audit's verdict is whether the running product Omega of the
matrices played becomes zero.  Its vector v starts at the start vector s
and Omega at the identity, and both take the same factors, so v = s Omega
on every turn: while v is not zero, neither is Omega.  The audit therefore
multiplies only v on each move and keeps the matrices played as Omega's
factors.  It forms Omega the first time a turn ends with v = 0, multiplies
it on every move from then on, and stops at the first turn whose Omega is
zero.  This rests on v = s Omega alone, not on the shape of any encoder's
matrices, so it holds for loaded and tampered encodings too.  In
``encode_integer`` Init is e_E^T s, of rank one, so Omega = e_E^T v from
turn 1 on: Omega is formed once, at the annihilation, and a play that never
annihilates never forms it until its report's ``final_product`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .linalg import Matrix, _combine, mat_mul, vec_mat
from .minsky import INC, JZDEC, STOP, TwoCounterMachine

INTEGER = "integer"
NONNEG = "nonnegative"


@dataclass(frozen=True)
class EncodedMmg:
    """A machine encoded as a matrix multiplication game.

    ``adam_matrices`` and ``eve_matrices`` pair human-readable move names
    with the matrices; ``start_vector`` is the row vector the play acts on.
    ``degenerate`` flags machines whose every state halts, which give Eve an
    empty move set."""

    variant: str
    dimension: int
    coordinate_labels: tuple[str, ...]
    adam_matrices: tuple[tuple[str, Matrix], ...]
    eve_matrices: tuple[tuple[str, Matrix], ...]
    start_vector: tuple[Fraction, ...]
    degenerate: bool


def machine_transitions(m: TwoCounterMachine):
    """Eve's move list in encoder order: per state, an increment move, or
    the zero branch followed by the decrement branch.  Each entry is
    (kind, state, counter, target) with kind inc/zero/dec."""
    moves = []
    for q in m.states:
        ins = m.program[q]
        if ins.kind == INC:
            moves.append(("inc", q, ins.counter, ins.target))
        elif ins.kind == JZDEC:
            moves.append(("zero", q, ins.counter, ins.target))
            moves.append(("dec", q, ins.counter, ins.else_target))
    return moves


_MOVE_PREFIX = {"inc": "I", "zero": "K", "dec": "D"}


def _move_name(kind: str, state: str, counter: str, target: str) -> str:
    return f"{_MOVE_PREFIX[kind]}[{state}->{target},{counter}]"


def _program_matrix(index: dict[str, int], *steps) -> Matrix:
    """The matrix of a straight-line program on the labelled coordinates of
    a row vector: row i is the image of basis row i.  Each step is a
    simultaneous assignment {target: {source: coeff}}, and the steps run in
    order; an empty combination assigns 0, and a label the step leaves out
    keeps its value.  The program runs on all basis rows at once, over the
    integer columns: cols[t][i] is coordinate t of row i's image.  The
    integer rows are kept as the matrix's ``_int_rows`` and ``_int_cols``,
    as ``mat_mul`` keeps an integral product's, so no audit rebuilds them
    from the Fractions."""
    dim = len(index)
    cols = [[int(i == t) for i in range(dim)] for t in range(dim)]
    for step in steps:
        new = [
            (index[t], _combine(combo.values(), [cols[index[s]] for s in combo], dim))
            for t, combo in step.items()
        ]
        for t, col in new:
            cols[t] = col
    rows = tuple(zip(*cols))
    zero = Fraction(0)
    matrix = Matrix._of_fractions(
        tuple(tuple(Fraction(x) if x else zero for x in row) for row in rows)
    )
    # the cached_properties read the instance dict first
    matrix.__dict__["_int_rows"] = tuple((row, 1) for row in rows)
    matrix.__dict__["_int_cols"] = (rows, (1,) * dim)
    return matrix


def encode_integer(m: TwoCounterMachine) -> EncodedMmg:
    """Integer-matrix encoding; see the module docstring for the audit
    mechanism.  Eve's matrices are three assignments run in turn: leave the
    source state, enter the target state, and update the counter (add One,
    negate, or subtract One for inc, zero-test and decrement).  Run in turn,
    a self-loop such as ``q0: inc x -> q0`` leaves its state token as it
    is."""
    labels = list(m.states) + ["x", "y", "One", "E", "Neg"]
    index = {lab: i for i, lab in enumerate(labels)}
    dim = len(labels)

    counter_updates = {
        "inc": lambda c: {c: 1, "One": 1},
        "zero": lambda c: {c: -1},
        "dec": lambda c: {c: 1, "One": -1},
    }
    eve = []
    for kind, state, counter, target in machine_transitions(m):
        matrix = _program_matrix(
            index,
            {state: {state: 1, "One": -1}},
            {target: {target: 1, "One": 1}},
            {counter: counter_updates[kind](counter)},
        )
        eve.append((_move_name(kind, state, counter, target), matrix))

    start = m.initial_state
    restart = {lab: {"E": 1} if lab in (start, "One", "E") else {} for lab in labels}
    adam = [("Init", _program_matrix(index, restart)), ("Id", _program_matrix(index))]
    for lab in list(m.states) + ["x", "y"]:
        adam.append((f"F[{lab}]", _program_matrix(index, {"Neg": {lab: 1}})))
    adam.append(("A", _program_matrix(index, {"Neg": {"Neg": 1, "One": 1}})))
    adam.append(("P", _program_matrix(index, {"E": {"E": 1, "Neg": 1}})))

    v0 = [Fraction(0)] * dim
    for lab in (start, "One", "E"):
        v0[index[lab]] = Fraction(1)
    return EncodedMmg(
        variant=INTEGER,
        dimension=dim,
        coordinate_labels=tuple(labels),
        adam_matrices=tuple(adam),
        eve_matrices=tuple(eve),
        start_vector=tuple(v0),
        degenerate=not eve,
    )


def encode_nonneg(m: TwoCounterMachine) -> EncodedMmg:
    """Non-negative encoding; counter c at time scale 2^n rides as the pair
    (2^(n+c), 2^(n-c)).  Each of Eve's matrices is one simultaneous
    assignment: the state token doubles and moves, the touched counter
    coordinate quadruples (inc: plus, dec: minus), the zero branch swaps the
    tested pair at weight 2, and everything else doubles except the stalled
    mate of a touched counter."""
    labels = list(m.states) + ["x+", "x-", "y+", "y-"]
    index = {lab: i for i, lab in enumerate(labels)}
    dim = len(labels)
    counter_labels = ["x+", "x-", "y+", "y-"]

    def transition_step(state, target, counter, kind):
        step = {target: {state: 2}}
        if target != state:
            step[state] = {}
        other = "y" if counter == "x" else "x"
        step[other + "+"] = {other + "+": 2}
        step[other + "-"] = {other + "-": 2}
        plus, minus = counter + "+", counter + "-"
        if kind == "inc":
            step[plus] = {plus: 4}
            # minus stalls: the step leaves it out
        elif kind == "zero":
            step[plus] = {minus: 2}
            step[minus] = {plus: 2}
        else:
            step[minus] = {minus: 4}
            # plus stalls
        return step

    eve = []
    for kind, state, counter, target in machine_transitions(m):
        matrix = _program_matrix(index, transition_step(state, target, counter, kind))
        eve.append((_move_name(kind, state, counter, target), matrix))

    start = m.initial_state
    # a reset restarts the clock from its source: the start state and every
    # counter coordinate take the source's value, and the other states 0
    adam = [("Id", _program_matrix(index))]
    for name, source in (("x", {"x+": 1}), ("y", {"y+": 1}), ("q", dict.fromkeys(m.states, 1))):
        reset = {q: {} for q in m.states}
        reset.update((lab, source) for lab in [start] + counter_labels)
        adam.append((f"P[{name}]", _program_matrix(index, reset)))

    v0 = [Fraction(0)] * dim
    v0[index[start]] = Fraction(1)
    for lab in counter_labels:
        v0[index[lab]] = Fraction(1)
    return EncodedMmg(
        variant=NONNEG,
        dimension=dim,
        coordinate_labels=tuple(labels),
        adam_matrices=tuple(adam),
        eve_matrices=tuple(eve),
        start_vector=tuple(v0),
        degenerate=not eve,
    )


def _identity_moves(g: EncodedMmg) -> frozenset[str]:
    """The names of Adam's moves whose matrix is the identity, read off the
    integer rows.  Playing one leaves the vector and the product as they
    are (v I = v, Omega I = Omega), so the audits skip its products."""
    n = g.dimension
    identity = tuple((tuple(int(i == j) for j in range(n)), 1) for i in range(n))
    return frozenset(name for name, matrix in g.adam_matrices if matrix._int_rows == identity)


def _log(q: Fraction) -> float:
    """Natural log of a positive Fraction of any size, without overflow."""
    return math.log(q.numerator) - math.log(q.denominator)


class _EveSimulation:
    """The machine run of an audit, which decides Eve's every move
    (``play``).  Each audit keeps one run and Adam reads his expected move,
    the machine's own, off it before Eve moves.  A deviation is a move
    other than that one.  A halted machine has no move of its own: Eve is
    forced to play move 0, a deviation, and the first such turn is the
    run's ``halted_turn`` unless a move entering a stop state set it first.
    On ``cheat_turn`` Eve lies, but only while the machine has a move of its
    own and another move exists; ``cheat_played`` says whether she did.
    Following the lie puts the run ``off_path`` until ``reset``, and no halt
    is recorded while it is.

    ``run_scripted_play`` applies every move played, so the run follows the
    formal semantics of a deviation too and stays in step with the public
    vector: the integer zero move negates its counter.  A deviation Adam
    punishes ends with Init, which restarts the run before he audits again.
    ``check_nonneg_punishment``, whose zero move swaps the counter pair and
    so keeps the counter, applies only faithful moves, and every deviation
    draws a reset.  A faithful zero move meets a zero counter, where
    negating the counter and leaving it agree."""

    def __init__(self, machine: TwoCounterMachine, moves, cheat_turn: int | None):
        self.machine = machine
        self.moves = moves
        self.move_index = {(kind, state): k for k, (kind, state, _, _) in enumerate(moves)}
        self.cheat_turn = cheat_turn
        self.cheat_played = None if cheat_turn is None else False
        self.halted_turn = None
        self.turn = 0
        self.reset()

    def reset(self):
        self.state = self.machine.initial_state
        self.counters = {"x": 0, "y": 0}
        self.off_path = False

    def play(self, turn: int) -> tuple[int, int | None]:
        """Eve's move on ``turn`` and the machine's own, ``(played,
        expected)``.  A halted machine has none (``expected`` is None): Eve
        plays move 0, and the turn is the halt unless the run is off the
        machine's path.  On the cheat turn she lies only while the machine
        has a move of its own: the wrong branch of a zero test, otherwise
        the first other move in encoder order."""
        self.turn = turn
        ins = self.machine.program[self.state]
        if ins.kind == STOP:
            if self.halted_turn is None and not self.off_path:
                self.halted_turn = turn
            return 0, None
        if ins.kind == INC:
            expected = self.move_index[("inc", self.state)]
        else:
            branch = "zero" if self.counters[ins.counter] == 0 else "dec"
            expected = self.move_index[(branch, self.state)]
        if turn != self.cheat_turn or len(self.moves) == 1:
            return expected, expected
        self.cheat_played = True
        if ins.kind == JZDEC:
            return self.move_index[("dec" if branch == "zero" else "zero", self.state)], expected
        return int(expected == 0), expected

    def apply(self, move_id: int):
        """Follow move ``move_id``.  Following the lie takes the run off the
        machine's path; on the path, a move entering a stop state is the
        halt."""
        kind, state, counter, target = self.moves[move_id]
        self.state = target
        if kind == "inc":
            self.counters[counter] += 1
        elif kind == "dec":
            self.counters[counter] -= 1
        elif kind == "zero":
            self.counters[counter] = -self.counters[counter]
        if self.cheat_played and self.turn == self.cheat_turn:
            self.off_path = True
        if (
            self.halted_turn is None
            and not self.off_path
            and self.machine.program[target].kind == STOP
        ):
            self.halted_turn = self.turn


_AUDIT_VARIANTS = {
    INTEGER: "scripted plays are defined for the integer variant",
    NONNEG: "punishment audits are defined for the non-negative variant",
}


def check_dimension(g: EncodedMmg, source: str = "encoding") -> None:
    """Raise ValueError naming ``source`` unless the coordinate labels, the
    start vector and every matrix's rows and columns all match the declared
    dimension.  Otherwise an audit's products stop at the shorter row and
    audit some other game."""
    n = g.dimension
    sizes = [
        (len(g.coordinate_labels), "coordinate labels"),
        (len(g.start_vector), "start vector"),
    ]
    for name, matrix in g.adam_matrices + g.eve_matrices:
        sizes.append((matrix.rows, f"rows of matrix {name}"))
        sizes.append((matrix.cols, f"columns of matrix {name}"))
    for size, what in sizes:
        if size != n:
            raise ValueError(f"{source} declares dimension {n} but has {size} {what}")


def _start_play(g: EncodedMmg, m: TwoCounterMachine, variant: str, horizon: int, cheat_turn):
    """Check the preconditions both audits share, raising ValueError at the
    first one broken: the variant, a move for Eve, a positive horizon, a
    cheat turn (when given) in 1..horizon, one Eve matrix per machine move,
    and sizes that match the declared dimension (``check_dimension``).
    Returns the coordinate index and a fresh machine run."""
    if g.variant != variant:
        raise ValueError(_AUDIT_VARIANTS[variant])
    if g.degenerate:
        raise ValueError("degenerate encoding: Eve has no moves")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if cheat_turn is not None and not 1 <= cheat_turn <= horizon:
        raise ValueError("cheat turn must be in 1..horizon")
    moves = machine_transitions(m)
    if len(moves) != len(g.eve_matrices):
        raise ValueError("encoding does not match the machine")
    check_dimension(g)
    index = {lab: i for i, lab in enumerate(g.coordinate_labels)}
    return index, _EveSimulation(m, moves, cheat_turn)


def _product(factors, dim: int) -> Matrix:
    """The identity of size dim times each factor in turn, by ``mat_mul``."""
    product = Matrix.identity(dim)
    for factor in factors:
        product = mat_mul(product, factor)
    return product


@dataclass(frozen=True)
class ScriptedPlayReport:
    """Transcript of a scripted integer-variant play.

    ``faithful_invariant_ok`` covers the turns before the first deviation:
    the vector must equal the encoding of the machine configuration, built
    by coordinate label: 1 on the current state, the counters' values on x
    and y, One = E = 1, and 0 on every other coordinate (Neg and the other
    states).  ``flashes`` records (turn, coordinate, value) for each audit
    trigger; ``undetectable`` lists deviations that left no negative
    coordinate, which the audit cannot punish.  ``cheat_played`` is None
    when no cheat was requested and False when the requested turn offered
    no lie: the machine had halted, so Eve played the forced move, or it
    had no other move.

    ``factors`` are the matrices of the running product Omega in the order
    played: every move whose matrix is not the identity, up to the
    annihilation turn or the end of the play.  ``final_product`` is their
    product, Omega at the end of the play.  A play that formed Omega hands
    it on; otherwise it is formed from ``factors`` when first read and then
    kept.  It is not a field, so equality compares the factors instead."""

    turns: int
    adam_moves: tuple[str, ...]
    eve_moves: tuple[str, ...]
    vectors: tuple[tuple[Fraction, ...], ...]
    faithful_invariant_ok: bool
    deviations: tuple[tuple[int, str, str | None], ...]
    flashes: tuple[tuple[int, str, Fraction], ...]
    undetectable: tuple[int, ...]
    machine_halted_turn: int | None
    annihilation_turn: int | None
    cheat_played: bool | None
    factors: tuple[Matrix, ...] = field(repr=False)

    @cached_property
    def final_product(self) -> Matrix:
        return _product(self.factors, len(self.vectors[0]))


def run_scripted_play(
    g: EncodedMmg,
    m: TwoCounterMachine,
    max_turns: int,
    cheat_turn: int | None = None,
) -> ScriptedPlayReport:
    """Play the integer-variant game with Adam running his audit script and
    Eve simulating the machine (forced to keep moving after a halt, and
    optionally told to cheat at ``cheat_turn``), each move chosen by
    ``_EveSimulation.play``.

    Adam opens with Init, monitors with Id, and on observing a move other
    than the machine run's next one flashes the negative coordinate, adjusts
    it up to -1, punishes and reinitialises; that zeroes the running product
    exactly.  Deviations that leave no negative coordinate are reported as
    undetectable.  ``cheat_turn``, when given, must be in 1..max_turns.

    Products that cannot change the play are not formed.  A move whose
    matrix is the identity leaves v and the running product Omega as they
    are.  v is multiplied on every other move, but Omega is not: since
    v = s Omega for the start vector s, Omega is formed (``_product``) only
    at the end of the first turn that leaves v = 0, and multiplied on every
    move from then on.  ``annihilation_turn`` is the first turn whose Omega
    is zero; from then on nothing is multiplied, since Omega and v stay
    zero.  A play that never formed Omega leaves it to the report's
    ``final_product``, formed on first read."""
    index, sim = _start_play(g, m, INTEGER, max_turns, cheat_turn)
    labels = g.coordinate_labels
    v = list(g.start_vector)
    factors: list[Matrix] = []
    omega = None  # formed once v is zero
    adam_moves: list[str] = []
    eve_moves: list[str] = []
    vectors: list[tuple[Fraction, ...]] = []
    deviations = []
    flashes = []
    undetectable = []
    schedule = ["Init"]
    invariant_ok = True
    annihilation_turn = None
    adam_by_name = dict(g.adam_matrices)
    identity_moves = _identity_moves(g)

    for turn in range(1, max_turns + 1):
        # Adam's move
        adam_name = schedule.pop(0) if schedule else "Id"
        if annihilation_turn is None and adam_name not in identity_moves:
            adam_matrix = adam_by_name[adam_name]
            v = list(vec_mat(v, adam_matrix))
            factors.append(adam_matrix)
            if omega is not None:
                omega = mat_mul(omega, adam_matrix)
        adam_moves.append(adam_name)
        if adam_name == "P" and v[index["E"]] != 0:
            # the punish step is built to cancel E exactly; anything else
            # means the audit arithmetic is broken
            raise RuntimeError(
                f"punish step left E = {v[index['E']]} instead of 0 at turn {turn}"
            )
        if adam_name == "Init":
            sim.reset()

        # Eve's move
        choice, expected = sim.play(turn)
        eve_name, eve_matrix = g.eve_matrices[choice]
        if annihilation_turn is None:
            v = list(vec_mat(v, eve_matrix))
            factors.append(eve_matrix)
            if omega is not None:
                omega = mat_mul(omega, eve_matrix)
        eve_moves.append(eve_name)
        sim.apply(choice)

        # Adam's audit; once the product is zero the game is decided and
        # nothing remains to monitor
        if not schedule and annihilation_turn is None and choice != expected:
            deviations.append(
                (turn, eve_name, g.eve_matrices[expected][0] if expected is not None else None)
            )
            negatives = [i for i, val in enumerate(v) if val < 0]
            if negatives:
                target = negatives[0]
                value = v[target]
                flashes.append((turn, labels[target], value))
                schedule += [f"F[{labels[target]}]"] + ["A"] * (int(-value) - 1) + ["P", "Init"]
            else:
                undetectable.append(turn)

        vectors.append(tuple(v))
        if annihilation_turn is None:
            # v = s Omega: Omega can vanish only on a turn that leaves v = 0
            if omega is None and not any(v):
                omega = _product(factors, g.dimension)
            if omega is not None and not any(any(nums) for nums, _ in omega._int_rows):
                annihilation_turn = turn

        # while the play is faithful, v must encode the machine's configuration
        if not deviations and invariant_ok:
            want = [0] * len(v)
            for lab, value in {sim.state: 1, **sim.counters, "One": 1, "E": 1}.items():
                want[index[lab]] = value
            invariant_ok = v == want

    report = ScriptedPlayReport(
        turns=max_turns,
        adam_moves=tuple(adam_moves),
        eve_moves=tuple(eve_moves),
        vectors=tuple(vectors),
        faithful_invariant_ok=invariant_ok,
        deviations=tuple(deviations),
        flashes=tuple(flashes),
        undetectable=tuple(undetectable),
        machine_halted_turn=sim.halted_turn,
        annihilation_turn=annihilation_turn,
        cheat_played=sim.cheat_played,
        factors=tuple(factors),
    )
    if omega is not None:
        # the cached_property reads the instance dict first
        report.__dict__["final_product"] = omega
    return report


@dataclass(frozen=True)
class PunishmentSegment:
    """One stretch of play ending in a reset: ``turns`` is its length f,
    ``ratio`` the exact norm growth across it, and the bound to meet is
    2^(f-1)."""

    start_turn: int
    end_turn: int
    turns: int
    ratio: Fraction
    within_bound: bool


@dataclass(frozen=True)
class NonnegPunishmentReport:
    """Outcome of auditing a non-negative-variant play.

    ``magnitude_ok`` records that after each faithful turn the vector
    equals the encoding of the machine configuration, built by coordinate
    label: k faithful turns into a segment whose unit is the start state's
    coordinate at its reset (1 before any), the current state holds
    unit * 2^k, counter c the pair (unit * 2^(k+c), unit * 2^(k-c)) on
    c+ and c-, and every other coordinate 0.  When resets happen, each
    completed segment's growth must stay within 2^(f-1) and the whole
    play's per-turn growth strictly below 2.
    ``aggregate_below_two`` is decided exactly (final norm < start norm *
    2^turns); ``aggregate_growth`` is the per-turn growth as a float, for
    display."""

    turns: int
    adam_moves: tuple[str, ...]
    eve_moves: tuple[str, ...]
    halted_turn: int | None
    punished: bool
    magnitude_ok: bool
    segments: tuple[PunishmentSegment, ...]
    segment_bounds_ok: bool
    aggregate_growth: float
    aggregate_below_two: bool
    final_norm: Fraction


def _sparse_rows(name: str, matrix: Matrix) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each integer row of the matrix as (column, coefficient) pairs for its
    non-zero entries only, the form ``_sparse_vec_mat`` takes; ValueError
    naming the matrix if an entry is not an integer."""
    rows, dens = matrix._int_cols
    if any(d != 1 for d in dens):
        raise ValueError(f"matrix {name} has a non-integral entry")
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in rows)


def _sparse_vec_mat(v: list[int], rows, width: int) -> list[int]:
    """The integer row product v m, with m given by ``_sparse_rows``,
    skipping zero entries of v."""
    acc = [0] * width
    for x, row in zip(v, rows):
        if x:
            for j, y in row:
                acc[j] += x * y
    return acc


def check_nonneg_punishment(
    g: EncodedMmg,
    m: TwoCounterMachine,
    horizon: int,
    cheat_turn: int | None = None,
) -> NonnegPunishmentReport:
    """Audit the non-negative encoding over a bounded horizon.

    Eve simulates the machine (forced to keep playing after a halt,
    optionally cheating once), each move chosen by ``_EveSimulation.play``
    as in ``run_scripted_play``; Adam watches with Id and answers any
    contradiction with the matching reset: P[q] for a state lie, P[x]/P[y]
    for a counter lie.  The report collects the exact per-segment growth
    ratios and whether faithful play kept the exact encoding.
    ``cheat_turn``, when given, must be in 1..horizon.

    Every matrix and the start vector of this encoding are integral, so v
    stays a list of Python ints.  Each matrix is read once from its integer
    rows (set by ``_program_matrix``) as sparse rows: (column, coefficient)
    pairs for the non-zero entries, at most five a row in this encoding.
    Each move is then ``_sparse_vec_mat`` over them.  A non-integral entry
    raises ValueError naming its matrix (or the start vector) before any
    move is played.  A move whose matrix is the identity leaves v as it is
    (v I = v), so its product is not formed.  The encoding check compares
    those ints, with powers of two as shifts; only the norms at the start,
    at each reset and at the end become Fractions."""
    index, sim = _start_play(g, m, NONNEG, horizon, cheat_turn)
    dim = g.dimension
    adam_rows = {name: _sparse_rows(name, matrix) for name, matrix in g.adam_matrices}
    eve_rows = [_sparse_rows(name, matrix) for name, matrix in g.eve_matrices]
    if any(x.denominator != 1 for x in g.start_vector):
        raise ValueError("the start vector has a non-integral entry")
    v = [x.numerator for x in g.start_vector]
    adam_moves: list[str] = []
    eve_moves: list[str] = []
    schedule: list[str] = []
    magnitude_ok = True
    segments: list[PunishmentSegment] = []
    segment_start = 1
    start_norm = segment_base_norm = Fraction(sum(v))
    unit = 1
    k = 0  # faithful turns into the segment
    pair_at = [(c, index[c + "+"], index[c + "-"]) for c in ("x", "y")]
    identity_moves = _identity_moves(g)

    for turn in range(1, horizon + 1):
        adam_name = schedule.pop(0) if schedule else "Id"
        if adam_name not in identity_moves:
            v = _sparse_vec_mat(v, adam_rows[adam_name], dim)
        adam_moves.append(adam_name)
        if adam_name != "Id":
            after_norm = Fraction(sum(v))
            f = turn - segment_start + 1
            ratio = (
                after_norm / segment_base_norm if segment_base_norm else Fraction(0)
            )
            segments.append(
                PunishmentSegment(
                    start_turn=segment_start,
                    end_turn=turn,
                    turns=f,
                    ratio=ratio,
                    within_bound=ratio.numerator <= ratio.denominator << (f - 1),
                )
            )
            segment_start = turn + 1
            segment_base_norm = after_norm
            sim.reset()
            unit = v[index[m.initial_state]]
            k = 0

        choice, expected = sim.play(turn)
        eve_name = g.eve_matrices[choice][0]
        v = _sparse_vec_mat(v, eve_rows[choice], dim)
        eve_moves.append(eve_name)
        _, state, counter, _ = sim.moves[choice]

        # a reset played this turn has been consumed, so Adam audits every
        # Eve move; after a deviation the run restarts on the reset he
        # answers with
        if choice != expected:
            lied_state = expected is None or state != sim.state
            schedule.append("P[q]" if lied_state else f"P[{counter}]")
        else:
            sim.apply(choice)
            k += 1
            # v must encode the configuration at scale unit * 2^k: after a
            # reset that wiped the vector (unit 0) both sides are all zeros
            if magnitude_ok:
                want = [0] * len(v)
                want[index[sim.state]] = unit << k
                for c, plus, minus in pair_at:
                    value = sim.counters[c]
                    want[plus], want[minus] = unit << (k + value), unit << (k - value)
                magnitude_ok = v == want

    final_norm = Fraction(sum(v))
    # growth per turn (final / start)^(1/horizon), reported in log space so
    # long horizons cannot overflow; the < 2 verdict is decided exactly
    total_growth = (
        math.exp((_log(final_norm) - _log(start_norm)) / horizon) if final_norm else 0.0
    )
    return NonnegPunishmentReport(
        turns=horizon,
        adam_moves=tuple(adam_moves),
        eve_moves=tuple(eve_moves),
        halted_turn=sim.halted_turn,
        punished=bool(segments),
        magnitude_ok=magnitude_ok,
        segments=tuple(segments),
        segment_bounds_ok=all(s.within_bound for s in segments),
        aggregate_growth=total_growth,
        aggregate_below_two=final_norm < start_norm * 2**horizon,
        final_norm=final_norm,
    )
