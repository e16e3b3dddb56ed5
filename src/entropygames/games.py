"""Entropy games: arenas, translation to matrix games, solving, simulation.

An entropy game is played on a bipartite arena by Despot (who wants the
forest of possible trajectories to grow slowly) and Tribune (who wants it to
grow fast).  One full turn is one Despot move followed by one Tribune move.
Fixing positional strategies turns the dynamics into repeated multiplication
by a pair of non-negative matrices, and quantifying over strategies yields a
matrix multiplication game whose sets have independent row uncertainty: each
state picks its row (its action) independently of the others.  That
translation is lossless and is how every solver here works.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

# find_saddle and verify_saddle are re-exported: callers reach them here too.
from .decide import (
    SaddlePoint,
    ValueInterval,
    find_saddle,
    value_bisection,
    verify_saddle,
)
from .iru import IruSet, RowSet
from .linalg import Matrix, Vector, _float_mul, mat_mul, rat

DESPOT = "despot"
TRIBUNE = "tribune"


def _check_graph(despot: tuple[str, ...], tribune: tuple[str, ...], edges) -> None:
    """Refuse the (source, target, weight) edges unless they form a
    bipartite graph between the players' states: both players have a state,
    no name is repeated or shared, every edge leaves a known state and
    enters a known state of the other player with an integer weight, and no
    state is blocking, which would strand the token."""
    if not despot or not tribune:
        raise ValueError("both players need at least one state")
    if len(set(despot)) != len(despot) or len(set(tribune)) != len(tribune):
        raise ValueError("duplicate state names")
    if set(despot) & set(tribune):
        raise ValueError("state sets must be disjoint")
    other = {**dict.fromkeys(despot, set(tribune)), **dict.fromkeys(tribune, set(despot))}
    blocking = set(other)
    for frm, to, weight in edges:
        for state in (frm, to):
            if state not in other:
                raise ValueError(f"unknown state {state!r}")
        if to not in other[frm]:
            raise ValueError(f"transition {frm}->{to} must cross to the other player")
        if type(weight) is not int:  # never rounded, and a bool is no weight
            raise ValueError(f"transition {frm}->{to} has weight {weight!r}, not an integer")
        blocking.discard(frm)
    for state in despot + tribune:
        if state in blocking:
            raise ValueError(f"blocking state {state!r} has no outgoing transition")


@dataclass(frozen=True)
class Arena:
    """A bipartite game arena.

    States are split between the two players; every transition goes from one
    side to the other and is labelled with an action and a positive integer
    multiplicity (how many distinct successors it spawns in the trajectory
    forest).  Construction validates the bipartite structure and
    non-blockingness: a state with no outgoing transition would strand the
    token, so it is rejected with the offending state named.
    """

    despot_states: tuple[str, ...]
    tribune_states: tuple[str, ...]
    alphabet: tuple[str, ...]
    transitions: tuple[tuple[str, str, str, int], ...]

    def __post_init__(self):
        despot = tuple(self.despot_states)
        tribune = tuple(self.tribune_states)
        alphabet = tuple(self.alphabet)
        transitions = tuple(self.transitions)
        _check_graph(despot, tribune, [(frm, to, w) for frm, _, to, w in transitions])
        actions = set(alphabet)
        if not alphabet or len(actions) != len(alphabet):
            raise ValueError("alphabet must be non-empty without duplicates")
        merged: dict[tuple[str, str, str], int] = {}
        for frm, action, to, weight in transitions:
            if action not in actions:
                raise ValueError(f"unknown action {action!r}")
            if weight <= 0:
                raise ValueError("transition multiplicities must be positive")
            merged[(frm, action, to)] = merged.get((frm, action, to), 0) + weight
        cleaned = tuple((frm, action, to, w) for (frm, action, to), w in sorted(merged.items()))
        object.__setattr__(self, "despot_states", despot)
        object.__setattr__(self, "tribune_states", tribune)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "transitions", cleaned)

    def actions_from(self, state: str) -> tuple[str, ...]:
        return tuple(sorted({a for f, a, _, _ in self.transitions if f == state}))


@dataclass(frozen=True)
class PositionalStrategy:
    """One action per state of the owning player, independent of history."""

    owner: str
    choice: Mapping[str, str]

    def __post_init__(self):
        if self.owner not in (DESPOT, TRIBUNE):
            raise ValueError(f"unknown owner {self.owner!r}")
        object.__setattr__(self, "choice", dict(self.choice))

    def action(self, state: str) -> str:
        return self.choice[state]


@dataclass(frozen=True)
class Translation:
    """Result of arena_to_iru: the two IruSets plus the bookkeeping that maps
    canonical rows back to actions, for strategy extraction."""

    a_set: IruSet
    e_set: IruSet
    despot_states: tuple[str, ...]
    tribune_states: tuple[str, ...]
    despot_row_actions: tuple[dict, ...]
    tribune_row_actions: tuple[dict, ...]

    def _strategy(self, owner, states, tables, member: Matrix) -> PositionalStrategy:
        choice = {}
        for i, state in enumerate(states):
            actions = tables[i].get(member.row(i))
            if actions is None:
                raise ValueError(f"row {i} of the matrix is not a row of state {state!r}")
            choice[state] = actions[0]
        return PositionalStrategy(owner=owner, choice=choice)

    def despot_strategy_for(self, member: Matrix) -> PositionalStrategy:
        return self._strategy(
            DESPOT, self.despot_states, self.despot_row_actions, member
        )

    def tribune_strategy_for(self, member: Matrix) -> PositionalStrategy:
        return self._strategy(
            TRIBUNE, self.tribune_states, self.tribune_row_actions, member
        )

    def member_for(self, strategy: PositionalStrategy) -> Matrix:
        """The matrix a positional strategy induces; inverse of the
        extraction above up to action aliasing."""
        if strategy.owner == DESPOT:
            states, tables = self.despot_states, self.despot_row_actions
        else:
            states, tables = self.tribune_states, self.tribune_row_actions
        rows = []
        for i, state in enumerate(states):
            wanted = strategy.action(state)
            for row, actions in tables[i].items():
                if wanted in actions:
                    rows.append(row)
                    break
            else:
                raise ValueError(f"state {state!r} has no action {wanted!r}")
        return Matrix(tuple(rows))


def arena_to_iru(a: Arena) -> Translation:
    """Translate an arena into the pair of independent-row-uncertainty sets.

    Despot's set has one row set per despot state with coordinates indexed
    by tribune states, one candidate row per action (entry = summed
    multiplicity of that action's transitions to each tribune state), and
    symmetrically for Tribune.  Actions with identical rows collapse onto
    one candidate; the returned tables remember every action behind each
    row, lexicographically smallest first.
    """

    def side(states: tuple[str, ...], targets: tuple[str, ...]):
        target_index = {s: j for j, s in enumerate(targets)}
        row_sets = []
        tables = []
        for state in states:
            per_action: dict[str, list[Fraction]] = {}
            for frm, action, to, weight in a.transitions:
                if frm != state:
                    continue
                row = per_action.setdefault(
                    action, [Fraction(0)] * len(targets)
                )
                row[target_index[to]] += weight
            rows_to_actions: dict[tuple, list[str]] = {}
            for action in sorted(per_action):
                row = tuple(per_action[action])
                rows_to_actions.setdefault(row, []).append(action)
            table = {row: tuple(actions) for row, actions in rows_to_actions.items()}
            row_sets.append(RowSet(tuple(table.keys())))
            tables.append(table)
        return tuple(row_sets), tuple(tables)

    despot_sets, despot_tables = side(a.despot_states, a.tribune_states)
    tribune_sets, tribune_tables = side(a.tribune_states, a.despot_states)
    return Translation(
        a_set=IruSet(despot_sets),
        e_set=IruSet(tribune_sets),
        despot_states=a.despot_states,
        tribune_states=a.tribune_states,
        despot_row_actions=despot_tables,
        tribune_row_actions=tribune_tables,
    )


@dataclass(frozen=True)
class GameSolution:
    """Solved entropy game: a certified value bracket, optimal positional
    strategies for both players, and the saddle pair behind them."""

    value: ValueInterval
    despot_strategy: PositionalStrategy
    tribune_strategy: PositionalStrategy

    @property
    def saddle(self) -> SaddlePoint:
        return self.value.saddle

    def entropy_bits(self) -> float:
        """Entropy of the game: log2 of the value, divided by the four
        quarter-moves that make up one full turn."""
        return eg_payoff_entropy(self.value.midpoint())


def solve(a: Arena, tol=Fraction(1, 10**6)) -> GameSolution:
    """Solve an entropy game end to end.

    Translates the arena and brackets the value with value_bisection at
    tol/2: that finds and exactly confirms a saddle pair, whose members are
    the optimal positional strategies returned here, rounds the saddle
    product's certified radius enclosure out onto a dyadic value bracket,
    halved by Sturm signs only when it is wider than tol/2, and certifies
    both ends with one player committed to their saddle strategy: the upper
    end by Howard policy iteration, the lower end by one expansion LP."""
    tol = rat(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    tr = arena_to_iru(a)
    vi = value_bisection(tr.a_set, tr.e_set, tol / 2)
    return GameSolution(
        value=vi,
        despot_strategy=tr.despot_strategy_for(vi.saddle.despot_matrix),
        tribune_strategy=tr.tribune_strategy_for(vi.saddle.tribune_matrix),
    )


StrategyOracle = Callable[[str, int, list], str]


def as_action_oracle(spec, arena: Arena | None = None) -> StrategyOracle:
    """Normalise the accepted strategy descriptions to a callable
    (state, half_turn, history) -> action.

    Accepted forms: a callable (used as is), a PositionalStrategy, a mapping
    state -> action, a pair ("constant", action), ("script", actions) where
    the script advances one letter per full turn and repeats cyclically, or
    ("random", seed) drawing uniformly among the legal actions of the state
    (requires the arena for legality)."""
    if callable(spec):
        return spec
    if isinstance(spec, PositionalStrategy):
        spec = spec.choice
    if isinstance(spec, Mapping):
        table = dict(spec)

        def positional(state, half, history):
            if state not in table:
                raise ValueError(f"positional strategy has no action for state {state!r}")
            return table[state]

        return positional
    if isinstance(spec, tuple) and len(spec) == 2:
        tag, payload = spec
        if tag == "constant":
            return lambda state, half, history: payload
        if tag == "script":
            letters = list(payload)
            if not letters:
                raise ValueError("empty script")
            return lambda state, half, history: letters[(half // 2) % len(letters)]
        if tag == "random":
            import random

            if arena is None:
                raise ValueError("random strategies need the arena for legality")
            rng = random.Random(payload)
            moves = {
                s: arena.actions_from(s)
                for s in arena.despot_states + arena.tribune_states
            }
            return lambda state, half, history: rng.choice(moves[state])
    raise ValueError(f"unrecognised strategy description {spec!r}")


def forest_counts(
    a: Arena, despot, tribune, turns: int
) -> list[Vector]:
    """Trajectory-forest population counts, half turn by half turn.

    Starts from one trajectory per despot state and applies, alternately,
    the despot and tribune actions chosen by the given oracles; each chosen
    transition multiplies the population by its multiplicity.  Returns the
    2*turns+1 population vectors (over despot states at even indices,
    tribune states at odd ones)."""
    if turns < 0:
        raise ValueError("turns must be non-negative")
    despot_oracle = as_action_oracle(despot, a)
    tribune_oracle = as_action_oracle(tribune, a)
    by_source: dict[str, dict[str, list[tuple[str, int]]]] = {}
    for frm, action, to, weight in a.transitions:
        by_source.setdefault(frm, {}).setdefault(action, []).append((to, weight))
    current = {s: Fraction(1) for s in a.despot_states}
    levels = [Vector(tuple(current[s] for s in a.despot_states))]
    sides = (
        (a.despot_states, a.tribune_states, despot_oracle),
        (a.tribune_states, a.despot_states, tribune_oracle),
    )
    for half in range(2 * turns):
        sources, targets, oracle = sides[half % 2]
        nxt = {s: Fraction(0) for s in targets}
        for state in sources:
            action = oracle(state, half, levels)
            options = by_source.get(state, {}).get(action)
            if options is None:
                raise ValueError(
                    f"oracle chose action {action!r} illegal in state {state!r}"
                )
            count = current[state]
            if count:
                for to, weight in options:
                    nxt[to] += count * weight
        current = nxt
        levels.append(Vector(tuple(current[s] for s in targets)))
    return levels


@dataclass(frozen=True)
class GrowthReport:
    """Per-turn growth estimates of a simulated matrix product.

    ``per_turn[k-1]`` approximates ||m_1 ... m_k||^(1/k); ``tail`` is the
    maximum over the last quarter of the run, a practical stand-in for the
    limsup.  ``zeroed_at`` marks the first turn whose product vanished
    entirely; growth is reported as 0 from there on."""

    steps: int
    per_turn: tuple[float, ...]
    tail: float
    zeroed_at: int | None


def _as_matrix_oracle(source, chooser, side: str):
    if callable(source):
        return source
    if isinstance(source, Matrix):
        return lambda turn, history: source
    if isinstance(source, IruSet):
        if chooser is not None:

            def checked(turn, history):
                m = chooser(turn, history)
                if isinstance(m, Matrix) and not source.contains_matrix(m):
                    raise ValueError(f"{side} chooser played a non-member on turn {turn}")
                return m

            return checked
        if source.size == 1:
            only = source.member((0,) * source.n_rows)
            return lambda turn, history: only
        raise ValueError(
            f"{side} set has several members; supply a chooser oracle"
        )
    raise ValueError(f"cannot interpret {side} source {source!r}")


def _support_sets(m: Matrix) -> list[set[int]]:
    return [{j for j, x in enumerate(row) if x} for row in m.data]


def _support_mul(p: list[set[int]], q: list[set[int]]) -> list[set[int]]:
    """Support of a product of non-negative matrices from their supports."""
    return [set().union(*(q[k] for k in row)) for row in p]


def _exact_product(history) -> Matrix:
    product = None
    for a, e in history:
        step = mat_mul(a, e)
        product = step if product is None else mat_mul(product, step)
    return product


def simulate_payoff(
    a_source, e_source, adam=None, eve=None, steps: int = 100
) -> GrowthReport:
    """Simulate a play of the matrix multiplication game and report growth.

    Sources may be single matrices, IruSets (with an accompanying chooser
    ``(turn, history) -> Matrix``, whose every matrix must be a member of
    its set: ValueError naming the side and the turn otherwise), or
    matrix-valued callables.  One turn
    multiplies by one Adam choice and one Eve choice.  Products are tracked
    in floats with per-step renormalisation, so long plays neither overflow
    nor underflow.  Whether the product has vanished is decided exactly:
    from the boolean support product while every member is non-negative
    (no entry can cancel), else from the exact product."""
    if steps <= 0:
        raise ValueError("steps must be positive")
    adam_oracle = _as_matrix_oracle(a_source, adam, "adam")
    eve_oracle = _as_matrix_oracle(e_source, eve, "eve")
    history: list[tuple[Matrix, Matrix]] = []
    product = None
    support = None
    exact = None
    log_norm = 0.0
    per_turn: list[float] = []
    zeroed_at = None
    for turn in range(1, steps + 1):
        a = adam_oracle(turn, history)
        e = eve_oracle(turn, history)
        if not isinstance(a, Matrix) or not isinstance(e, Matrix):
            raise ValueError("matrix oracles must return Matrix instances")
        history.append((a, e))
        step = _float_mul(a.to_floats(), e.to_floats())
        product = step if product is None else _float_mul(product, step)
        if exact is None and a.is_nonnegative and e.is_nonnegative:
            step_support = _support_mul(_support_sets(a), _support_sets(e))
            support = step_support if support is None else _support_mul(support, step_support)
            vanished = not any(support)
        else:
            exact = _exact_product(history) if exact is None else mat_mul(exact, mat_mul(a, e))
            vanished = not any(x for row in exact.data for x in row)
        if vanished:
            zeroed_at = turn
            per_turn.extend([0.0] * (steps - turn + 1))
            break
        total = sum(abs(x) for row in product for x in row)
        if total == 0.0:
            # every float entry cancelled or underflowed although the exact
            # product is not zero: restart the float product from it
            rows = _exact_product(history).data
            exact_total = sum(abs(x) for row in rows for x in row)
            product = [[float(x / exact_total) for x in row] for row in rows]
            log_norm = math.log(exact_total.numerator) - math.log(exact_total.denominator)
        else:
            log_norm += math.log(total)
            product = [[x / total for x in row] for row in product]
        per_turn.append(math.exp(log_norm / turn))
    tail_start = (3 * steps) // 4
    tail = max(per_turn[tail_start:]) if per_turn[tail_start:] else 0.0
    return GrowthReport(
        steps=steps,
        per_turn=tuple(per_turn),
        tail=tail,
        zeroed_at=zeroed_at,
    )


def eg_payoff_entropy(growth) -> float:
    """Entropy reading of a payoff: log2(P)/4 with P the per-turn growth
    (one turn spans four quarter-moves).  Accepts a GrowthReport (uses its
    tail) or a positive number."""
    if isinstance(growth, GrowthReport):
        p = growth.tail
    else:
        p = float(growth)
    if p <= 0:
        raise ValueError("growth must be positive to take its entropy")
    return math.log2(p) / 4


@dataclass(frozen=True)
class MpgArena:
    """A bipartite mean payoff game with non-negative integer weights.
    Transitions are (source, target, weight); Despot minimises and Tribune
    maximises the long-run average weight per full turn."""

    despot_states: tuple[str, ...]
    tribune_states: tuple[str, ...]
    transitions: tuple[tuple[str, str, int], ...]

    def __post_init__(self):
        despot = tuple(self.despot_states)
        tribune = tuple(self.tribune_states)
        edges = tuple((frm, to, weight) for frm, to, weight in self.transitions)
        _check_graph(despot, tribune, edges)
        if any(weight < 0 for _, _, weight in edges):
            raise ValueError("weights must be non-negative")
        object.__setattr__(self, "despot_states", despot)
        object.__setattr__(self, "tribune_states", tribune)
        object.__setattr__(self, "transitions", tuple(sorted(set(edges))))


def mpg_to_weighted_eg(m: MpgArena) -> Arena:
    """Encode a mean payoff game as an entropy game: a weight-w edge becomes
    a transition of multiplicity 2^w under a fresh action named after the
    edge.  Long-run average weight mp then satisfies value = 2^mp, so mean
    payoffs are recovered as log2 of the entropy game value."""
    actions = []
    transitions = []
    seen: dict[tuple[str, str], int] = {}
    for frm, to, weight in m.transitions:
        base = f"{frm}>{to}"
        bump = seen.get((frm, to), 0)
        seen[(frm, to)] = bump + 1
        action = base if bump == 0 else f"{base}#{bump}"
        actions.append(action)
        transitions.append((frm, action, to, 2**weight))
    return Arena(
        despot_states=m.despot_states,
        tribune_states=m.tribune_states,
        alphabet=tuple(actions),
        transitions=tuple(transitions),
    )


def mpg_value(m: MpgArena, tol=Fraction(1, 10**6)):
    """Mean payoff value bracket [log2 lower, log2 upper] via the entropy
    game encoding, together with the full entropy game solution."""
    solution = solve(mpg_to_weighted_eg(m), tol)
    lo = float(solution.value.lower)
    hi = float(solution.value.upper)
    if lo <= 0:
        raise RuntimeError("weighted encoding must have value >= 1")
    return (math.log2(lo), math.log2(hi)), solution
