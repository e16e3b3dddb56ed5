"""File formats: UTF-8 JSON documents with exact rationals, plus the line
format for counter machines.

Rationals travel as "p/q" strings (or bare integers) so every document
round-trips exactly.  Kinds are detected structurally: an arena document has
an alphabet, a mean payoff game has transitions without one, a matrix-set
document has row sets, a pair document has adam/eve matrix sets, an encoded
game carries named matrices and its variant tag.  Anything that does not
parse as JSON is treated as machine text."""

from __future__ import annotations

import json
from fractions import Fraction

from .games import Arena, MpgArena
from .iru import IruSet, RowSet
from .linalg import Matrix
from .minsky import TwoCounterMachine, format_machine, parse_machine
from .reductions import INTEGER, EncodedMmg, check_dimension

ARENA = "arena"
MPG = "mpg"
MATRIX_SET = "matrix-set"
PAIR = "pair"
ENCODED = "encoded"
MACHINE = "machine"

ROW_VECTOR_CONVENTION = "row vectors act on the right"


def parse_rational(value) -> Fraction:
    """Read a rational from its JSON form: an integer or a "p/q" string.
    Floats are rejected; the formats exist to keep arithmetic exact."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")


def _declared_int(doc: dict, key: str) -> int:
    """A declared size, which must be a JSON integer: never rounded, and a
    boolean is no size."""
    value = doc[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be a JSON integer, got {value!r}")
    return value


def format_rational(value) -> str:
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def arena_to_dict(a: Arena) -> dict:
    return {
        "despot_states": list(a.despot_states),
        "tribune_states": list(a.tribune_states),
        "alphabet": list(a.alphabet),
        "transitions": [
            {"from": frm, "action": action, "to": to, "weight": weight}
            for frm, action, to, weight in a.transitions
        ],
    }


def arena_from_dict(doc: dict) -> Arena:
    transitions = tuple(
        (tr["from"], tr["action"], tr["to"], tr.get("weight", 1))
        for tr in doc["transitions"]
    )
    return Arena(
        despot_states=tuple(doc["despot_states"]),
        tribune_states=tuple(doc["tribune_states"]),
        alphabet=tuple(doc["alphabet"]),
        transitions=transitions,
    )


def mpg_to_dict(m: MpgArena) -> dict:
    return {
        "despot_states": list(m.despot_states),
        "tribune_states": list(m.tribune_states),
        "transitions": [
            {"from": frm, "to": to, "weight": weight}
            for frm, to, weight in m.transitions
        ],
    }


def mpg_from_dict(doc: dict) -> MpgArena:
    transitions = tuple((tr["from"], tr["to"], tr.get("weight", 0)) for tr in doc["transitions"])
    return MpgArena(
        despot_states=tuple(doc["despot_states"]),
        tribune_states=tuple(doc["tribune_states"]),
        transitions=transitions,
    )


def iru_to_dict(s: IruSet) -> dict:
    return {
        "rows": s.n_rows,
        "cols": s.n_cols,
        "row_sets": [
            [[format_rational(x) for x in row] for row in rs.rows]
            for rs in s.row_sets
        ],
        "nonnegative": True,
    }


def iru_from_dict(doc: dict) -> IruSet:
    if not doc.get("nonnegative", True):
        raise ValueError(
            "matrix-set is flagged as carrying negative entries; "
            "it cannot enter the IRU pipeline"
        )
    row_sets = []
    for rs in doc["row_sets"]:
        row_sets.append(
            RowSet(tuple(tuple(parse_rational(x) for x in row) for row in rs))
        )
    s = IruSet(tuple(row_sets))
    if s.n_rows != _declared_int(doc, "rows") or s.n_cols != _declared_int(doc, "cols"):
        raise ValueError("declared dimensions do not match the row sets")
    return s


def pair_to_dict(a_set: IruSet, e_set: IruSet) -> dict:
    return {"adam": iru_to_dict(a_set), "eve": iru_to_dict(e_set)}


def pair_from_dict(doc: dict) -> tuple[IruSet, IruSet]:
    return iru_from_dict(doc["adam"]), iru_from_dict(doc["eve"])


def _named_matrices_to_dict(named, nonnegative: bool) -> dict:
    first = named[0][1] if named else None
    return {
        "rows": first.rows if first else 0,
        "cols": first.cols if first else 0,
        "nonnegative": nonnegative,
        "matrices": [
            {
                "name": name,
                "entries": [[format_rational(x) for x in row] for row in m.data],
            }
            for name, m in named
        ],
    }


def _named_matrices_from_dict(doc: dict):
    named = []
    for entry in doc["matrices"]:
        rows = tuple(
            tuple(parse_rational(x) for x in row) for row in entry["entries"]
        )
        named.append((entry["name"], Matrix(rows)))
    return tuple(named)


def encoded_to_dict(g: EncodedMmg) -> dict:
    nonnegative = g.variant != INTEGER
    return {
        "variant": g.variant,
        "dimension": g.dimension,
        "coordinate_labels": list(g.coordinate_labels),
        "convention": ROW_VECTOR_CONVENTION,
        "degenerate": g.degenerate,
        "start_vector": [format_rational(x) for x in g.start_vector],
        "adam": _named_matrices_to_dict(g.adam_matrices, nonnegative),
        "eve": _named_matrices_to_dict(g.eve_matrices, nonnegative),
    }


def encoded_from_dict(doc: dict) -> EncodedMmg:
    """An encoded game, refused when a size disagrees with its declared
    dimension."""
    g = EncodedMmg(
        variant=doc["variant"],
        dimension=_declared_int(doc, "dimension"),
        coordinate_labels=tuple(doc["coordinate_labels"]),
        adam_matrices=_named_matrices_from_dict(doc["adam"]),
        eve_matrices=_named_matrices_from_dict(doc["eve"]),
        start_vector=tuple(parse_rational(x) for x in doc["start_vector"]),
        degenerate=bool(doc["degenerate"]),
    )
    check_dimension(g, "encoded document")
    return g


def detect_kind(doc: dict) -> str:
    if "variant" in doc:
        return ENCODED
    if "adam" in doc and "eve" in doc:
        return PAIR
    if "row_sets" in doc:
        return MATRIX_SET
    if "alphabet" in doc:
        return ARENA
    if "transitions" in doc:
        return MPG
    raise ValueError("unrecognised document structure")


_FROM_DICT = {
    ARENA: arena_from_dict,
    MPG: mpg_from_dict,
    MATRIX_SET: iru_from_dict,
    PAIR: pair_from_dict,
    ENCODED: encoded_from_dict,
}


def loads_document(text: str):
    """Parse a document from text; returns (kind, value).  JSON documents
    are dispatched on structure, anything else is machine text.  A value of
    the wrong JSON type, such as a list where an object or a string belongs,
    or a missing key raises ValueError naming the document kind."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return MACHINE, parse_machine(text)
    if not isinstance(doc, dict):
        raise ValueError("top-level JSON value must be an object")
    kind = detect_kind(doc)
    try:
        return kind, _FROM_DICT[kind](doc)
    except KeyError as exc:
        raise ValueError(f"malformed {kind} document: missing key {exc.args[0]!r}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed {kind} document: {exc}") from exc


def load_document(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads_document(text)


def dumps_document(value) -> str:
    """Serialise any supported value to its file format."""
    if isinstance(value, TwoCounterMachine):
        return format_machine(value)
    if isinstance(value, Arena):
        doc = arena_to_dict(value)
    elif isinstance(value, MpgArena):
        doc = mpg_to_dict(value)
    elif isinstance(value, IruSet):
        doc = iru_to_dict(value)
    elif isinstance(value, EncodedMmg):
        doc = encoded_to_dict(value)
    elif (
        isinstance(value, tuple)
        and len(value) == 2
        and all(isinstance(v, IruSet) for v in value)
    ):
        doc = pair_to_dict(*value)
    else:
        raise TypeError(f"no file format for {type(value).__name__}")
    return json.dumps(doc, indent=2) + "\n"


def save_document(path: str, value) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_document(value))
