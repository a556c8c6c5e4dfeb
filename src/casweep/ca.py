"""One-dimensional cellular automata given by explicit local rule tables.

A `LocalRule` reads the window ``x[i+anchor .. i+anchor+width)`` to produce
output cell i.  Tables are flat tuples indexed by `word_index` of the window,
so two rules with the same alphabet and neighborhood are equal iff their
tables are equal.

A small library of named rules ships as JSON data files, including the
running examples used throughout the test suite.
"""

from __future__ import annotations

from collections import namedtuple

from .core import (EpConfig, all_words, bundled_json, check_alphabet,
                   check_range, check_table_size, json_int, word_index)


class LocalRule(namedtuple("LocalRule", "q anchor width table")):
    """Local rule of a cellular automaton over alphabet 0..q-1."""

    __slots__ = ()

    def __new__(cls, q, anchor, width, table):
        check_alphabet(q)
        if width < 1:
            raise ValueError("width must be at least 1")
        check_table_size(len(table), q, width)
        table = tuple(table)
        check_range(table, q, "table value {} outside alphabet")
        return tuple.__new__(cls, (q, anchor, width, table))

    def __call__(self, window: tuple[int, ...]) -> int:
        if len(window) != self.width:
            raise ValueError(f"window length {len(window)}, expected {self.width}")
        return self.table[word_index(window, self.q)]

    @property
    def radius(self) -> int:
        """Smallest r with the neighborhood contained in [-r, r]."""
        return max(abs(self.anchor), abs(self.anchor + self.width - 1))

    def to_json(self) -> dict:
        return {"alphabet": self.q, "anchor": self.anchor,
                "width": self.width, "table": list(self.table)}

    @classmethod
    def from_json(cls, obj: dict) -> "LocalRule":
        try:
            return cls(json_int(obj["alphabet"], "alphabet"),
                       json_int(obj["anchor"], "anchor"),
                       json_int(obj["width"], "width"),
                       tuple(json_int(s, "table") for s in obj["table"]))
        except KeyError as e:
            raise ValueError(f"local rule file missing field {e}") from e


def apply_ep(f: LocalRule, x: EpConfig) -> EpConfig:
    """Image of an eventually periodic configuration.

    The output tails inherit the input period lengths verbatim; callers who
    want minimal periods normalize afterwards.
    """
    if f.q != x.q:
        raise ValueError("alphabet mismatch")
    q, anchor, width, table = f.q, f.anchor, f.width, f.table
    lo = x.center_start - anchor - width + 1
    hi = max(lo, x.center_end - anchor)
    lper = len(x.left_period)
    rper = len(x.right_period)
    # output cell i reads x[i + anchor, i + anchor + width): read the cells
    # of every output window at once and slide one word index across them
    cells = x.window(lo - lper + anchor, hi + rper + anchor + width - 1)
    size = q ** width
    idx = 0
    for c in cells[:width - 1]:
        idx = idx * q + c
    out = tuple([table[idx := (idx * q + c) % size] for c in cells[width - 1:]])
    return EpConfig(q, out[:lper], out[lper:lper + hi - lo], lo,
                    out[lper + hi - lo:])


def shift_rule(q: int, k: int = 1) -> LocalRule:
    """The k-th power of the left shift; k may be negative."""
    return LocalRule(q, k, 1, tuple(range(q)))


def shift_compose(f: LocalRule, k: int) -> LocalRule:
    """sigma^k after f: same table, anchor moved by k."""
    return LocalRule(f.q, f.anchor + k, f.width, f.table)


def mirror(f: LocalRule) -> LocalRule:
    """Spatial reflection about the origin.

    If R reverses configurations (R(x)[i] = x[-i]) then
    ``apply_ep(mirror(f), x) == R(apply_ep(f, R(x)))``.
    """
    table = tuple(f.table[word_index(tuple(reversed(u)), f.q)]
                  for u in all_words(f.width, f.q))
    return LocalRule(f.q, -(f.anchor + f.width - 1), f.width, table)


def refine(f: LocalRule, anchor: int, width: int) -> LocalRule:
    """Same map on a wider neighborhood containing the current one."""
    if anchor > f.anchor or anchor + width < f.anchor + f.width:
        raise ValueError("refinement must contain the current neighborhood")
    off = f.anchor - anchor
    table = tuple(f.table[word_index(u[off:off + f.width], f.q)]
                  for u in all_words(width, f.q))
    return LocalRule(f.q, anchor, width, table)


def to_radius_form(f: LocalRule, r: int) -> LocalRule:
    """Refine to the symmetric neighborhood [-r, r]."""
    if r < f.radius:
        raise ValueError(f"radius {r} below the rule's natural radius {f.radius}")
    return refine(f, -r, 2 * r + 1)


def minimize_neighborhood(f: LocalRule) -> LocalRule:
    """Drop boundary cells the table does not actually depend on."""
    q, anchor, width, table = f.q, f.anchor, f.width, f.table
    changed = True
    while changed and width > 1:
        changed = False
        block = q ** (width - 1)
        # least significant position = rightmost neighborhood cell
        if all(table[k * q] == table[k * q + a]
               for k in range(block) for a in range(1, q)):
            table = tuple(table[k * q] for k in range(block))
            width -= 1
            changed = True
            continue
        if all(table[j] == table[j + c * block]
               for j in range(block) for c in range(1, q)):
            table = tuple(table[:block])
            anchor += 1
            width -= 1
            changed = True
    return LocalRule(q, anchor, width, table)


# ---------------------------------------------------------------------------
# Bundled rules

BUILTIN_RULES = ("identity", "shift", "shift_inv", "ca102", "xor_left",
                 "and_rule", "sigma2_x_sigma3inv")


def builtin_rule(name: str) -> LocalRule:
    """Load one of the bundled local rules by name."""
    return LocalRule.from_json(bundled_json(name, BUILTIN_RULES, "rule"))
