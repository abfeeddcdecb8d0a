"""One reading of every decider's answer: (verdict, certificate).

The library's deciders answer in three shapes: a ``TriState`` (counter
machines), a ``(bool, DataWord)`` pair (``nra.nonempty_finite``) and a bare
``bool`` (``nra.nonempty_infinite``).  The benchmark reads all of them
through ``read_verdict``, so a change to those answer types touches only
this file.
"""

from __future__ import annotations

from typing import NamedTuple

NONEMPTY = "nonempty"
EMPTY = "empty"
UNKNOWN = "unknown"


class Verdict(NamedTuple):
    kind: str  # NONEMPTY | EMPTY | UNKNOWN
    certificate: object = None  # a letter word, a DataWord, a Lasso, or None

    @property
    def decided(self) -> bool:
        return self.kind != UNKNOWN


def read_verdict(answer) -> Verdict:
    if isinstance(answer, bool):
        return Verdict(NONEMPTY if answer else EMPTY)
    if isinstance(answer, tuple):
        found, witness = answer
        return Verdict(NONEMPTY, witness) if found else Verdict(EMPTY)
    if answer.kind == NONEMPTY:
        cert = answer.lasso if answer.lasso is not None else answer.witness
        return Verdict(NONEMPTY, cert)
    return Verdict(answer.kind)
