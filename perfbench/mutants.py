"""The three hand-broken methods of the pool, rebuilt from the registry
programs through the public AST.

Each mutant applies one targeted edit to a method that verifies:

- ``mutant_sll_insert_front_drop_keys``: ``sll_insert_front`` without
  the ``keys`` ghost update on the new head;
- ``mutant_sll_insert_skip_fix``: ``sll_insert`` without the
  ``AssertLCAndRemove`` that fixes the broken successor;
- ``mutant_sorted_find_off_by_one``: ``sorted_find`` whose early exit
  tests ``key(x) > k - 2``, so it gives up one node early.

The paper's answer for every mutant is "refuted"; a mutant that comes
back verified is a soundness hole.
"""

from __future__ import annotations

import dataclasses

from repro.lang import exprs as E
from repro.lang.ast import (
    Program,
    SAssertLCAndRemove,
    SBlock,
    SCall,
    SIf,
    SMut,
    SWhile,
)
from repro.structures.sll import sll_ids, sll_program
from repro.structures.sorted_list import sorted_ids, sorted_program

_DROP = object()  # the edit deletes the statement


def _map_stmts(stmts, fn, hits):
    out = []
    for s in stmts:
        s2 = fn(s)
        if s2 is _DROP:
            hits.append(s)
            continue
        if s2 is not s:
            hits.append(s)
            s = s2
        if isinstance(s, SIf):
            s = SIf(s.cond, _map_stmts(s.then, fn, hits), _map_stmts(s.els, fn, hits))
        elif isinstance(s, SWhile):
            s = SWhile(
                s.cond, s.invariants, _map_stmts(s.body, fn, hits),
                s.decreases, s.is_ghost,
            )
        elif isinstance(s, SBlock):
            s = SBlock(_map_stmts(s.stmts, fn, hits))
        out.append(s)
    return out


def _mutate(program: Program, method: str, pred, action) -> Program:
    """``program`` with ``action`` applied to the first statement of
    ``method`` matching ``pred``.  Exactly one statement must change, as
    in the mutation tests: a predicate that matches nothing is an error.
    """
    proc = program.proc(method)
    hits = []
    done = []

    def edit(s):
        if done or not pred(s):
            return s
        done.append(s)
        return action(s)

    body = _map_stmts(proc.body, edit, hits)
    if len(hits) != 1:
        raise ValueError(
            f"mutation of {method} matched {len(hits)} statements, wanted 1"
        )
    procs = dict(program.procedures)
    procs[method] = dataclasses.replace(proc, body=body)
    return Program(program.class_sig, procs)


def _weaken_early_exit(s):
    k = E.V("k")
    return SIf(
        E.or_(
            E.gt(E.F(E.V("x"), "key"), E.sub(k, E.I(2))),
            E.eq(E.F(E.V("x"), "next"), E.NIL_E),
        ),
        s.then,
        s.els,
    )


def build_mutants():
    """``{name: (program, ids, method)}`` for the three mutants."""
    return {
        "mutant_sll_insert_front_drop_keys": (
            _mutate(
                sll_program(), "sll_insert_front",
                lambda s: isinstance(s, SMut) and s.field == "keys",
                lambda s: _DROP,
            ),
            sll_ids(),
            "sll_insert_front",
        ),
        "mutant_sll_insert_skip_fix": (
            _mutate(
                sll_program(), "sll_insert",
                lambda s: isinstance(s, SAssertLCAndRemove),
                lambda s: _DROP,
            ),
            sll_ids(),
            "sll_insert",
        ),
        "mutant_sorted_find_off_by_one": (
            _mutate(
                sorted_program(), "sorted_find",
                lambda s: isinstance(s, SIf) and any(isinstance(t, SCall) for t in s.els),
                _weaken_early_exit,
            ),
            sorted_ids(),
            "sorted_find",
        ),
    }
