"""Worklist solver for forward dataflow problems over a Cfg's basic blocks.

The solver is agnostic to the state type: callers supply the join, the
bottom element, a statement step and a `fresh` copy function.  States are
compared with `==`, so any value type with structural equality works
(enums, dicts, tuples).  It keeps a state only at each block head.  A block
visit takes one `fresh` copy of the head state and passes it through the
step of each of the block's statements in order; a step may update that
copy in place and returns the state after its statement, or `bottom` when
no path goes on past it (a call that never returns): the rest of the block
is then not stepped, and nothing flows to the block's successors.

A step also appends what it finds at its statement (findings and notes) to
a list.  A block is queued again whenever its head state changes, so the
last visit of every reached block starts from its fixpoint head state; the
solver keeps, per block, only what that last visit appended.
"""

from __future__ import annotations

from collections import deque, namedtuple

Fixpoint = namedtuple("Fixpoint", "heads pops found")


def forward_solve(cfg, init, step, join, bottom, fresh):
    """Compute the fixpoint of a forward problem.

    init is the state at the head of block 0, where the function is
    entered.  step(stmt, state, found) maps the state at a statement's
    entry to the state after it and appends what it finds to `found`; it
    must be monotone and may update `state` in place, since each block
    visit starts from fresh(head state).  A step that returns `bottom`
    ends the path at its statement.  Returns the Fixpoint (heads, pops, found):
    heads[block.id] is the state at the block's head (bottom for unreached
    blocks), pops counts block visits, which callers can bound-check
    against |blocks| * (lattice height + 1), and found lists, block by
    block in block order, what each reached block's last visit appended.
    """
    blocks = cfg.blocks
    heads = [bottom] * len(blocks)
    heads[0] = init
    last: list = [()] * len(blocks)
    queued = [False] * len(blocks)
    queued[0] = True
    queue = deque([0])
    pops = 0
    while queue:
        bid = queue.popleft()
        queued[bid] = False
        pops += 1
        block = blocks[bid]
        state = fresh(heads[bid])
        found: list = []
        last[bid] = found
        for stmt in block.stmts:
            state = step(stmt, state, found)
            if state is bottom:
                break
        else:
            for succ in block.succs:
                merged = join(heads[succ], state)
                if merged != heads[succ]:
                    heads[succ] = merged
                    if not queued[succ]:
                        queued[succ] = True
                        queue.append(succ)
    return Fixpoint(heads, pops, [item for found in last for item in found])
