"""Worklist solver for forward dataflow problems over a Cfg's basic blocks.

The solver is agnostic to the state type: callers supply the join, the
block transfer function, and the bottom element.  States are compared with
`==`, so any value type with structural equality works (enums, dicts,
tuples).  It keeps a state only at each block head; a transfer walks its
block's nodes itself, and may copy the head state once and update the copy
in place.

A block is queued again whenever its head state changes, so the last visit
of every reached block starts from its fixpoint head state.  The analyses
rely on that: each keeps, per block, what its last visit reported.
"""

from __future__ import annotations

from collections import deque


def forward_solve(cfg, init, transfer, join, bottom):
    """Compute the fixpoint of a forward problem.

    init is the state at the head of block 0, where the entry node is.
    transfer(block, state) maps a block's head state to its out-state; it
    must be monotone and must not mutate `state`.  Returns (heads, pops):
    heads[block.id] is the state at the block's head (bottom for unreached
    blocks), pops counts block visits, which callers can bound-check
    against |blocks| * (lattice height + 1).
    """
    blocks = cfg.blocks
    heads = [bottom] * len(blocks)
    heads[0] = init
    queued = [False] * len(blocks)
    queued[0] = True
    queue = deque([0])
    pops = 0
    while queue:
        bid = queue.popleft()
        queued[bid] = False
        pops += 1
        block = blocks[bid]
        out = transfer(block, heads[bid])
        for succ in block.succs:
            merged = join(heads[succ], out)
            if merged != heads[succ]:
                heads[succ] = merged
                if not queued[succ]:
                    queued[succ] = True
                    queue.append(succ)
    return heads, pops
