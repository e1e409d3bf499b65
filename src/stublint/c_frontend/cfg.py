"""Intraprocedural control-flow graph over parsed stub bodies.

The builder lowers each function straight into basic blocks (Allen 1970):
maximal runs of executed statements in which each statement is the only
successor of the one before and has no other predecessor.  A block holds
its statements in order and the ids of its successor blocks.  The parser
hands over only the statements that execute (see nodes), so each statement
of a list is placed in exactly one block, and a list places nothing only
when it is empty.  The blocks come from the syntax alone: `return` (which
covers `CAMLreturn`) ends its block with an edge to the exit, and a call
that never returns is an expression statement like any other, whose path
the solver ends (see analysis).  Block 0 starts at the entry and may hold
statements; the exit is block 1 and holds none.

Each statement carries its own expression as the parser built it (a
condition, a `return` value, an initializer), never the statements it
holds, which are placed in blocks of their own.  The product step walks
that expression once, in C's evaluation order (see analysis), and the
solver keeps states only at block heads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import nodes as ast

ENTRY = 0
EXIT = 1


@dataclass(slots=True)
class Block:
    id: int
    stmts: list = field(default_factory=list)
    succs: list[int] = field(default_factory=list)  # block ids


@dataclass(slots=True)
class Cfg:
    fn: ast.StubFunction
    blocks: list[Block]

    # shim for perfbench/spans.py, which counts the statements plus entry
    # and exit as `c_frontend.cfg_nodes`; ROADMAP item 1 deletes it
    @property
    def nodes(self) -> range:
        return range(2 + sum(len(block.stmts) for block in self.blocks))


# What falls through to the next statement: a call that never returns is
# one of these too, since the solver, not the CFG, ends its path.
_FALLS_THROUGH = (ast.ExprStmt, ast.VarDecl, ast.Opaque)


class _Builder:
    """Lowers statements in order.  A frontier is the list of blocks whose
    ends flow into the next statement placed."""

    def __init__(self):
        self.blocks = [Block(ENTRY), Block(EXIT)]
        self.branches: set[int] = set()  # blocks that end in a branch
        self.head_next = False  # the next statement heads a block
        self.break_stack: list[list[int]] = []
        self.continue_stack: list[list[int]] = []

    def place(self, stmt, frontier: list[int]) -> int:
        """Put `stmt`, entered from `frontier`, at the end of the one block
        that alone enters it, or else at the head of a new block; returns
        its block."""
        if frontier and not self.head_next:
            bid = frontier[0]
            block = self.blocks[bid]
            if (
                not block.succs
                and bid not in self.branches
                and frontier.count(bid) == len(frontier)
            ):
                block.stmts.append(stmt)
                return bid
        self.head_next = False
        bid = len(self.blocks)
        self.blocks.append(Block(bid, [stmt]))
        self.connect(frontier, bid)
        return bid

    def connect(self, frontier: list[int], target: int):
        blocks = self.blocks
        for src in frontier:
            succs = blocks[src].succs
            if target not in succs:
                succs.append(target)

    def head(self, bid: int, index: int, *pending: list[int]) -> int:
        """Make the statement at `index` of block `bid` head a block, which
        it returns.  A loop head is placed before its back edges are known:
        if it joined a block, the block is split before it here.  The tail
        takes the block's end along, so `pending` frontiers that name `bid`
        name the tail instead."""
        if index == 0 and bid != ENTRY:  # block 0 starts at the entry
            return bid
        block = self.blocks[bid]
        tail = len(self.blocks)
        self.blocks.append(Block(tail, block.stmts[index:], block.succs))
        del block.stmts[index:]
        block.succs = [tail]
        if bid in self.branches:
            self.branches.add(tail)
        for frontier in pending:
            frontier[:] = [tail if b == bid else b for b in frontier]
        return tail

    def build(self, fn: ast.StubFunction) -> Cfg:
        self.connect(self.lower_list(fn.body, [ENTRY]), EXIT)
        return Cfg(fn, self.blocks)

    def lower_list(self, stmts, frontier: list[int]) -> list[int]:
        for stmt in stmts:
            frontier = self.lower(stmt, frontier)
        return frontier

    def lower(self, stmt, frontier: list[int]) -> list[int]:
        if isinstance(stmt, _FALLS_THROUGH):  # the commonest statements
            return [self.place(stmt, frontier)]
        if isinstance(stmt, ast.DoWhile):
            # control enters a do-while at its body, which the condition
            # loops back to, so the body's first statement heads a block;
            # the condition is placed after the body
            head = len(self.blocks)
            self.head_next = True
        else:
            bid = self.place(stmt, frontier)

        if isinstance(stmt, ast.Return):
            self.connect([bid], EXIT)
            return []

        if isinstance(stmt, ast.If):
            # an `else if` chain is lowered in this loop: a lone If in the
            # `els` is placed here, as `lower` would place it.  A condition
            # whose two arms place nothing has one successor: no branch.
            out = []
            while True:
                if stmt.then or stmt.els:
                    self.branches.add(bid)
                out += self.lower_list(stmt.then, [bid])
                els = stmt.els
                if els is None:
                    return out + [bid]
                if len(els) != 1 or not isinstance(els[0], ast.If):
                    return out + self.lower_list(els, [bid])
                stmt = els[0]
                bid = self.place(stmt, [bid])

        if isinstance(stmt, (ast.While, ast.DoWhile, ast.For)):
            do_while = isinstance(stmt, ast.DoWhile)
            if not do_while:
                # a head that joined a block is split off it below, once
                # its back edges are known
                index = len(self.blocks[bid].stmts) - 1
                if stmt.cond is not None:  # for(;;) has one successor
                    self.branches.add(bid)
                frontier = [bid]
            breaks: list[int] = []
            continues: list[int] = []
            self.break_stack.append(breaks)
            self.continue_stack.append(continues)
            back = self.lower_list(stmt.body, frontier) + continues
            self.break_stack.pop()
            self.continue_stack.pop()
            if do_while:
                bid = self.place(stmt, back)
                self.branches.add(bid)
                self.connect([bid], head)
                return [bid] + breaks
            if isinstance(stmt, ast.For) and stmt.step is not None:
                back = [self.place(stmt.step, back)]
            if back:
                bid = self.head(bid, index, back, breaks)
                self.connect(back, bid)
            if stmt.cond is None:
                return breaks  # for(;;) never falls out of the loop
            return [bid] + breaks

        if isinstance(stmt, ast.Switch):
            # the subject enters each case body that places a statement,
            # and what follows the switch if no default catches it or the
            # last case body places nothing
            cases = stmt.cases
            default = any(None in case.labels for case in cases)
            exits = not default or not cases[-1].body
            if sum(bool(case.body) for case in cases) + exits > 1:
                self.branches.add(bid)
            breaks = []
            self.break_stack.append(breaks)
            fall: list[int] = []
            for case in cases:
                fall = self.lower_list(case.body, [bid] + fall)
            self.break_stack.pop()
            if default:
                return breaks + fall
            return breaks + fall + [bid]

        # a break or a continue
        is_break = isinstance(stmt, ast.Break)
        stack = self.break_stack if is_break else self.continue_stack
        if stack:
            stack[-1].append(bid)
        else:
            self.connect([bid], EXIT)
        return []


# is_noreturn is unused: a shim for perfbench/spans.py, which still passes
# it; ROADMAP item 1 deletes it
def build_cfg(fn: ast.StubFunction, is_noreturn=None) -> Cfg:
    return _Builder().build(fn)
