"""Intraprocedural control-flow graph over parsed stub bodies.

One node per executed statement.  Declarations without an initializer do
not execute anything, so they get no node.  `return`, `CAMLreturn`, and
calls to noreturn functions edge straight to the synthetic exit.

Each node carries the ops the parser attached to its statement (see
nodes, "Ops"): the calls, assignments, address-takings, increments and
dereferences its own expressions perform, children before parents.  The
lock, value and constant analyses read those ops and nothing else of the
expression tree.  Entry and exit have no ops.

The nodes are grouped into basic blocks (Allen 1970): maximal runs in which
each node is the only successor of the one before and has no other
predecessor.  The solver keeps states only at block heads.  Block 0 starts
at the entry, and the exit always heads a block of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import nodes as ast
from .intrinsics import CAMLRETURN

ENTRY = 0
EXIT = 1


@dataclass(slots=True)
class Node:
    id: int
    kind: str  # "entry", "exit", or "stmt"
    stmt: object
    ops: tuple = ()
    succs: list[int] = field(default_factory=list)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<node {self.id} {self.kind} -> {self.succs}>"


@dataclass(slots=True)
class Block:
    id: int
    nodes: list[Node]
    succs: list[int] = field(default_factory=list)  # block ids


@dataclass(slots=True)
class Cfg:
    fn: ast.StubFunction
    nodes: list[Node]
    blocks: list[Block]

    @property
    def entry(self) -> Node:
        return self.nodes[ENTRY]

    @property
    def exit(self) -> Node:
        return self.nodes[EXIT]

    def statement_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.kind == "stmt"]

    def edges(self) -> list[tuple[int, int]]:
        return [(n.id, s) for n in self.nodes for s in n.succs]

    def unreachable(self) -> list[int]:
        seen = {ENTRY}
        work = [ENTRY]
        while work:
            for succ in self.nodes[work.pop()].succs:
                if succ not in seen:
                    seen.add(succ)
                    work.append(succ)
        return [n.id for n in self.statement_nodes() if n.id not in seen]


def _basic_blocks(nodes: list[Node]) -> list[Block]:
    preds = [0] * len(nodes)
    for node in nodes:
        for succ in node.succs:
            preds[succ] += 1
    preds[EXIT] = 0  # so the exit heads a block of its own
    # follows[n] is the node that continues n's block, or -1
    follows = [
        node.succs[0] if len(node.succs) == 1 and preds[node.succs[0]] == 1 else -1
        for node in nodes
    ]
    inner = set(follows)
    block_of = [-1] * len(nodes)
    blocks: list[Block] = []
    # heads first; a cycle of inner nodes, which no head reaches, is cut anywhere
    for start in [n for n in nodes if n.id not in inner] + nodes:
        nid = start.id
        if block_of[nid] < 0:
            block = Block(len(blocks), [])
            blocks.append(block)
            while nid >= 0 and block_of[nid] < 0:
                block_of[nid] = block.id
                block.nodes.append(nodes[nid])
                nid = follows[nid]
    for block in blocks:
        block.succs = [block_of[succ] for succ in block.nodes[-1].succs]
    return blocks


class _Builder:
    def __init__(self, fn: ast.StubFunction, is_noreturn):
        self.fn = fn
        self.is_noreturn = is_noreturn or (lambda name: False)
        self.nodes = [Node(ENTRY, "entry", None), Node(EXIT, "exit", None)]
        self.break_stack: list[list[int]] = []
        self.continue_stack: list[list[int]] = []

    def new_node(self, stmt, frontier: list[int]) -> int:
        """A node for `stmt`, with its ops, entered from `frontier`."""
        nid = len(self.nodes)
        self.nodes.append(Node(nid, "stmt", stmt, getattr(stmt, "ops", ())))
        self.connect(frontier, nid)
        return nid

    def add_edge(self, src: int, dst: int):
        if dst not in self.nodes[src].succs:
            self.nodes[src].succs.append(dst)

    def connect(self, frontier: list[int], target: int):
        for src in frontier:
            self.add_edge(src, target)

    def build(self) -> Cfg:
        frontier = self.lower_list(self.fn.body, [ENTRY])
        self.connect(frontier, EXIT)
        return Cfg(self.fn, self.nodes, _basic_blocks(self.nodes))

    def lower_list(self, stmts, frontier: list[int]) -> list[int]:
        for stmt in stmts:
            frontier = self.lower(stmt, frontier)
        return frontier

    def lower(self, stmt, frontier: list[int]) -> list[int]:
        if isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                if decl.init is not None:
                    frontier = [self.new_node(decl, frontier)]
            return frontier
        if isinstance(stmt, ast.For) and stmt.init is not None:
            frontier = self.lower(stmt.init, frontier)
        # the node that evaluates the statement's own expression; control
        # enters a do-while at its body, not at its condition
        nid = self.new_node(stmt, [] if isinstance(stmt, ast.DoWhile) else frontier)

        if isinstance(stmt, ast.ExprStmt):
            if self._terminates(stmt.expr):
                self.add_edge(nid, EXIT)
                return []
            return [nid]

        if isinstance(stmt, ast.Return):
            self.add_edge(nid, EXIT)
            return []

        if isinstance(stmt, ast.If):
            # an `else if` chain is lowered in this loop: a lone If in the
            # `els` gets its node here, as `lower` would give it one
            out = []
            while True:
                out += self.lower_list(stmt.then, [nid])
                els = stmt.els
                if els is None:
                    return out + [nid]
                if len(els) != 1 or not isinstance(els[0], ast.If):
                    return out + self.lower_list(els, [nid])
                stmt = els[0]
                nid = self.new_node(stmt, [nid])

        if isinstance(stmt, (ast.While, ast.DoWhile, ast.For)):
            step = None  # a `for` step is its own node, made before the body
            if isinstance(stmt, ast.For) and stmt.step is not None:
                step = self.new_node(stmt.step, [])
            head = len(self.nodes)
            breaks: list[int] = []
            continues: list[int] = []
            self.break_stack.append(breaks)
            self.continue_stack.append(continues)
            if isinstance(stmt, ast.DoWhile):
                body_out = self.lower_list(stmt.body, frontier)
                # the condition loops back to the body's first node
                self.add_edge(nid, head if head < len(self.nodes) else nid)
            else:
                body_out = self.lower_list(stmt.body, [nid])
            self.break_stack.pop()
            self.continue_stack.pop()
            self.connect(body_out + continues, nid if step is None else step)
            if step is not None:
                self.add_edge(step, nid)
            if isinstance(stmt, ast.For) and stmt.cond is None:
                return breaks  # for(;;) never falls out of the loop
            return [nid] + breaks

        if isinstance(stmt, ast.Switch):
            breaks = []
            self.break_stack.append(breaks)
            fall: list[int] = []
            for case in stmt.cases:
                fall = self.lower_list(case.body, [nid] + fall)
            self.break_stack.pop()
            if any(None in case.labels for case in stmt.cases):  # a default
                return breaks + fall
            return breaks + fall + [nid]

        if isinstance(stmt, (ast.Break, ast.Continue)):
            is_break = isinstance(stmt, ast.Break)
            stack = self.break_stack if is_break else self.continue_stack
            if stack:
                stack[-1].append(nid)
            else:
                self.add_edge(nid, EXIT)
            return []

        # an opaque statement, or anything unexpected, falls through
        return [nid]

    def _terminates(self, expr) -> bool:
        """Statement-level calls that never return to the caller."""
        if not isinstance(expr, ast.Call):
            return False
        name = expr.callee
        if name is None:
            return False
        if name in CAMLRETURN:
            return True
        return bool(self.is_noreturn(name))


def build_cfg(fn: ast.StubFunction, is_noreturn=None) -> Cfg:
    return _Builder(fn, is_noreturn).build()
