"""Intraprocedural control-flow graph over parsed stub bodies.

One node per executed statement.  Declarations without an initializer do
not execute anything, so they get no node.  `return`, `CAMLreturn`, and
calls to noreturn functions edge straight to the synthetic exit.

Building a node lowers its statement once into `Node.ops` (see
nodes.lower_ops): the calls, assignments, address-takings, increments and
dereferences its own expressions perform, children before parents.  The
lock, value and constant analyses read those ops and nothing else of the
expression tree.  Entry and exit have no ops.
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
    line: int
    col: int
    ops: tuple = ()
    succs: list[int] = field(default_factory=list)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<node {self.id} {self.kind} L{self.line} -> {self.succs}>"


@dataclass(slots=True)
class Cfg:
    fn: ast.StubFunction
    nodes: list[Node]

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


class _Builder:
    def __init__(self, fn: ast.StubFunction, is_noreturn):
        self.fn = fn
        self.is_noreturn = is_noreturn or (lambda name: False)
        self.nodes = [
            Node(ENTRY, "entry", None, fn.line, fn.col),
            Node(EXIT, "exit", None, fn.line, fn.col),
        ]
        self.break_stack: list[list[int]] = []
        self.continue_stack: list[list[int]] = []

    def new_node(self, stmt) -> int:
        node = Node(
            len(self.nodes), "stmt", stmt, stmt.line, stmt.col, ast.lower_ops(stmt)
        )
        self.nodes.append(node)
        return node.id

    def add_edge(self, src: int, dst: int):
        if dst not in self.nodes[src].succs:
            self.nodes[src].succs.append(dst)

    def connect(self, frontier: list[int], target: int):
        for src in frontier:
            self.add_edge(src, target)

    def build(self) -> Cfg:
        frontier = self.lower_list(self.fn.body, [ENTRY])
        self.connect(frontier, EXIT)
        return Cfg(self.fn, self.nodes)

    def lower_list(self, stmts, frontier: list[int]) -> list[int]:
        for stmt in stmts:
            frontier = self.lower(stmt, frontier)
        return frontier

    def lower(self, stmt, frontier: list[int]) -> list[int]:
        if isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                if decl.init is None:
                    continue
                nid = self.new_node(decl)
                self.connect(frontier, nid)
                frontier = [nid]
            return frontier

        if isinstance(stmt, ast.ExprStmt):
            nid = self.new_node(stmt)
            self.connect(frontier, nid)
            if self._terminates(stmt.expr):
                self.add_edge(nid, EXIT)
                return []
            return [nid]

        if isinstance(stmt, ast.Return):
            nid = self.new_node(stmt)
            self.connect(frontier, nid)
            self.add_edge(nid, EXIT)
            return []

        if isinstance(stmt, ast.If):
            cond = self.new_node(stmt)
            self.connect(frontier, cond)
            out = self.lower_list(stmt.then, [cond])
            if stmt.els is not None:
                out = out + self.lower_list(stmt.els, [cond])
            else:
                out = out + [cond]
            return out

        if isinstance(stmt, ast.While):
            cond = self.new_node(stmt)
            self.connect(frontier, cond)
            breaks: list[int] = []
            continues: list[int] = []
            self.break_stack.append(breaks)
            self.continue_stack.append(continues)
            body_out = self.lower_list(stmt.body, [cond])
            self.break_stack.pop()
            self.continue_stack.pop()
            self.connect(body_out, cond)
            for nid in continues:
                self.add_edge(nid, cond)
            return [cond] + breaks

        if isinstance(stmt, ast.DoWhile):
            cond = self.new_node(stmt)
            breaks = []
            continues = []
            self.break_stack.append(breaks)
            self.continue_stack.append(continues)
            marker = len(self.nodes)
            body_out = self.lower_list(stmt.body, frontier)
            self.break_stack.pop()
            self.continue_stack.pop()
            head = marker if marker < len(self.nodes) else cond
            self.connect(body_out, cond)
            for nid in continues:
                self.add_edge(nid, cond)
            self.add_edge(cond, head)
            return [cond] + breaks

        if isinstance(stmt, ast.For):
            if stmt.init is not None:
                frontier = self.lower(stmt.init, frontier)
            cond = self.new_node(stmt)
            self.connect(frontier, cond)
            step = None
            if stmt.step is not None:
                synth = ast.ExprStmt(
                    stmt.step, line=stmt.step.line, col=stmt.step.col
                )
                step = self.new_node(synth)
            breaks = []
            continues = []
            self.break_stack.append(breaks)
            self.continue_stack.append(continues)
            body_out = self.lower_list(stmt.body, [cond])
            self.break_stack.pop()
            self.continue_stack.pop()
            back = step if step is not None else cond
            self.connect(body_out, back)
            for nid in continues:
                self.add_edge(nid, back)
            if step is not None:
                self.add_edge(step, cond)
            out = list(breaks)
            if stmt.cond is not None:  # for(;;) never falls out of the loop
                out.append(cond)
            return out

        if isinstance(stmt, ast.Switch):
            subject = self.new_node(stmt)
            self.connect(frontier, subject)
            breaks = []
            self.break_stack.append(breaks)
            fall: list[int] = []
            has_default = False
            for case in stmt.cases:
                if None in case.labels:
                    has_default = True
                fall = self.lower_list(case.body, [subject] + fall)
            self.break_stack.pop()
            out = breaks + fall
            if not has_default:
                out.append(subject)
            return out

        if isinstance(stmt, ast.Break):
            nid = self.new_node(stmt)
            self.connect(frontier, nid)
            if self.break_stack:
                self.break_stack[-1].append(nid)
            else:
                self.add_edge(nid, EXIT)
            return []

        if isinstance(stmt, ast.Continue):
            nid = self.new_node(stmt)
            self.connect(frontier, nid)
            if self.continue_stack:
                self.continue_stack[-1].append(nid)
            else:
                self.add_edge(nid, EXIT)
            return []

        if isinstance(stmt, ast.Opaque):
            nid = self.new_node(stmt)
            self.connect(frontier, nid)
            return [nid]

        # anything unexpected falls through transparently
        nid = self.new_node(stmt)
        self.connect(frontier, nid)
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
