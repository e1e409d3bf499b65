"""Recursive-descent parser for the C stub subset.

Covers what stub files use: declarations with initializers, assignments,
calls, if/while/do/for/switch, casts, sizeof, compound literals, member and
index access.  Inline asm becomes an opaque statement; goto is reported as
an unsupported construct.  A function whose body cannot be parsed is
dropped with a diagnostic while the rest of the file is still analyzed.
"""

from __future__ import annotations

from ..diagnostics import WARNING, Diagnostic
from . import nodes
from .intrinsics import CAMLLOCAL
from .nodes import ADDR, ASSIGN, BUMP, CALL, DEREF
from .lexer import Token, lex

BASE_TYPE_WORDS = frozenset(
    {
        "void", "char", "short", "int", "long", "float", "double",
        "signed", "unsigned", "_Bool", "bool",
        "value", "intnat", "uintnat", "mlsize_t", "tag_t",
        "size_t", "ssize_t", "ptrdiff_t", "intptr_t", "uintptr_t",
        "int8_t", "uint8_t", "int16_t", "uint16_t",
        "int32_t", "uint32_t", "int64_t", "uint64_t",
        "pthread_t", "pthread_mutex_t",
    }
)

QUALIFIER_WORDS = frozenset(
    {
        "static", "extern", "inline", "__inline", "__inline__", "register",
        "const", "volatile", "restrict", "__restrict", "__restrict__",
        "CAMLprim", "CAMLexport", "CAMLextern", "CAMLweakdef",
    }
)

_ASSIGN_OPS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
)

_ASM_WORDS = frozenset({"asm", "__asm", "__asm__"})

# C's operators that follow an operand, below the postfix ones; a higher
# number binds tighter.  The binary operators are left-associative, the
# conditional and the assignments group to the right.
_ASSIGN = 1
_CONDITIONAL = 2
_PREC = {
    **dict.fromkeys(_ASSIGN_OPS, _ASSIGN),
    "?": _CONDITIONAL,
    "||": 3, "&&": 4, "|": 5, "^": 6, "&": 7,
    "==": 8, "!=": 8,
    "<": 9, ">": 9, "<=": 9, ">=": 9,
    "<<": 10, ">>": 10,
    "+": 11, "-": 11,
    "*": 12, "/": 12, "%": 12,
}


# How deep statements and expressions may nest, counted together.  A level
# is a statement, a switch, an operand, a parenthesis (cast and compound
# literal included), a postfix operator, a binary, conditional or assignment
# operator (its left operand is a tree already), or an initializer brace.
# The parser and the walks over its trees (CFG building, fact_of, eval_const,
# the guard fold) recurse at most two frames per level, so input
# at the cap needs about 400 frames, well inside Python's default recursion
# limit of 1000; deeper input is unsupported.  C99 (5.2.4.1) asks compilers
# for 127 nested blocks and 63 nested parentheses, and 200 levels hold either.
MAX_NESTING = 200


class CParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_EOF = Token("punct", "<eof>", 0, 0)


class _Parser:
    def __init__(self, tokens: list[Token], file: str):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.file = file
        self.diagnostics: list[Diagnostic] = []
        # the ops of the statement-level expression being parsed; each node
        # that performs one appends it as it is built (see nodes, "Ops").
        # A statement keeps a copy, so what other expressions append (case
        # labels, global initializers) lands in a list nothing keeps.
        self.ops: list[tuple] = []

    # -- token plumbing -----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        try:
            return self.tokens[self.pos + offset]
        except IndexError:
            return _EOF

    def take(self) -> Token:
        try:
            tok = self.tokens[self.pos]
        except IndexError:
            tok = _EOF
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        try:
            return self.tokens[self.pos].text == text
        except IndexError:
            return _EOF.text == text

    def accept(self, text: str) -> Token | None:
        if self.at(text):
            return self.take()
        return None

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise CParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return self.take()

    def nest(self, tok: Token) -> int:
        """Go one nesting level deeper, at `tok`; returns the depth before,
        for the caller to restore."""
        depth = self.depth
        if depth >= MAX_NESTING:
            raise CParseError(
                f"nested more than {MAX_NESTING} levels deep", tok.line, tok.col
            )
        self.depth = depth + 1
        return depth

    def eof(self) -> bool:
        return self.pos >= len(self.tokens)

    def warn(self, message: str, tok: Token):
        self.diagnostics.append(
            Diagnostic(
                "UNSUPPORTED_CONSTRUCT", WARNING, self.file, tok.line, tok.col, message
            )
        )

    # -- type specifiers ----------------------------------------------------

    def try_specifiers(self):
        """Parse declaration specifiers; returns (quals, base) or None if the
        tokens here cannot start a declaration."""
        save = self.pos
        quals: set[str] = set()
        base_words: list[str] = []
        while True:
            tok = self.peek()
            if tok.kind != "ident":
                break
            if tok.text in QUALIFIER_WORDS:
                quals.add(tok.text)
                self.take()
                continue
            if tok.text in ("struct", "union", "enum"):
                self.take()
                tag = ""
                if self.peek().kind == "ident":
                    tag = self.take().text
                if self.at("{"):
                    self.skip_balanced("{", "}")
                base_words.append((tok.text + " " + tag).strip())
                break
            if tok.text in BASE_TYPE_WORDS:
                base_words.append(tok.text)
                self.take()
                # multi-word arithmetic types: unsigned long, long long, ...
                while self.peek().kind == "ident" and self.peek().text in (
                    "char", "short", "int", "long", "double",
                ):
                    base_words.append(self.take().text)
                break
            # a lone identifier can be a typedef name, but only when the
            # token after it still looks like a declarator
            nxt = self.peek(1)
            if nxt.text == "*" or nxt.kind == "ident":
                base_words.append(tok.text)
                self.take()
                break
            break
        if not base_words:
            self.pos = save
            return None
        return quals, " ".join(base_words)

    def parse_pointers(self) -> int:
        ptrs = 0
        while self.at("*"):
            self.take()
            ptrs += 1
            while self.peek().text in ("const", "volatile", "restrict"):
                self.take()
        return ptrs

    def skip_balanced(self, open_tok: str, close_tok: str):
        tok = self.expect(open_tok)
        depth = 1
        while depth and not self.eof():
            t = self.take()
            if t.text == open_tok:
                depth += 1
            elif t.text == close_tok:
                depth -= 1
        if depth:
            raise CParseError(f"unbalanced {open_tok!r}", tok.line, tok.col)

    # -- top level ------------------------------------------------------

    def parse_unit(self) -> nodes.StubUnit:
        unit = nodes.StubUnit(file=self.file)
        while not self.eof():
            start = self.pos
            try:
                self.top_level_item(unit)
            except CParseError as exc:
                self.warn(f"unparsed construct: {exc.args[0]}", self.peek())
                self.recover_top_level(start)
            if self.pos == start:  # safety: never loop in place
                self.take()
        unit.diagnostics = self.diagnostics
        return unit

    def recover_top_level(self, start: int):
        if self.pos == start:
            self.pos += 1
        depth = 0
        while not self.eof():
            t = self.take()
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                if depth <= 1:
                    return
                depth -= 1
            elif t.text == ";" and depth == 0:
                return

    def top_level_item(self, unit: nodes.StubUnit):
        if self.accept(";"):
            return
        tok = self.peek()
        if tok.text == "typedef":
            self.take()
            while not self.eof() and not self.at(";"):
                if self.at("{"):
                    self.skip_balanced("{", "}")
                else:
                    self.take()
            self.expect(";")
            return
        spec = self.try_specifiers()
        if spec is None:
            raise CParseError(
                f"cannot parse top-level token {tok.text!r}", tok.line, tok.col
            )
        quals, base = spec
        if self.accept(";"):  # bare struct/enum definition
            return
        first = True
        while True:
            ptrs = self.parse_pointers()
            name_tok = self.peek()
            if name_tok.kind != "ident":
                raise CParseError(
                    f"expected declarator, found {name_tok.text!r}",
                    name_tok.line,
                    name_tok.col,
                )
            self.take()
            if first and self.at("("):
                self.parse_function_tail(unit, quals, base, ptrs, name_tok)
                return
            first = False
            # a global: consumed, not recorded
            if self.at("["):
                self.skip_balanced("[", "]")
            if self.accept("="):
                self.parse_initializer()
            if self.accept(","):
                continue
            self.expect(";")
            return

    def parse_function_tail(self, unit, quals, base, ptrs, name_tok):
        params = self.parse_params()
        ret = nodes.CType(base, ptrs)
        is_camlprim = "CAMLprim" in quals or ret.is_value
        if self.accept(";"):  # a prototype: consumed, not recorded
            return
        brace = self.peek()
        if brace.text != "{":
            raise CParseError(
                f"expected function body, found {brace.text!r}", brace.line, brace.col
            )
        body_start = self.pos
        try:
            body = self.parse_block()
        except CParseError as exc:
            self.pos = body_start
            self.skip_balanced("{", "}")
            self.warn(
                f"could not parse body of '{name_tok.text}': {exc.args[0]}", name_tok
            )
            return
        fn = nodes.StubFunction(
            name=name_tok.text,
            params=[(n or "", t) for n, t in params],
            return_type=ret,
            is_camlprim=is_camlprim,
            body=body,
            file=self.file,
            line=name_tok.line,
            col=name_tok.col,
        )
        _collect_locals(body, fn.locals)
        unit.functions.append(fn)

    def parse_params(self):
        self.expect("(")
        if self.accept(")"):
            return []
        if self.at("void") and self.peek(1).text == ")":
            self.take()
            self.take()
            return []
        params = []
        while True:
            if self.at("..."):
                self.take()
                break
            spec = self.try_specifiers()
            if spec is None:
                tok = self.peek()
                raise CParseError(
                    f"expected parameter type, found {tok.text!r}", tok.line, tok.col
                )
            _, base = spec
            ptrs = self.parse_pointers()
            name = None
            if self.peek().kind == "ident":
                name = self.take().text
            array = False
            if self.at("["):
                self.skip_balanced("[", "]")
                array = True
            params.append((name, nodes.CType(base, ptrs, array=array)))
            if not self.accept(","):
                break
        self.expect(")")
        return params

    # -- statements -----------------------------------------------------

    def parse_block(self) -> list:
        self.expect("{")
        stmts: list = []
        while not self.at("}"):
            if self.eof():
                tok = self.peek()
                raise CParseError("unbalanced '{'", tok.line, tok.col)
            stmts.extend(self.parse_body_or_single())
        self.expect("}")
        return stmts

    def parse_body_or_single(self) -> list:
        """One statement, as the list of statements it contributes: labels
        are transparent for analysis and skipped, and a braced block is
        spliced into its statements."""
        depth = self.nest(self.peek())
        try:
            while (
                self.peek().kind == "ident"
                and self.peek(1).text == ":"
                and self.peek().text not in ("default", "case")
            ):
                self.take()
                self.take()
            if self.at("{"):
                return self.parse_block()
            stmt = self.parse_stmt()
            return [stmt] if stmt is not None else []
        finally:
            self.depth = depth

    def parse_stmt(self):
        tok = self.peek()
        text = tok.text

        if text == ";":
            self.take()
            return None
        if text == "if":
            self.take()
            self.expect("(")
            cond, ops = self.statement_expr()
            self.expect(")")
            then = self.parse_body_or_single()
            els = None
            if self.accept("else"):
                els = self.parse_body_or_single()
            return nodes.If(cond, then, els, ops, line=tok.line, col=tok.col)
        if text == "while":
            self.take()
            self.expect("(")
            cond, ops = self.statement_expr()
            self.expect(")")
            body = self.parse_body_or_single()
            return nodes.While(cond, body, ops, line=tok.line, col=tok.col)
        if text == "do":
            self.take()
            body = self.parse_body_or_single()
            self.expect("while")
            self.expect("(")
            cond, ops = self.statement_expr()
            self.expect(")")
            self.expect(";")
            return nodes.DoWhile(body, cond, ops, line=tok.line, col=tok.col)
        if text == "for":
            self.take()
            self.expect("(")
            init = None
            if not self.at(";"):
                if self.starts_decl():
                    init = self.parse_decl_stmt(consume_semi=False)
                else:
                    expr, ops = self.statement_expr()
                    init = nodes.ExprStmt(expr, ops, line=tok.line, col=tok.col)
            self.expect(";")
            cond, ops = (None, ()) if self.at(";") else self.statement_expr()
            self.expect(";")
            step = None
            if not self.at(")"):
                expr, step_ops = self.statement_expr()
                step = nodes.ExprStmt(expr, step_ops, line=expr.line, col=expr.col)
            self.expect(")")
            body = self.parse_body_or_single()
            return nodes.For(init, cond, step, body, ops, line=tok.line, col=tok.col)
        if text == "switch":
            return self.parse_switch()
        if text == "return":
            self.take()
            expr, ops = (None, ()) if self.at(";") else self.statement_expr()
            self.expect(";")
            return nodes.Return(expr, ops, line=tok.line, col=tok.col)
        if text == "break":
            self.take()
            self.expect(";")
            return nodes.Break(line=tok.line, col=tok.col)
        if text == "continue":
            self.take()
            self.expect(";")
            return nodes.Continue(line=tok.line, col=tok.col)
        if text == "goto":
            self.take()
            label = self.take()
            self.accept(";")
            self.warn("goto is outside the analyzed subset", tok)
            return nodes.Opaque(
                text=f"goto {label.text}", reason="goto", line=tok.line, col=tok.col
            )
        if text in _ASM_WORDS:
            self.take()
            while self.peek().text in ("volatile", "__volatile__", "inline", "goto"):
                self.take()
            if self.at("("):
                self.skip_balanced("(", ")")
            self.accept(";")
            return nodes.Opaque(
                text="asm", reason="inline asm", line=tok.line, col=tok.col
            )
        if self.starts_decl():
            return self.parse_decl_stmt()
        expr, ops = self.statement_expr()
        self.expect(";")
        return nodes.ExprStmt(expr, ops, line=tok.line, col=tok.col)

    def statement_expr(self):
        """Parse a statement-level expression; returns it with its ops."""
        self.ops = []
        expr = self.parse_expr()
        return expr, tuple(self.ops)

    def parse_switch(self):
        tok = self.expect("switch")
        # three frames lead down to a case body, so the switch is a level too
        depth = self.nest(tok)
        try:
            self.expect("(")
            subject, ops = self.statement_expr()
            self.expect(")")
            self.expect("{")
            cases: list[nodes.SwitchCase] = []
            current: nodes.SwitchCase | None = None
            while not self.at("}"):
                if self.eof():
                    raise CParseError("unbalanced '{' in switch", tok.line, tok.col)
                if self.at("case"):
                    lab_tok = self.take()
                    label = self.parse_expr()
                    self.expect(":")
                    if current is None or current.body:
                        current = nodes.SwitchCase(
                            labels=[], line=lab_tok.line, col=lab_tok.col
                        )
                        cases.append(current)
                    current.labels.append(label)
                    continue
                if self.at("default"):
                    lab_tok = self.take()
                    self.expect(":")
                    if current is None or current.body:
                        current = nodes.SwitchCase(
                            labels=[], line=lab_tok.line, col=lab_tok.col
                        )
                        cases.append(current)
                    current.labels.append(None)
                    continue
                if current is None:
                    t = self.peek()
                    raise CParseError(
                        "statement before first case label", t.line, t.col
                    )
                current.body.extend(self.parse_body_or_single())
            self.expect("}")
            return nodes.Switch(subject, cases, ops, line=tok.line, col=tok.col)
        finally:
            self.depth = depth

    def starts_decl(self) -> bool:
        tok = self.peek()
        if tok.kind != "ident":
            return False
        if tok.text in QUALIFIER_WORDS or tok.text in BASE_TYPE_WORDS:
            return True
        if tok.text in ("struct", "union", "enum"):
            return True
        nxt = self.peek(1)
        if nxt.kind == "ident":
            return True  # "xc_interface xch"
        if nxt.text == "*":
            # "T *p;" vs "a * b;": scan stars, require ident then a
            # declarator-ish continuation
            j = 1
            while self.peek(j).text == "*":
                j += 1
            if self.peek(j).kind == "ident" and self.peek(j + 1).text in (
                ";", "=", ",", "[", ")",
            ):
                return True
        return False

    def parse_decl_stmt(self, consume_semi: bool = True):
        tok = self.peek()
        spec = self.try_specifiers()
        if spec is None:
            raise CParseError(
                f"expected declaration, found {tok.text!r}", tok.line, tok.col
            )
        _, base = spec
        decls = []
        while True:
            ptrs = self.parse_pointers()
            name_tok = self.peek()
            if name_tok.kind != "ident":
                raise CParseError(
                    f"expected declarator, found {name_tok.text!r}",
                    name_tok.line,
                    name_tok.col,
                )
            self.take()
            array = False
            if self.at("["):
                self.skip_balanced("[", "]")
                array = True
            init = None
            ops = ()
            if self.accept("="):
                self.ops = []
                init = self.parse_initializer()
                # the store sits at the name's token, not at the declaration
                # that holds these ops: an op never refers to its statement
                ops = (*self.ops, (ASSIGN, name_tok.text, "=", init, name_tok))
            decls.append(
                nodes.VarDecl(
                    name_tok.text,
                    nodes.CType(base, ptrs, array=array),
                    init,
                    ops,
                    line=name_tok.line,
                    col=name_tok.col,
                )
            )
            if self.accept(","):
                continue
            break
        if consume_semi:
            self.expect(";")
        return nodes.DeclStmt(decls, line=tok.line, col=tok.col)

    def parse_initializer(self):
        if self.at("{"):
            tok = self.peek()
            inits = self.parse_brace_list()
            return nodes.CompoundLit(None, inits, line=tok.line, col=tok.col)
        return self.parse_expr()

    def parse_brace_list(self) -> list:
        depth = self.nest(self.expect("{"))
        try:
            inits: list = []
            while not self.at("}"):
                if self.eof():
                    tok = self.peek()
                    raise CParseError("unbalanced '{'", tok.line, tok.col)
                # designators: .field = expr  (parsed loosely)
                if self.at(".") and self.peek(1).kind == "ident":
                    self.take()
                    self.take()
                    self.expect("=")
                if self.at("{"):
                    inits.extend(self.parse_brace_list())
                else:
                    inits.append(self.parse_expr())
                if not self.accept(","):
                    break
            self.expect("}")
            return inits
        finally:
            self.depth = depth

    # -- expressions ----------------------------------------------------

    def parse_expr(self, min_prec: int = _ASSIGN):
        """Precedence climbing: an operand and every operator after it that
        binds at least `min_prec`, each right operand taking only tighter
        ones (or as tight, for the right-grouping ones)."""
        left = self.parse_unary()
        depth = self.depth
        try:
            while True:
                tok = self.peek()
                prec = _PREC.get(tok.text, 0)
                if prec < min_prec:
                    return left
                self.take()
                self.nest(tok)
                if prec == _ASSIGN:
                    right = self.parse_expr(_ASSIGN)
                    node = nodes.Assign(
                        left, right, tok.text, line=tok.line, col=tok.col
                    )
                    if isinstance(left, nodes.Name):
                        self.ops.append((ASSIGN, left.ident, tok.text, right, node))
                    left = node
                elif prec == _CONDITIONAL:
                    then = self.parse_expr()
                    self.expect(":")
                    els = self.parse_expr(_CONDITIONAL)
                    left = nodes.Ternary(left, then, els, line=tok.line, col=tok.col)
                else:
                    right = self.parse_expr(prec + 1)
                    left = nodes.Binary(
                        tok.text, left, right, line=tok.line, col=tok.col
                    )
        finally:
            self.depth = depth

    def parse_unary(self):
        tok = self.peek()
        depth = self.nest(tok)
        try:
            op = tok.text
            if op in ("*", "&", "!", "~", "-", "+", "++", "--"):
                self.take()
                operand = self.parse_unary()
                node = nodes.Unary(op, operand, True, line=tok.line, col=tok.col)
                if op == "*":
                    self.ops.append((DEREF, operand, node))
                elif isinstance(operand, nodes.Name):
                    if op == "&":
                        self.ops.append((ADDR, operand.ident, node))
                    elif op == "++" or op == "--":
                        self.ops.append((BUMP, operand.ident))
                return node
            if tok.text == "sizeof":
                self.take()
                if self.at("(") and self.is_type_ahead(1):
                    self.expect("(")
                    ctype = self.parse_type_name()
                    self.expect(")")
                    return nodes.SizeofType(ctype, line=tok.line, col=tok.col)
                operand = self.parse_unary()
                return nodes.Unary("sizeof", operand, True, line=tok.line, col=tok.col)
            return self.parse_postfix()
        finally:
            self.depth = depth

    def is_type_ahead(self, offset: int) -> bool:
        tok = self.peek(offset)
        if tok.kind != "ident":
            return False
        if tok.text in BASE_TYPE_WORDS or tok.text in (
            "struct", "union", "enum", "const", "volatile", "unsigned", "signed",
        ):
            return True
        j = offset + 1
        stars = 0
        while self.peek(j).text == "*":
            stars += 1
            j += 1
        if self.peek(j).text == ")":
            return stars > 0 or tok.text.endswith("_t")
        return False

    def parse_type_name(self) -> nodes.CType:
        spec = self.try_specifiers()
        if spec is None:
            tok = self.peek()
            raise CParseError(
                f"expected type name, found {tok.text!r}", tok.line, tok.col
            )
        _, base = spec
        ptrs = self.parse_pointers()
        return nodes.CType(base, ptrs)

    def parse_postfix(self):
        expr = self.parse_primary()
        depth = self.depth
        try:
            while True:
                tok = self.peek()
                if tok.text not in ("(", "[", ".", "->", "++", "--"):
                    return expr
                self.take()
                self.nest(tok)
                if tok.text == "(":
                    args = []
                    if not self.at(")"):
                        while True:
                            args.append(self.parse_expr())
                            if not self.accept(","):
                                break
                    self.expect(")")
                    call = nodes.Call(expr, args, line=tok.line, col=tok.col)
                    if isinstance(expr, nodes.Name):
                        self.ops.append((CALL, expr.ident, call))
                    expr = call
                elif tok.text == "[":
                    index = self.parse_expr()
                    self.expect("]")
                    node = nodes.Index(expr, index, line=tok.line, col=tok.col)
                    self.ops.append((DEREF, expr, node))
                    expr = node
                elif tok.text in (".", "->"):
                    name = self.take()
                    arrow = tok.text == "->"
                    node = nodes.Member(
                        expr, name.text, arrow, line=tok.line, col=tok.col
                    )
                    if arrow:
                        self.ops.append((DEREF, expr, node))
                    expr = node
                else:
                    if isinstance(expr, nodes.Name):
                        self.ops.append((BUMP, expr.ident))
                    expr = nodes.Unary(
                        tok.text, expr, False, line=tok.line, col=tok.col
                    )
        finally:
            self.depth = depth

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return nodes.Num(tok.text, _num_value(tok.text), line=tok.line, col=tok.col)
        if tok.kind == "str":
            self.take()
            text = tok.text
            while self.peek().kind == "str":  # adjacent literals concatenate
                text += " " + self.take().text
            return nodes.StrLit(text, line=tok.line, col=tok.col)
        if tok.kind == "char":
            self.take()
            return nodes.CharLit(tok.text, line=tok.line, col=tok.col)
        if tok.kind == "ident":
            self.take()
            return nodes.Name(tok.text, line=tok.line, col=tok.col)
        if tok.text != "(":
            raise CParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)
        depth = self.nest(tok)
        try:
            if self.is_type_ahead(1):
                self.take()
                ctype = self.parse_type_name()
                self.expect(")")
                if self.at("{"):
                    inits = self.parse_brace_list()
                    return nodes.CompoundLit(ctype, inits, line=tok.line, col=tok.col)
                operand = self.parse_unary()
                return nodes.Cast(ctype, operand, line=tok.line, col=tok.col)
            self.take()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        finally:
            self.depth = depth


def _num_value(text: str):
    # f and F are digits in a hex literal, float suffixes elsewhere
    body = text.rstrip("uUlL" if text[:2] in ("0x", "0X") else "uUlLfF")
    try:
        # a leading 0 makes an integer literal octal
        return int(body, 8 if body[:1] == "0" and body.isdigit() else 0)
    except ValueError:
        try:
            return float(body)
        except ValueError:
            return None


def _collect_locals(stmts, found: list[tuple[str, nodes.CType]]):
    """Append the locals declared in `stmts`, nested bodies included.

    A module-level function, not a closure over `found`: a closure that
    calls itself is a reference cycle, which only the cyclic collector
    frees."""
    for stmt in stmts:
        if isinstance(stmt, nodes.DeclStmt):
            for d in stmt.decls:
                found.append((d.name, d.ctype))
        elif isinstance(stmt, nodes.ExprStmt):
            expr = stmt.expr
            if isinstance(expr, nodes.Call) and expr.callee in CAMLLOCAL:
                for arg in expr.args:
                    if isinstance(arg, nodes.Name):
                        found.append((arg.ident, nodes.CType("value")))
        elif isinstance(stmt, nodes.If):
            _collect_locals(stmt.then, found)
            if stmt.els:
                _collect_locals(stmt.els, found)
        elif isinstance(stmt, (nodes.While, nodes.DoWhile)):
            _collect_locals(stmt.body, found)
        elif isinstance(stmt, nodes.For):
            if stmt.init is not None:
                _collect_locals([stmt.init], found)
            _collect_locals(stmt.body, found)
        elif isinstance(stmt, nodes.Switch):
            for case in stmt.cases:
                _collect_locals(case.body, found)


def parse_unit(preprocessed_text: str, file_name: str) -> nodes.StubUnit:
    """Parse one preprocessed translation unit."""
    tokens = lex(preprocessed_text)
    return _Parser(tokens, file_name).parse_unit()


def parse_expression(text: str):
    """Parse all of `text` as one expression.  Raises CLexError or
    CParseError when it is not one."""
    parser = _Parser(lex(text), "<expression>")
    expr = parser.parse_expr()
    if not parser.eof():
        tok = parser.peek()
        raise CParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)
    return expr
