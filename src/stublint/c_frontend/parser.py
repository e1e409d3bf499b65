"""Recursive-descent parser for the C stub subset.

Covers what stub files use: declarations with initializers, assignments,
calls, if/while/do/for/switch, casts, sizeof, compound literals, member and
index access.  Inline asm becomes an opaque statement; goto is reported as
an unsupported construct.  A function whose body cannot be parsed is
dropped with a diagnostic while the rest of the file is still analyzed.

Each shape of the grammar is read in one place.  `declarator` reads
pointers, a name and an array suffix, for a local, a global or a
parameter; `declarators` reads the initializers and the rest of a
declarator list, for a declaration statement and for globals alike.
`condition` reads the parenthesized expression of `if`, `while`, `do` and
`switch`.

A statement is dispatched on its first token's text, and each statement
routine returns the list of statements it contributes, those that execute,
in order: a declaration gives its initialized declarators and records every
declarator as a local, a `for` gives its init statements and then the For,
a statement-level `CAMLreturn*(...)` call or a bare `CAMLreturn0` gives a
Return, and `;` gives none.  So a body holds no declaration that executes
nothing.  One routine, `parse_expr`, parses an expression: a loop over its
prefix operators, the primary, a loop over its postfix operators, then the
binary, conditional, assignment and comma operators by precedence climbing.
A cast's operand is `parse_expr(_UNARY)`.  So a name or a number costs no
call of its own, and a call `f(x)` one for each argument.

A token is the lexer's plain tuple, read by unpacking or through the index
names KIND, TEXT, LINE and COL.
"""

from __future__ import annotations

from ..diagnostics import WARNING, Diagnostic
from . import nodes
from .intrinsics import CAMLLOCAL, CAMLRETURN
from .lexer import COL, KIND, LINE, TEXT, Token, lex

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

# `sizeof` first takes a parenthesized type name if one follows
_PREFIX_OPS = frozenset({"*", "&", "!", "~", "-", "+", "++", "--", "sizeof"})
# kinds of token that never directly follow a parenthesized expression (C99
# 6.5.4): after `(name)` they make it a cast
_OPERAND_KINDS = frozenset({"ident", "num", "str", "char"})
_POSTFIX_OPS = frozenset({"(", "[", ".", "->", "++", "--"})

# C's operators that follow an operand, below the postfix ones; a higher
# number binds tighter, and a token that is none of them has -1.  The binary
# operators are left-associative, the conditional and the assignments group
# to the right.  The comma operator is read only where an expression ends
# at `;`, `)` or `:`: a statement-level expression, a parenthesis and the
# middle operand of `?:` (C99 6.5.15).  An argument, an initializer, a
# `case` label and an `#if` guard stop at `,`.
_COMMA = 0
_ASSIGN = 1
_CONDITIONAL = 2
_PREC = {
    ",": _COMMA,
    **dict.fromkeys(_ASSIGN_OPS, _ASSIGN),
    "?": _CONDITIONAL,
    "||": 3, "&&": 4, "|": 5, "^": 6, "&": 7,
    "==": 8, "!=": 8,
    "<": 9, ">": 9, "<=": 9, ">=": 9,
    "<<": 10, ">>": 10,
    "+": 11, "-": 11,
    "*": 12, "/": 12, "%": 12,
}
# binds tighter than every operator above: parse_expr(_UNARY) parses one
# operand with its prefix and postfix operators
_UNARY = 13


# How deep statements and expressions may nest, counted together.  A level
# is a statement, a switch, an operand, a parenthesis (cast and compound
# literal included), a postfix operator, a binary, conditional or assignment
# operator (its left operand is a tree already), or an initializer brace.
# The parser and the walks over its trees (CFG building, the statement
# step's walk, fact_of, the constant fold with its leaves) recurse at most
# two frames per level, and the step's walk folds or classifies only the
# levels below the one it is at, so input at the cap needs about 400
# frames, well inside Python's default recursion limit of 1000; deeper
# input is unsupported.  C99 (5.2.4.1) asks compilers for 127 nested
# blocks and 63 nested parentheses, and 200 levels hold either.
MAX_NESTING = 200


class CParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


def _error(message: str, tok: Token) -> CParseError:
    return CParseError(message, tok[LINE], tok[COL])


class _Parser:
    def __init__(self, tokens: list[Token], file: str):
        # the list becomes the parser's: `end`, a token just past the last
        # one on disk, is appended to end it, so the token at `pos` always
        # exists and `take` never moves past it
        _, text, line, col = tokens[-1] if tokens else ("", "", 1, 1)
        self.end = ("punct", "<eof>", line, col + len(text))
        tokens.append(self.end)
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.file = file
        self.diagnostics: list[Diagnostic] = []
        # the locals of the function whose body is being parsed, in the
        # order they are declared
        self.locals: list[tuple[str, nodes.CType]] = []

    # -- token plumbing -----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        """The token `offset` ahead; past any token but `end`, there is one."""
        return self.tokens[self.pos + offset]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        if tok is not self.end:
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos][TEXT] == text

    def accept(self, text: str) -> Token | None:
        tok = self.tokens[self.pos]
        if tok[TEXT] != text:
            return None
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[TEXT] != text:
            raise _error(f"expected {text!r}, found {tok[TEXT]!r}", tok)
        self.pos += 1
        return tok

    def nest(self, tok: Token) -> int:
        """Go one nesting level deeper, at `tok`; returns the depth before,
        for the caller to restore."""
        depth = self.depth
        if depth >= MAX_NESTING:
            raise _error(f"nested more than {MAX_NESTING} levels deep", tok)
        self.depth = depth + 1
        return depth

    def eof(self) -> bool:
        return self.tokens[self.pos] is self.end

    def warn(self, message: str, tok: Token):
        _, _, line, col = tok
        self.diagnostics.append(
            Diagnostic("UNSUPPORTED_CONSTRUCT", WARNING, self.file, line, col, message)
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
            if tok[KIND] != "ident":
                break
            if tok[TEXT] in QUALIFIER_WORDS:
                quals.add(tok[TEXT])
                self.take()
                continue
            if tok[TEXT] in ("struct", "union", "enum"):
                self.take()
                tag = ""
                if self.peek()[KIND] == "ident":
                    tag = self.take()[TEXT]
                if self.at("{"):
                    self.skip_balanced("{", "}")
                base_words.append((tok[TEXT] + " " + tag).strip())
                break
            if tok[TEXT] in BASE_TYPE_WORDS:
                base_words.append(tok[TEXT])
                self.take()
                # multi-word arithmetic types: unsigned long, long long, ...
                while self.peek()[KIND] == "ident" and self.peek()[TEXT] in (
                    "char", "short", "int", "long", "double",
                ):
                    base_words.append(self.take()[TEXT])
                break
            # a lone identifier can be a typedef name, but only when the
            # token after it still looks like a declarator, or it ends a
            # type name, which `is_type_ahead` has judged
            nxt = self.peek(1)
            if nxt[TEXT] == "*" or nxt[KIND] == "ident" or nxt[TEXT] == ")":
                base_words.append(tok[TEXT])
                self.take()
                break
            break
        if not base_words:
            self.pos = save
            return None
        return quals, " ".join(base_words)

    def specifiers(self, what: str):
        """Parse declaration specifiers; returns (quals, base) or raises
        "expected `what`" if the tokens here cannot start a declaration."""
        spec = self.try_specifiers()
        if spec is None:
            tok = self.peek()
            raise _error(f"expected {what}, found {tok[TEXT]!r}", tok)
        return spec

    def declarator(self, base: str, named: bool = True):
        """A declarator of type `base` (C99 6.7.5): pointers, the name and an
        optional array suffix; returns (name token, CType).  The name may
        be missing only when not `named`, and is then None."""
        ptrs = self.parse_pointers()
        tok = self.peek()
        if tok[KIND] == "ident":
            self.take()
        elif named:
            raise _error(f"expected declarator, found {tok[TEXT]!r}", tok)
        else:
            tok = None
        array = self.at("[")
        if array:
            self.skip_balanced("[", "]")
        return tok, nodes.CType(base, ptrs, array=array)

    def declarators(self, base: str, name: Token, ctype: nodes.CType) -> list:
        """The rest of a declarator list whose first declarator is `name`
        of type `ctype`: each declarator's initializer, then `, declarator`
        and so on.  Each name is recorded as a local; returns the VarDecls
        of the initialized ones, the only ones that execute."""
        decls = []
        while True:
            _, ident, line, col = name
            self.locals.append((ident, ctype))
            if self.accept("="):
                init = self.parse_initializer()
                decls.append(nodes.VarDecl(line, col, ident, ctype, init))
            if not self.accept(","):
                return decls
            name, ctype = self.declarator(base)

    def parse_pointers(self) -> int:
        ptrs = 0
        while self.at("*"):
            self.take()
            ptrs += 1
            while self.peek()[TEXT] in ("const", "volatile", "restrict"):
                self.take()
        return ptrs

    def skip_balanced(self, open_tok: str, close_tok: str):
        """Move past the `open_tok` here and the `close_tok` that matches
        it.  No brace may lie inside a `(` or `[`, so a body that parses
        matches every brace it holds (see `parse_unit`)."""
        tokens = self.tokens
        tok = self.expect(open_tok)
        start = self.pos
        depth = 1
        for end in range(start, len(tokens)):
            text = tokens[end][TEXT]
            if text == open_tok:
                depth += 1
            elif text == close_tok:
                depth -= 1
                if not depth:
                    break
        else:
            self.pos = len(tokens) - 1  # at `end`
            raise _error(f"unbalanced {open_tok!r}", tok)
        self.pos = end + 1
        if open_tok != "{" and any(t[TEXT] in ("{", "}") for t in tokens[start:end]):
            raise _error(f"brace inside {open_tok!r}", tok)

    # -- top level ------------------------------------------------------

    def parse_unit(self, first: int, last: int | None) -> nodes.StubUnit:
        """Every top-level item, as the unit of those whose first token lies
        on a line from `first` up to, but not including, `last` (to the end
        when None).  Of an item that begins elsewhere only the head is
        parsed, a function's body is skipped, and its diagnostics are
        dropped; but a CAMLprim's name still goes in `camlprims`.

        A body that parses matches every brace it holds: the grammar matches
        each brace it reads, no label or member name is a brace, and
        `skip_balanced` lets no brace inside `( )` or `[ ]`.  So an item ends
        at one token whether its body is parsed or skipped, and every range
        of lines meets the items a parse of the whole file meets."""
        unit = nodes.StubUnit(file=self.file, diagnostics=self.diagnostics)
        while (tok := self.peek()) is not self.end:
            start = self.pos
            owned = first <= tok[LINE] and (last is None or tok[LINE] < last)
            noted = len(self.diagnostics)
            try:
                self.top_level_item(unit, owned)
            except CParseError as exc:
                # an item cut short by the end of the file is reported where it begins
                at = tok if self.eof() else self.peek()
                self.warn(f"unparsed construct: {exc.args[0]}", at)
                self.recover_top_level()
            if self.pos == start:  # safety: never loop in place
                self.take()
            if not owned:
                del self.diagnostics[noted:]
        return unit

    def recover_top_level(self):
        depth = 0
        while not self.eof():
            t = self.take()
            if t[TEXT] == "{":
                depth += 1
            elif t[TEXT] == "}":
                if depth <= 1:
                    return
                depth -= 1
            elif t[TEXT] == ";" and depth == 0:
                return

    def top_level_item(self, unit: nodes.StubUnit, owned: bool):
        if self.accept(";"):
            return
        tok = self.peek()
        if tok[TEXT] == "typedef":
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
            raise _error(f"cannot parse top-level token {tok[TEXT]!r}", tok)
        quals, base = spec
        if self.accept(";"):  # bare struct/enum definition
            return
        # a function's locals are collected from here, and globals land in
        # a list that no function keeps
        self.locals = []
        name_tok, ctype = self.declarator(base)
        if not ctype.array and self.at("("):
            self.parse_function_tail(unit, owned, quals, name_tok, ctype)
            return
        self.declarators(base, name_tok, ctype)  # globals: not recorded
        self.expect(";")

    def parse_function_tail(self, unit, owned, quals, name_tok, ret):
        """A function's parameters and body.  Only an `owned` function's body
        is parsed, and only an owned one is kept; the parameters are parsed
        in every part, so one whose parameters do not parse is a CAMLprim in
        none."""
        params = self.parse_params()
        # a static function is never an external's symbol
        is_camlprim = "CAMLprim" in quals or ret.is_value and "static" not in quals
        if self.accept(";"):  # a prototype: consumed, not recorded
            return
        brace = self.peek()
        if brace[TEXT] != "{":
            raise _error(f"expected function body, found {brace[TEXT]!r}", brace)
        if is_camlprim:
            unit.camlprims.add(name_tok[TEXT])
        if not owned:
            self.skip_balanced("{", "}")
            return
        body_start = self.pos
        try:
            body = self.parse_block()
        except CParseError as exc:
            self.pos = body_start
            self.skip_balanced("{", "}")
            self.warn(
                f"could not parse body of '{name_tok[TEXT]}': {exc.args[0]}", name_tok
            )
            return
        fn = nodes.StubFunction(
            name_tok[LINE],
            name_tok[COL],
            name_tok[TEXT],
            params,
            ret,
            is_camlprim,
            body,
            self.locals,
            self.file,
        )
        unit.functions.append(fn)

    def parse_params(self):
        self.expect("(")
        if self.accept(")"):
            return []
        if self.at("void") and self.peek(1)[TEXT] == ")":
            self.take()
            self.take()
            return []
        params = []
        while not self.accept("..."):
            _, base = self.specifiers("parameter type")
            # a parameter may be unnamed: `value *`, `int []`
            name_tok, ctype = self.declarator(base, named=False)
            params.append((name_tok[TEXT] if name_tok else "", ctype))
            if not self.accept(","):
                break
        self.expect(")")
        return params

    # -- statements -----------------------------------------------------

    def parse_block(self) -> list:
        self.expect("{")
        tokens = self.tokens
        stmts: list = []
        while (tok := tokens[self.pos])[TEXT] != "}":
            if tok is self.end:
                raise _error("unbalanced '{'", tok)
            stmts.extend(self.parse_stmt())
        self.pos += 1
        return stmts

    def parse_stmt(self) -> list:
        """One statement, as the list of statements it contributes: labels
        are transparent for analysis and skipped, and a braced block is
        spliced into its statements."""
        tokens = self.tokens
        tok = tokens[self.pos]
        depth = self.nest(tok)
        try:
            # a label: an identifier before a colon (a name that is not the
            # last token has one after it)
            while (
                tok[KIND] == "ident"
                and tokens[self.pos + 1][TEXT] == ":"
                and tok[TEXT] not in ("default", "case")
            ):
                self.pos += 2
                tok = tokens[self.pos]
            if tok[TEXT] == "{":
                return self.parse_block()
            keyword = self.STATEMENT_KEYWORDS.get(tok[TEXT])
            if keyword is not None:
                self.pos += 1
                return keyword(self, tok)
            stmts = self.simple_stmt(tok)
            self.expect(";")
            return stmts
        finally:
            self.depth = depth

    def simple_stmt(self, tok) -> list:
        """A declaration or an expression statement up to its `;`.  A
        declaration gives its initialized VarDecls; an expression gives one
        statement placed at `tok`: a Return for a `CAMLreturn*` call or a
        bare `CAMLreturn0`, else an ExprStmt.  A `CAMLlocal` call declares
        its names as locals of type value."""
        if self.starts_decl():
            _, base = self.specifiers("declaration")
            return self.declarators(base, *self.declarator(base))
        expr = self.parse_expr(_COMMA)
        if isinstance(expr, nodes.Call) and expr.callee in CAMLLOCAL:
            for arg in expr.args:
                if isinstance(arg, nodes.Name):
                    self.locals.append((arg.ident, nodes.CType("value")))
        return [_expr_stmt(tok[LINE], tok[COL], expr)]

    # Each statement that a keyword starts is parsed by a method of its own
    # that takes the keyword's token, already consumed, and returns the
    # statements it contributes.

    def parse_empty(self, tok):
        return []

    def parse_if(self, tok):
        # an `else if` chain is read in this loop, so a link costs no
        # nesting level.  The tree keeps its shape: each link's If is the
        # whole `els` of the one before.  As for any statement, a node is
        # made after its branches, so the Ifs are made innermost first.
        links = []
        els = None
        while True:
            cond = self.condition()
            links.append((cond, self.parse_stmt(), tok))
            if not self.accept("else"):
                break
            tok = self.tokens[self.pos]
            if tok[TEXT] != "if" or self.tokens[self.pos + 1][TEXT] == ":":
                els = self.parse_stmt()  # `if:` would be a label
                break
            self.pos += 1
        for cond, then, tok in reversed(links):
            els = [nodes.If(tok[LINE], tok[COL], cond, then, els)]
        return els

    def parse_while(self, tok):
        cond = self.condition()
        body = self.parse_stmt()
        return [nodes.While(tok[LINE], tok[COL], cond, body)]

    def parse_do(self, tok):
        body = self.parse_stmt()
        self.expect("while")
        cond = self.condition()
        self.expect(";")
        return [nodes.DoWhile(tok[LINE], tok[COL], body, cond)]

    def parse_for(self, tok):
        """The init statements, then the For."""
        self.expect("(")
        init = [] if self.at(";") else self.simple_stmt(tok)
        self.expect(";")
        cond = None if self.at(";") else self.parse_expr(_COMMA)
        self.expect(";")
        step = None
        if not self.at(")"):
            expr = self.parse_expr(_COMMA)
            step = _expr_stmt(expr.line, expr.col, expr)
        self.expect(")")
        body = self.parse_stmt()
        init.append(nodes.For(tok[LINE], tok[COL], cond, step, body))
        return init

    def parse_return(self, tok):
        expr = None if self.at(";") else self.parse_expr(_COMMA)
        self.expect(";")
        return [nodes.Return(tok[LINE], tok[COL], expr)]

    def parse_break(self, tok):
        self.expect(";")
        return [nodes.Break(tok[LINE], tok[COL])]

    def parse_continue(self, tok):
        self.expect(";")
        return [nodes.Continue(tok[LINE], tok[COL])]

    def parse_goto(self, tok):
        label = self.take()
        if label[TEXT] in ("{", "}"):
            raise _error("expected a label", label)
        self.accept(";")
        self.warn("goto is outside the analyzed subset", tok)
        return [nodes.Opaque(tok[LINE], tok[COL])]

    def parse_asm(self, tok):
        while self.peek()[TEXT] in ("volatile", "__volatile__", "inline", "goto"):
            self.take()
        if self.at("("):
            self.skip_balanced("(", ")")
        self.accept(";")
        return [nodes.Opaque(tok[LINE], tok[COL])]

    def condition(self):
        """A parenthesized statement-level expression."""
        self.expect("(")
        cond = self.parse_expr(_COMMA)
        self.expect(")")
        return cond

    def parse_switch(self, tok):
        # a switch is a level besides its statement's, so a case body sits
        # two levels in
        depth = self.nest(tok)
        try:
            subject = self.condition()
            self.expect("{")
            cases: list[nodes.SwitchCase] = []
            current: nodes.SwitchCase | None = None
            while not self.at("}"):
                if self.eof():
                    raise _error("unbalanced '{' in switch", tok)
                lab_tok = self.peek()
                if lab_tok[TEXT] in ("case", "default"):
                    self.take()
                    label = self.parse_expr() if lab_tok[TEXT] == "case" else None
                    self.expect(":")
                    # labels with no statement between them share one case
                    if current is None or current.body:
                        current = nodes.SwitchCase(lab_tok[LINE], lab_tok[COL])
                        cases.append(current)
                    current.labels.append(label)
                    continue
                if current is None:
                    raise _error("statement before first case label", lab_tok)
                current.body.extend(self.parse_stmt())
            self.expect("}")
            return [nodes.Switch(tok[LINE], tok[COL], subject, cases)]
        finally:
            self.depth = depth

    STATEMENT_KEYWORDS = {
        ";": parse_empty,
        "if": parse_if,
        "while": parse_while,
        "do": parse_do,
        "for": parse_for,
        "switch": parse_switch,
        "return": parse_return,
        "break": parse_break,
        "continue": parse_continue,
        "goto": parse_goto,
        **dict.fromkeys(_ASM_WORDS, parse_asm),
    }

    def starts_decl(self) -> bool:
        tokens = self.tokens
        pos = self.pos
        tok = tokens[pos]
        if tok[KIND] != "ident":
            return False
        if tok[TEXT] in QUALIFIER_WORDS or tok[TEXT] in BASE_TYPE_WORDS:
            return True
        if tok[TEXT] in ("struct", "union", "enum"):
            return True
        nxt = tokens[pos + 1]
        if nxt[KIND] == "ident":
            return True  # "xc_interface xch"
        if nxt[TEXT] == "*":
            # "T *p;" vs "a * b;": scan stars, require ident then a
            # declarator-ish continuation
            j = pos + 1
            while tokens[j][TEXT] == "*":
                j += 1
            if tokens[j][KIND] == "ident" and tokens[j + 1][TEXT] in (
                ";", "=", ",", "[", ")",
            ):
                return True
        return False

    def parse_initializer(self):
        if self.at("{"):
            tok = self.peek()
            inits = self.parse_brace_list()
            return nodes.CompoundLit(tok[LINE], tok[COL], None, inits)
        return self.parse_expr()

    def parse_brace_list(self) -> list:
        depth = self.nest(self.expect("{"))
        try:
            inits: list = []
            while not self.at("}"):
                if self.eof():
                    tok = self.peek()
                    raise _error("unbalanced '{'", tok)
                # designators: .field = expr  (parsed loosely)
                if self.at(".") and self.peek(1)[KIND] == "ident":
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
        """An operand and every operator after it that binds at least
        `min_prec`, each right operand taking only tighter ones (or as
        tight, for the right-grouping ones).

        The operand is its prefix operators, a primary and its postfix
        operators.  The operand is a nesting level, and so is each prefix
        operator, each postfix operator and each binary, conditional or
        assignment operator."""
        tokens = self.tokens
        depth = self.depth
        try:
            tok = tokens[self.pos]
            self.nest(tok)
            text = tok[TEXT]
            prefixes = []
            while text in _PREFIX_OPS:
                self.pos += 1
                if (
                    text == "sizeof"
                    and tokens[self.pos][TEXT] == "("
                    and self.is_type_ahead(1)
                ):
                    # a type operand ends the operand: no postfix follows
                    self.pos += 1
                    ctype = self.parse_type_name()
                    self.expect(")")
                    left = nodes.SizeofType(tok[LINE], tok[COL], ctype)
                    break
                prefixes.append(tok)
                tok = tokens[self.pos]
                self.nest(tok)
                text = tok[TEXT]
            else:  # the loop ended at the primary
                # a call below is reported at its callee, here
                kind, _, line, col = tok
                if kind == "ident":
                    self.pos += 1
                    left = nodes.Name(line, col, text)
                elif kind == "num":
                    self.pos += 1
                    left = nodes.Num(line, col, text, _num_value(text))
                else:
                    left = self.parse_primary()
                while True:
                    tok = tokens[self.pos]
                    text = tok[TEXT]
                    if text not in _POSTFIX_OPS:
                        break
                    self.pos += 1
                    self.nest(tok)
                    if text == "(":
                        args = []
                        if tokens[self.pos][TEXT] != ")":
                            while True:
                                args.append(self.parse_expr())
                                if not self.accept(","):
                                    break
                        self.expect(")")
                        left = nodes.Call(line, col, left, args)
                    elif text == "[":
                        index = self.parse_expr()
                        self.expect("]")
                        left = nodes.Index(tok[LINE], tok[COL], left, index)
                    elif text == "." or text == "->":
                        member = self.take()
                        if member[KIND] != "ident":
                            raise _error("expected a member name", member)
                        name, arrow = member[TEXT], text == "->"
                        left = nodes.Member(tok[LINE], tok[COL], left, name, arrow)
                    else:
                        left = nodes.Unary(tok[LINE], tok[COL], text, left, False)
            for tok in reversed(prefixes):
                left = nodes.Unary(tok[LINE], tok[COL], tok[TEXT], left, True)
            self.depth = depth
            while True:
                tok = tokens[self.pos]
                prec = _PREC.get(tok[TEXT], -1)
                if prec < min_prec:
                    return left
                self.pos += 1
                self.nest(tok)
                if prec == _ASSIGN:
                    right = self.parse_expr(_ASSIGN)
                    left = nodes.Assign(tok[LINE], tok[COL], left, right, tok[TEXT])
                elif prec == _CONDITIONAL:
                    then = self.parse_expr(_COMMA)
                    self.expect(":")
                    els = self.parse_expr(_CONDITIONAL)
                    left = nodes.Ternary(tok[LINE], tok[COL], left, then, els)
                else:
                    right = self.parse_expr(prec + 1)
                    left = nodes.Binary(tok[LINE], tok[COL], tok[TEXT], left, right)
        finally:
            self.depth = depth

    def is_type_ahead(self, offset: int) -> bool:
        tok = self.peek(offset)
        if tok[KIND] != "ident":
            return False
        if tok[TEXT] in BASE_TYPE_WORDS or tok[TEXT] in (
            "struct", "union", "enum", "const", "volatile", "unsigned", "signed",
        ):
            return True
        j = offset + 1
        stars = 0
        while self.peek(j)[TEXT] == "*":
            stars += 1
            j += 1
        if self.peek(j)[TEXT] != ")":
            return False
        return (
            stars > 0
            or tok[TEXT].endswith("_t")
            or self.peek(j + 1)[KIND] in _OPERAND_KINDS
        )

    def parse_type_name(self) -> nodes.CType:
        _, base = self.specifiers("type name")
        return nodes.CType(base, self.parse_pointers())

    def parse_primary(self):
        """A primary other than a name or a number: string and char
        literals, and a parenthesis, which holds an expression or the type
        of a cast or a compound literal."""
        tok = self.peek()
        if tok[KIND] == "str":
            self.take()
            text = tok[TEXT]
            while self.peek()[KIND] == "str":  # adjacent literals concatenate
                text += " " + self.take()[TEXT]
            return nodes.StrLit(tok[LINE], tok[COL], text)
        if tok[KIND] == "char":
            self.take()
            return nodes.CharLit(tok[LINE], tok[COL], tok[TEXT])
        if tok[TEXT] != "(":
            raise _error(f"unexpected token {tok[TEXT]!r}", tok)
        depth = self.nest(tok)
        try:
            if self.is_type_ahead(1):
                self.take()
                ctype = self.parse_type_name()
                self.expect(")")
                if self.at("{"):
                    inits = self.parse_brace_list()
                    return nodes.CompoundLit(tok[LINE], tok[COL], ctype, inits)
                operand = self.parse_expr(_UNARY)
                return nodes.Cast(tok[LINE], tok[COL], ctype, operand)
            self.take()
            expr = self.parse_expr(_COMMA)
            self.expect(")")
            return expr
        finally:
            self.depth = depth


def _expr_stmt(line: int, col: int, expr):
    """An expression statement at (line, col), or a Return if it is a
    `CAMLreturn*` call or a bare `CAMLreturn0`, as `caml/memory.h` defines
    it, which leave the function as `return` does."""
    bare = isinstance(expr, nodes.Name) and expr.ident == "CAMLreturn0"
    if bare or isinstance(expr, nodes.Call) and expr.callee in CAMLRETURN:
        return nodes.Return(line, col, expr)
    return nodes.ExprStmt(line, col, expr)


def _num_value(text: str):
    if "_" in text:
        return None  # int() and float() read `_` as a separator; C does not
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


def parse_tokens(
    tokens: list[Token], file_name: str, first: int = 0, last: int | None = None
) -> nodes.StubUnit:
    """Parse one preprocessed translation unit, given as its tokens, into
    the unit of its top-level items that begin on a line from `first` up
    to, but not including, `last` (to the end when None); the unit's
    `camlprims` name those of the whole file.  The list becomes the
    parser's."""
    return _Parser(tokens, file_name).parse_unit(first, last)


def parse_unit(source: str, file_name: str) -> nodes.StubUnit:
    """Preprocess and parse one translation unit.  The notes of
    preprocessing are left out: `preprocess_local` gives them."""
    from .preprocess import preprocess_local  # which imports this module

    return parse_tokens(preprocess_local(source, file_name).tokens, file_name)


def parse_expression(source: str | list[Token]):
    """Parse all of `source`, a text or its tokens, as one expression.
    Raises CLexError or CParseError when it is not one."""
    parser = _Parser(lex(source) if isinstance(source, str) else source, "<expression>")
    expr = parser.parse_expr()
    if not parser.eof():
        tok = parser.peek()
        raise _error(f"unexpected token {tok[TEXT]!r}", tok)
    return expr
