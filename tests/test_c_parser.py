"""Lexer and recursive-descent parser for the stub C subset."""

import re
import string

import pytest
from hypothesis import given, strategies as st

from stublint.c_frontend import nodes as ast
from stublint.c_frontend.lexer import CLexError, lex
from stublint.c_frontend.parser import (
    MAX_NESTING,
    CParseError,
    parse_expression,
    parse_tokens,
)
from stublint.c_frontend.preprocess import preprocess_local


def fn_of(unit, name=None):
    if name is None:
        assert len(unit.functions) == 1
        return unit.functions[0]
    return next(f for f in unit.functions if f.name == name)


STUB = """\
CAMLprim value stub_eventchn_notify(value xce, value port)
{
    CAMLparam2(xce, port);
    int rc;

    caml_enter_blocking_section();
    rc = xenevtchn_notify(_H(xce), Int_val(port));
    caml_leave_blocking_section();

    if (rc == -1)
        caml_failwith("evtchn notify failed");

    CAMLreturn(Val_unit);
}
"""


# -- lexer -------------------------------------------------------------------


def test_lexer_tracks_line_and_column():
    toks = lex("a\n  b")
    assert toks[0][1:] == ("a", 1, 1)
    assert toks[1][1:] == ("b", 2, 3)


def test_lexer_strings_and_chars():
    toks = lex(r'caml_failwith("evtchn \"notify\" failed"); c = ' + r"'\n';")
    texts = [text for _, text, _, _ in toks]
    assert r'"evtchn \"notify\" failed"' in texts
    assert r"'\n'" in texts


def test_lexer_char_constants_of_escapes_and_several_characters():
    # hex and octal escapes and multi-character constants are one token each
    # (C99 6.4.4.4); an escaped quote does not end the constant
    toks = lex(r"c = '\x41' + '\012' + 'ab' + '\'' + 'a';")
    chars = [(text, col) for kind, text, _, col in toks if kind == "char"]
    assert chars == [
        (r"'\x41'", 5), (r"'\012'", 14), ("'ab'", 23), (r"'\''", 30), ("'a'", 37)
    ]


def test_lexer_reads_literal_prefixes_and_preprocessing_numbers_whole():
    toks = lex("s = L\"x\" u8\"y\" + U'a' + Ux + 1.5e+E + 0x1Fu;")
    assert [(kind, text) for kind, text, _, _ in toks if text not in "s=+;"] == [
        ("str", 'L"x"'), ("str", 'u8"y"'), ("char", "U'a'"), ("ident", "Ux"),
        ("num", "1.5e+E"), ("num", "0x1Fu"),
    ]
    # a prefix that no complete literal follows is a name
    with pytest.raises(CLexError) as exc:
        lex('x = U"')
    assert (exc.value.line, exc.value.col) == (1, 6)


def test_lexer_two_char_operators_are_single_tokens():
    texts = [text for _, text, _, _ in lex("a == b && c -> d >>= e")]
    for op in ("==", "&&", "->", ">>="):
        assert op in texts


def test_lexer_rejects_stray_bytes():
    with pytest.raises(CLexError) as exc:
        lex("int x = 1 @ 2;")
    assert (exc.value.line, exc.value.col) == (1, 11)


BLANKS = " \t\r\f\v"
PUNCTUATORS = [
    "->", "++", "--", "<<=", ">>=", "<<", ">>", "<=", ">=", "==", "!=",
    "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "...",
    *"-+*/%&|^!~<>=?:;,.(){}[]",
]
# every character that always starts a token; a quote starts one only when
# a literal follows
TOKEN_STARTS = set(
    string.ascii_letters + string.digits + "_" + "".join(PUNCTUATORS)
)

TOKEN_OR_BLANK = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True),
    st.from_regex(
        r"0[xX][0-9a-fA-F]{1,4}|[0-9]{1,4}(\.[0-9]{0,2})?([eE]-?[0-9])?"
        r"[uUlLfF]{0,2}|\.[0-9]{1,3}",
        fullmatch=True,
    ),
    st.from_regex(r'"([^"\\\n]|\\[^\n]){0,5}"', fullmatch=True),
    st.from_regex(r"'([^'\\\n]|\\[^\n]){1,3}'", fullmatch=True),
    st.sampled_from(PUNCTUATORS),
    st.sampled_from([" ", "  ", "\t", "\n", "\r", "\f", "\v"]),
    # comments, a splice, and the `#` that opens a directive line
    st.sampled_from(["/* c */", "/* a\nb */", "// c", "\\\n", "\n#"]),
)
STRAY = st.sampled_from(["@", "$", "`", "#", "\\", '"', "'", "\x00", "\xa0", "é"])
# about one piece in sixteen is a stray byte, so that many soups lex
SOUP = st.lists(
    st.integers(0, 15).flatmap(lambda k: STRAY if k == 0 else TOKEN_OR_BLANK),
    max_size=40,
).map("".join)

# what may lie between two tokens: blanks, line ends and comments, the last
# of which may run to the end of the text
GAP_RE = re.compile(r"(?:\s|//[^\n]*|/\*[\s\S]*?\*/)*(?:/\*[\s\S]*)?")


def _opens_a_literal(rest: str) -> bool:
    """Whether `rest`, the remainder of a line from a quote on, begins with
    a complete string or char literal."""
    if rest[0] == "'":
        return re.match(r"'(?:\\.|[^'\\\n])+'", rest) is not None
    i = 1
    while i < len(rest):
        if rest[i] == "\\":
            i += 2
        elif rest[i] == '"':
            return True
        else:
            i += 1
    return False


def _spliced(text: str):
    """`text` with its backslash-newline splices taken out, and the offset
    in that of each (line, column) on disk that it keeps."""
    kept, offset = [], {}
    line = col = 1
    i = 0
    while i < len(text):
        if text.startswith("\\\n", i):
            line, col, i = line + 1, 1, i + 2
            continue
        offset[line, col] = len(kept)
        kept.append(text[i])
        line, col = (line + 1, 1) if text[i] == "\n" else (line, col + 1)
        i += 1
    return "".join(kept), offset


@given(SOUP)
def test_lexer_positions_cover_the_input(text):
    lines = text.split("\n")
    try:
        toks = lex(text)
    except CLexError as exc:
        rest = lines[exc.line - 1][exc.col - 1 :]
        assert rest[0] not in BLANKS and rest[0] not in TOKEN_STARTS
        if rest[0] in "\"'":
            assert not _opens_a_literal(rest)
        return
    # each token is the text at its place on disk, splices taken out, and
    # what lies between two tokens holds no token
    spliced, offset = _spliced(text)
    end = 0
    for t in toks:
        _, text, line, col = t
        start = offset[line, col]
        assert spliced.startswith(text, start)
        assert start >= end and GAP_RE.fullmatch(spliced[end:start]), t
        end = start + len(text)
    assert GAP_RE.fullmatch(spliced[end:])


# -- declarations and functions ---------------------------------------------


def test_stub_function_shape(parse_c):
    fn = fn_of(parse_c(STUB))
    assert fn.name == "stub_eventchn_notify"
    assert fn.is_camlprim
    assert [n for n, _ in fn.params] == ["xce", "port"]
    assert all(t.is_value for _, t in fn.params)
    assert fn.line == 1


def test_value_return_implies_primitive(parse_c):
    fn = fn_of(parse_c("value f(value a) { return a; }"))
    assert fn.is_camlprim


def test_pointer_returning_helper_is_not_primitive(parse_c):
    src = (
        "static inline xc_interface *xch_of_val(value v)\n"
        "{\n"
        "    xc_interface *xch = *(xc_interface **)Data_custom_val(v);\n"
        "    return xch;\n"
        "}\n"
    )
    fn = fn_of(parse_c(src))
    assert not fn.is_camlprim
    assert fn.return_type.pointers == 1


def test_struct_definition_is_skipped(parse_c):
    src = (
        "struct mmap_interface {\n"
        "    void *addr;\n"
        "    int len;\n"
        "};\n"
        "value f(value a) { return a; }\n"
    )
    unit = parse_c(src)
    assert [f.name for f in unit.functions] == ["f"]


def test_prototype_recorded_not_analyzed(parse_c):
    unit = parse_c("CAMLprim value stub_f(value a);\n")
    assert unit.functions == []


def test_declaration_heuristics(parse_c):
    src = (
        "value f(value a)\n"
        "{\n"
        "    xenevtchn_handle *xce;\n"  # unknown word + stars + ident => decl
        "    uint32_t domid;\n"  # _t suffix => decl
        "    int rc = 0;\n"
        "    rc = g();\n"  # plain expression statement
        "    return a;\n"
        "}\n"
    )
    fn = fn_of(parse_c(src))
    # the declarations are read as such: each names a local, and only the
    # initialized one executes
    assert [name for name, _ in fn.locals] == ["xce", "domid", "rc"]
    assert fn.locals[0][1].pointers == 1
    kinds = [type(s).__name__ for s in fn.body]
    assert kinds == ["VarDecl", "ExprStmt", "Return"]
    assert fn.body[0].name == "rc"


# -- expressions --------------------------------------------------------------


def expr_stmts(parse_c, body_src):
    src = "value f(value a)\n{\n" + body_src + "\nreturn a;\n}\n"
    return fn_of(parse_c(src)).body


def test_cast_versus_parenthesized_expression(parse_c):
    body = expr_stmts(parse_c, "x = (value)p; y = (a) + 1;")
    cast = body[0].expr.value
    assert isinstance(cast, ast.Cast)
    assert cast.ctype.is_value
    plain = body[1].expr.value
    assert isinstance(plain, ast.Binary)
    # a lone `_t` name before `)` is a typedef name, with or without a
    # qualifier
    body = expr_stmts(parse_c, "x = (pid_t) n; y = (const my_t) n;")
    casts = [s.expr.value for s in body[:2]]
    assert all(isinstance(cast, ast.Cast) for cast in casts)
    assert [cast.ctype.base for cast in casts] == ["pid_t", "my_t"]
    # any other lone name before `)` is a cast when an operand follows,
    # as no parenthesized expression is directly followed by one
    body = expr_stmts(parse_c, "x = (my_enum) Long_val(v); y = (my_enum) 3;")
    casts = [s.expr.value for s in body[:2]]
    assert all(isinstance(cast, ast.Cast) for cast in casts)
    assert [cast.ctype.base for cast in casts] == ["my_enum", "my_enum"]
    assert isinstance(casts[0].operand, ast.Call)
    assert isinstance(casts[1].operand, ast.Num)


def test_double_pointer_cast_of_call(parse_c):
    body = expr_stmts(parse_c, "p = (*((xenevtchn_handle **)Data_custom_val(h)));")
    deref = body[0].expr.value
    assert isinstance(deref, ast.Unary) and deref.op == "*"
    cast = deref.operand
    assert isinstance(cast, ast.Cast)
    assert cast.ctype.pointers == 2
    assert isinstance(cast.operand, ast.Call)
    assert cast.operand.callee == "Data_custom_val"


def test_member_and_index_chains(parse_c):
    body = expr_stmts(parse_c, "intf->len = a[0].len;")
    target = body[0].expr.target
    assert isinstance(target, ast.Member) and target.arrow
    source = body[0].expr.value
    assert isinstance(source, ast.Member) and not source.arrow
    assert isinstance(source.obj, ast.Index)


def test_sizeof_both_forms(parse_c):
    body = expr_stmts(
        parse_c,
        "a = sizeof(struct mmap_interface); b = sizeof(xce); c = sizeof(my_t);",
    )
    assert isinstance(body[0].expr.value, ast.SizeofType)
    inner = body[1].expr.value
    assert isinstance(inner, ast.Unary) and inner.op == "sizeof"
    sized = body[2].expr.value
    assert isinstance(sized, ast.SizeofType) and sized.ctype.base == "my_t"


def test_compound_literal(parse_c):
    body = expr_stmts(parse_c, "*intf = (struct mmap_interface){ ptr, len };")
    assign = body[0].expr
    assert isinstance(assign.value, ast.CompoundLit)
    assert len(assign.value.inits) == 2


def test_ternary_and_precedence(parse_c):
    body = expr_stmts(parse_c, "x = a ? b : c | d << 2;")
    assert isinstance(body[0].expr.value, ast.Ternary)


# C's binary operators, loosest first; operators on one line bind equally.
C_BINARY_PRECEDENCE = [
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]
PREC = {op: i for i, ops in enumerate(C_BINARY_PRECEDENCE) for op in ops}


def parenthesized(expr):
    if isinstance(expr, ast.Binary):
        return f"({parenthesized(expr.left)} {expr.op} {parenthesized(expr.right)})"
    return expr.ident


def test_binary_operators_nest_by_precedence_left_to_right(parse_c):
    pairs = [(op1, op2) for op1 in PREC for op2 in PREC]
    src = "\n".join(f"x = a {o1} b {o2} c;" for o1, o2 in pairs)
    body = expr_stmts(parse_c, src)[:-1]  # drop the trailing return
    assert len(body) == len(pairs) == 18 * 18
    for (op1, op2), stmt in zip(pairs, body):
        if PREC[op1] >= PREC[op2]:
            expected = f"((a {op1} b) {op2} c)"
        else:
            expected = f"(a {op1} (b {op2} c))"
        assert parenthesized(stmt.expr.value) == expected


def test_string_concatenation_single_literal(parse_c):
    body = expr_stmts(parse_c, 'caml_failwith("a" "b");')
    arg = body[0].expr.args[0]
    assert isinstance(arg, ast.StrLit)


# -- statements ---------------------------------------------------------------


def test_control_statements_parse(parse_c):
    src = (
        "value f(value a)\n{\n"
        "    int i;\n"
        "    for (i = 0; i < 4; i++) g(i);\n"
        "    while (h()) { a = k(a); }\n"
        "    do { a = k(a); } while (0);\n"
        "    switch (i) {\n"
        "    case 0: a = k(a); break;\n"
        "    default: break;\n"
        "    }\n"
        "    return a;\n}\n"
    )
    fn = fn_of(parse_c(src))
    assert [name for name, _ in fn.locals] == ["i"]
    # the `for` init is the statement just before the For, at the `for`
    body = fn.body
    kinds = [type(s).__name__ for s in body]
    assert kinds == ["ExprStmt", "For", "While", "DoWhile", "Switch", "Return"]
    assert (body[0].line, body[0].col) == (body[1].line, body[1].col)
    assert len(body[4].cases) == 2


def test_goto_degrades_to_opaque_with_warning(parse_c):
    src = "value f(value a)\n{\nagain:\n    if (g()) goto again;\n    return a;\n}\n"
    unit = parse_c(src)
    assert any(d.rule_id == "UNSUPPORTED_CONSTRUCT" for d in unit.diagnostics)
    opaques = [
        s
        for s in walk_stmts(fn_of(unit).body)
        if isinstance(s, ast.Opaque)
    ]
    assert opaques


def test_labelled_blocks_are_spliced(parse_c):
    src = (
        "value f(value a)\n{\n"
        "out: { g(); h(); }\n"
        "    switch (a) { case 1: inner: { k(); } }\n"
        "    return a;\n}\n"
    )
    body = fn_of(parse_c(src)).body
    assert [type(s).__name__ for s in body] == [
        "ExprStmt", "ExprStmt", "Switch", "Return"
    ]
    assert [type(s).__name__ for s in body[2].cases[0].body] == ["ExprStmt"]


def walk_stmts(stmts):
    for s in stmts:
        yield s
        for field in ("then", "els", "body"):
            inner = getattr(s, field, None)
            if inner:
                yield from walk_stmts(inner)
        for case in getattr(s, "cases", ()) or ():
            yield from walk_stmts(case.body)


def test_unparsable_function_body_is_dropped_not_fatal(parse_c):
    src = (
        "value bad(value a)\n{\n    int x = ]]];\n}\n"
        "value good(value a) { return a; }\n"
    )
    unit = parse_c(src)
    assert [f.name for f in unit.functions] == ["good"]
    assert any(d.rule_id == "UNSUPPORTED_CONSTRUCT" for d in unit.diagnostics)


def test_the_comma_operator_is_parsed_where_an_expression_ends(parse_c, lint_c):
    # in a statement-level expression and in a parenthesis, `,` is the
    # loosest binary operator, grouping to the left
    body = expr_stmts(parse_c, "a, b, c;\nn = (g(), h(), k());")
    assert parenthesized(body[0].expr) == "((a , b) , c)"
    value = body[1].expr.value
    assert (value.op, value.left.op) == (",", ",")
    calls = [value.left.left, value.left.right, value.right]
    assert [call.callee for call in calls] == ["g", "h", "k"]
    # an initializer and an argument still stop at it, and so does a `case`
    # label, which is not an expression that ends at `;` or `)`
    body = expr_stmts(parse_c, "int n = 1, m = 2;\ng(n, m);")
    assert [type(stmt).__name__ for stmt in body[:3]] == ["VarDecl"] * 2 + ["ExprStmt"]
    assert len(body[2].expr.args) == 2
    assert not parse_c(
        "value f(value a)\n{\n    switch (a) { case 1, 2: break; }\n    return a;\n}\n"
    ).functions
    # a loop the comma operator drives is analysed, not dropped
    src = (
        "CAMLprim value f(value b)\n{\n    CAMLparam1(b);\n    int i; char *p;\n"
        "    caml_enter_blocking_section();\n"
        "    for (i = 0, p = String_val(b); i < 4; i++, p++) *p = 0;\n"
        "    caml_leave_blocking_section();\n    CAMLreturn(Val_unit);\n}\n"
    )
    found = [(d.rule_id, d.line, d.column) for d in lint_c(src)]
    assert found == [
        ("VALUE_DEREF_UNLOCKED", 6, 21),
        ("DERIVED_PTR_STALE", 6, 53),
    ]
    # so is the middle operand of `?:`, which ends at `:` (C99 6.5.15)
    src = (
        "CAMLprim value f(value a)\n{\n    CAMLparam1(a);\n    int x, c;\n"
        "    caml_enter_blocking_section();\n"
        "    x = c ? g(), Field(a, 0) : 2;\n"
        "    caml_leave_blocking_section();\n    CAMLreturn(a);\n}\n"
    )
    found = [(d.rule_id, d.line, d.column) for d in lint_c(src)]
    assert found == [("VALUE_DEREF_UNLOCKED", 6, 18)]


def test_caml_locals_collected(parse_c):
    src = (
        "value f(value a)\n{\n"
        "    CAMLparam1(a);\n"
        "    CAMLlocal2(x, y);\n"
        "    int rc;\n"
        "    CAMLreturn(x);\n"
        "}\n"
    )
    fn = fn_of(parse_c(src))
    value_locals = {name for name, ctype in fn.locals if ctype.is_value}
    assert {"x", "y"} <= value_locals
    assert "rc" not in value_locals


def test_locals_in_declaration_order_nested_bodies_included(parse_c):
    src = (
        "value f(value a)\n{\n"
        "    CAMLparam1(a);\n"
        "    int n = 0, *p;\n"
        "    if (a) { CAMLlocal2(x, y); } else { long e; }\n"
        "    for (int i = 0; i < n; i++) { value w; }\n"
        "    for (CAMLlocal1(z); n; CAMLlocal1(s)) {}\n"
        "    switch (n) { case 1: { char c; } }\n"
        "    CAMLreturn(a);\n"
        "}\n"
        "value g(value b)\n{\n    value d;\n    return (;\n}\n"
        "value h(value b)\n{\n    value u;\n    return b;\n}\n"
    )
    unit = parse_c(src)
    # g's body does not parse, so g is dropped and its `d` is no one's
    assert [fn.name for fn in unit.functions] == ["f", "h"]
    f, h = unit.functions
    assert [(name, t.spell()) for name, t in f.locals] == [
        ("n", "int"), ("p", "int *"), ("x", "value"), ("y", "value"),
        ("e", "long"), ("i", "int"), ("w", "value"), ("z", "value"),
        ("c", "char"),
    ]
    assert [name for name, _ in h.locals] == ["u"]


# -- declarators -----------------------------------------------------------


def test_one_declarator_reading_in_a_block_a_for_init_and_a_parameter(parse_c):
    src = (
        "value f(unsigned long **p[4], value *, int [])\n{\n"
        "    unsigned long **q[4];\n"
        "    for (unsigned long **r[4] = 0; ; ) {}\n"
        "    return Val_unit;\n}\n"
    )
    fn = fn_of(parse_c(src))
    same = ("unsigned long", 2, True)
    assert [(n, (t.base, t.pointers, t.array)) for n, t in fn.params] == [
        ("p", same), ("", ("value", 1, False)), ("", ("int", 0, True))
    ]
    assert [(n, (t.base, t.pointers, t.array)) for n, t in fn.locals] == [
        ("q", same), ("r", same)
    ]
    # `q` executes nothing; the `for` init's `r` comes just before the For
    assert [type(s).__name__ for s in fn.body] == ["VarDecl", "For", "Return"]
    ctype = fn.body[0].ctype
    assert (ctype.base, ctype.pointers, ctype.array) == same


@pytest.mark.parametrize(
    "src, warning",
    [
        (
            "value f(value a)\n{\n    int *[3];\n    return a;\n}\n",
            "t.c:1:7: warning: UNSUPPORTED_CONSTRUCT: could not parse body of 'f': "
            "3:10: expected declarator, found '['",
        ),
        (
            "int *[3];\n",
            "t.c:1:6: warning: UNSUPPORTED_CONSTRUCT: unparsed construct: "
            "1:6: expected declarator, found '['",
        ),
        # an array declarator is not a function's, so its `(` ends nothing
        (
            "int f[3](int a) { return a; }\n",
            "t.c:1:9: warning: UNSUPPORTED_CONSTRUCT: unparsed construct: "
            "1:9: expected ';', found '('",
        ),
    ],
)
def test_a_missing_declarator_is_reported_in_its_place(parse_c, src, warning):
    unit = parse_c(src, "t.c")
    assert unit.functions == []
    assert [d.render() for d in unit.diagnostics] == [warning]


@pytest.mark.parametrize(
    "statement",
    ["int b[{];", "goto {;", "a->{;", "asm({);"],
    ids=["array", "goto", "member", "asm"],
)
def test_every_range_of_lines_meets_the_items_of_the_whole_file(statement):
    """A body that would take a brace as a label or a member name, or
    between `[ ]` or `( )`, does not parse, so a range of lines that skips
    it ends the function at the `}` where one that parses it does."""
    source = (
        f"value f(value a)\n{{\n    {statement}\n    return a;\n}}\n}}\n"
        "value g(value a)\n{\n    return a;\n}\n"
    )

    def items(first=0, last=None):
        unit = parse_tokens(preprocess_local(source, "t.c").tokens, "t.c", first, last)
        assert unit.camlprims == {"f", "g"}
        return [fn.name for fn in unit.functions], unit.diagnostics

    whole = items()
    assert whole[0] == ["g"]
    for cut in range(1, source.count("\n") + 1):
        (head, early), (tail, late) = items(0, cut), items(cut)
        assert (head + tail, early + late) == whole


def test_globals_after_a_function_are_not_its_locals(parse_c):
    src = "value f(value a)\n{\n    int n;\n    return a;\n}\nint g = 2, *h;\n"
    fn = fn_of(parse_c(src))
    assert [name for name, _ in fn.locals] == ["n"]


# -- nesting cap -----------------------------------------------------------


# expressions nesting one operand form n times, the deepest n that parses,
# and where the parse fails one past it.  A prefix operator, `sizeof` and the
# operand they end in are a level each; a cast is two (its parenthesis and
# its operand); each postfix operator is one more, and so is an index.
OPERAND_FORMS = {
    "prefix operators": (lambda n: "- " * n + "1", 199, "1:401"),
    "sizeof": (lambda n: "sizeof " * n + "x", 199, "1:1401"),
    "casts": (lambda n: "(long)" * n + "x", 99, "1:601"),
    "postfix chain": (lambda n: "g" + "()[0]->f++" * n, 49, "1:500"),
}


def test_nesting_cap_counts_each_prefix_operator_as_a_level():
    for form, (expression, deepest, where) in OPERAND_FORMS.items():
        parse_expression(expression(deepest))
        with pytest.raises(CParseError) as exc:
            parse_expression(expression(deepest + 1))
        assert str(exc.value) == (
            f"{where}: nested more than {MAX_NESTING} levels deep"
        ), form


# statement bodies of `value f(value c, value x, value *p)`, nesting one
# construct n times; the deepest n that parses, and the column on line 3
# where the parse fails one past it
NESTED = {
    "parentheses": (lambda n: "v = " + "(" * n + "1" + ")" * n + ";", 98, 108),
    "prefix operators": (lambda n: "v = " + "- " * n + "1;", 197, 405),
    "casts": (lambda n: "v = " + "(long)" * n + "x;", 98, 603),
    "call arguments": (lambda n: "v = " + "f(" * n + "1" + ")" * n + ";", 98, 207),
    "call chain": (lambda n: "v = g" + "()" * n + ";", 197, 404),
    "members": (lambda n: "v = p" + "->f" * n + ";", 197, 601),
    "sums": (lambda n: "v = " + " + ".join(["x"] * (n + 1)) + ";", 197, 801),
    "commas": (lambda n: "x" + ", x" * n + ";", 198, 602),
    "assignments": (lambda n: "v = " * n + "1;", 198, 801),
    "conditionals": (lambda n: "v = " + "c ? 1 : " * n + "0;", 197, 1589),
    "ifs": (lambda n: "if (c) " * n + "v = 1;", 197, 1395),
    "loops": (lambda n: "while (c) " * n + "v = 1;", 197, 1989),
    "switches": (
        lambda n: "switch (c) { case 1: " * n + "v = 1;" + " }" * n,
        98,
        2088,
    ),
    "blocks": (lambda n: "{ " * n + "v = 1;" + " }" * n, 197, 405),
    "initializers": (
        lambda n: "int a[1] = " + "{" * n + "1" + "}" * n + ";",
        198,
        215,
    ),
}


def _nested(shape: str, n: int) -> str:
    body = NESTED[shape][0](n)
    return f"value f(value c, value x, value *p)\n{{\n    {body}\n    return c;\n}}\n"


def _with_frames_in_use(frames: int, call):
    return call() if frames == 0 else _with_frames_in_use(frames - 1, call)


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_at_the_cap_is_analyzed_and_past_it_dropped(parse_c, lint_c, shape):
    _, deepest, col = NESTED[shape]
    assert parse_c(_nested(shape, deepest)).functions
    assert not parse_c(_nested(shape, deepest + 1)).functions
    # at the cap, every walk over the tree runs, with 400 frames in use
    diags = _with_frames_in_use(400, lambda: lint_c(_nested(shape, deepest)))
    assert "UNSUPPORTED_CONSTRUCT" not in [d.rule_id for d in diags]
    # one past it, the function is dropped with a warning at its name that
    # says where the parse gave up
    (warning,) = [
        d for d in lint_c(_nested(shape, deepest + 1)) if d.severity == "warning"
    ]
    assert (warning.rule_id, warning.line, warning.column) == (
        "UNSUPPORTED_CONSTRUCT", 1, 7
    )
    assert warning.message == (
        f"could not parse body of 'f': 3:{col}: nested more than {MAX_NESTING}"
        " levels deep"
    )


def test_a_long_else_if_chain_costs_no_nesting(run_main, tmp_path):
    # each `else if` link is read in a loop, so a chain far longer than the
    # cap is analysed, with 400 frames in use, and the store after it found
    chain = "if (c) v = 1;" + " else if (c) v = 1;" * 1000
    path = tmp_path / "chain.c"
    path.write_text(
        "value f(value c)\n{\n    CAMLparam1(c);\n    CAMLlocal1(v);\n"
        f"    {chain}\n    v = 4;\n    CAMLreturn(v);\n}}\n"
    )
    code, out, err = _with_frames_in_use(400, lambda: run_main(str(path)))
    assert (code, err) == (1, "")
    assert [line.split(": ")[:3] for line in out.splitlines()] == [
        [f"{path}:6:7", "error", "NAKED_POINTER"]
    ]
