"""
Built-in ("lite") frontend: a line-accurate C++ tokenizer plus a
pragmatic recognizer for the subset of C++ this repo uses. It reads
raw source, so the OBF_SECRET / OBF_PUBLIC / OBF_DECLASSIFY macro
tokens are visible directly -- no compiler needed.

This is deliberately an over-approximation: identifiers are not
type-resolved, expressions are scanned linearly, and flow is ignored.
Precision comes from the taint engine's annotation discipline and the
baseline's mandatory justifications, not from full parsing. The clang
frontend (CI) is the precise reference; this one keeps the gate
usable everywhere.
"""

from __future__ import annotations

import re

from .ir import Event, Function, Program

# --------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<str>"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*')
  | (?P<id>[A-Za-z_]\w*)
  | (?P<num>\d[\w']*(?:\.\w*)?)
  | (?P<punct><<=|>>=|\.\.\.|->\*|::|->|\+\+|--|<<|>>|<=|>=|==|!=
       |&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=
       |[-+*/%&|^!<>=~?:;,.(){}\[\]#\\@$`])
  | (?P<nl>\n)
  | (?P<ws>[ \t\r\f\v]+)
  | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)

# Keywords and ubiquitous vocabulary types that can never carry taint;
# filtering them keeps casts and declarations from polluting id sets.
_NOISE_IDS = frozenset("""
    if else for while do switch case default break continue return goto
    try catch throw new delete sizeof alignof decltype typeid
    const constexpr consteval constinit static inline extern mutable
    volatile register thread_local virtual override final explicit
    friend public private protected using namespace template typename
    class struct enum union operator this true false nullptr
    static_cast dynamic_cast reinterpret_cast const_cast
    void bool char wchar_t char8_t char16_t char32_t short int long
    float double signed unsigned auto
    int8_t int16_t int32_t int64_t uint8_t uint16_t uint32_t uint64_t
    size_t ssize_t ptrdiff_t uintptr_t intptr_t
    std vector array string deque list map set unordered_map
    unordered_set pair tuple optional unique_ptr shared_ptr span
    string_view initializer_list function
    noexcept requires concept co_await co_return co_yield
    OBF_SECRET OBF_PUBLIC OBF_DECLASSIFY
    Tick
""".split())


class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Tok({self.kind},{self.text!r},{self.line})"


def tokenize(source: str) -> list[Tok]:
    """Lex to significant tokens; skips whitespace, comments and
    preprocessor directives while keeping exact line numbers."""
    toks: list[Tok] = []
    line = 1
    at_line_start = True
    in_pp = False
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup or "other"
        text = m.group()
        if kind == "nl":
            line += 1
            # A backslash-newline continues a preprocessor line; the
            # backslash token itself was consumed below.
            if in_pp and not toks_pp_continues(toks):
                in_pp = False
            at_line_start = True
            continue
        if kind == "ws":
            continue
        if kind == "comment":
            line += text.count("\n")
            continue
        if in_pp:
            line += text.count("\n")
            if kind == "punct" and text == "\\":
                toks.append(Tok("ppcont", text, line))
            continue
        if kind == "punct" and text == "#" and at_line_start:
            in_pp = True
            continue
        at_line_start = False
        toks.append(Tok(kind, text, line))
        line += text.count("\n")
    return toks


def toks_pp_continues(toks: list[Tok]) -> bool:
    """True if the last consumed preprocessor token was the
    line-continuation backslash (and eat it)."""
    if toks and toks[-1].kind == "ppcont":
        toks.pop()
        return True
    return False


# --------------------------------------------------------------------
# Declaration-level scanning
# --------------------------------------------------------------------

_SKIP_HEAD = frozenset({"if", "for", "while", "switch", "catch",
                        "return", "do", "else"})


def _match_group(toks, i, open_t, close_t):
    """toks[i] is `open_t`; return index just past its match."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _collect_ids(toks) -> set[str]:
    return {t.text for t in toks
            if t.kind == "id" and t.text not in _NOISE_IDS}


_DECL_PREFIX = frozenset({
    "const", "constexpr", "static", "inline", "mutable", "volatile",
    "thread_local", "extern", "typename", "struct", "class",
    "OBF_SECRET", "OBF_PUBLIC",
})
_NOT_TYPES = _SKIP_HEAD | frozenset({
    "auto", "new", "delete", "throw", "goto", "case", "using",
    "typedef", "template", "namespace", "sizeof", "co_return",
    "operator",
})
# Wrappers whose methods callers reach through the wrapped type.
_POINTER_WRAPPERS = frozenset({"unique_ptr", "shared_ptr", "optional"})
_DECL_FOLLOW = frozenset({"=", "(", "{", "[", ",", ":", ";", ")"})


def _declared_type(toks) -> tuple[str, str] | None:
    """(type, name) when the token run starts with a declaration
    `[const] ns::Type<args> [*&] name ...`, else None. The type is the
    last component of its qualified name (the wrapped type for
    unique_ptr/shared_ptr/optional). A heuristic: `a * b;` also reads
    as a declaration, which only costs precision."""
    n = len(toks)
    i = 0
    while i < n and toks[i].text in _DECL_PREFIX:
        i += 1
    if i >= n or toks[i].kind != "id" or toks[i].text in _NOT_TYPES:
        return None
    type_name = toks[i].text
    wrapped = ""
    i += 1
    while i < n:
        if toks[i].text == "::" and i + 1 < n and \
                toks[i + 1].kind == "id":
            type_name = toks[i + 1].text
            i += 2
        elif toks[i].text == "<":
            depth = 0
            args: list[str] = []
            while i < n:
                t = toks[i].text
                depth += {"<": 1, ">": -1, ">>": -2}.get(t, 0)
                if toks[i].kind == "id" and t not in _DECL_PREFIX:
                    args.append(t)
                i += 1
                if depth <= 0:
                    break
            wrapped = args[-1] if args else ""
        else:
            break
    while i < n and toks[i].text in ("*", "&", "&&", "const"):
        i += 1
    if i >= n or toks[i].kind != "id" or toks[i].text in _NOISE_IDS:
        return None
    if i + 1 < n and toks[i + 1].text not in _DECL_FOLLOW:
        return None
    if type_name in _POINTER_WRAPPERS and wrapped:
        type_name = wrapped
    return type_name, toks[i].text


def _bracket_ids(toks) -> set[str]:
    """Ids appearing inside `[...]` groups: subscript indices are
    *read* by an lvalue like `out[i]`, never written."""
    ids: set[str] = set()
    depth = 0
    for t in toks:
        if t.text == "[":
            depth += 1
        elif t.text == "]":
            depth = max(0, depth - 1)
        elif depth > 0 and t.kind == "id" and \
                t.text not in _NOISE_IDS:
            ids.add(t.text)
    return ids


class _Parser:
    def __init__(self, file: str):
        self.file = file
        self.prog = Program()
        self._temp = 0
        # The function being scanned and its parameters' and locals'
        # declared types (name -> type).
        self._fn: Function | None = None
        self._locals: dict[str, str] = {}

    # ----- expression / statement scanning inside function bodies ---

    def _fresh(self) -> str:
        self._temp += 1
        return f"__call{self._temp}"

    def scan_expr(self, toks, events) -> set[str]:
        """Linear scan of an expression token run. Emits call/index/
        binop/stream events into `events`; returns the ids whose taint
        the expression's value depends on (including call-result
        temps)."""
        ids: set[str] = set()
        i = 0
        n = len(toks)
        last_operand: str | None = None
        while i < n:
            t = toks[i]
            nxt = toks[i + 1] if i + 1 < n else None
            if t.kind == "id" and t.text == "OBF_DECLASSIFY" and \
                    nxt and nxt.text == "(":
                # OBF_DECLASSIFY(expr, reason) launders taint: skip
                # the whole argument list. (The line is additionally
                # recorded for finding suppression by the driver.)
                i = _match_group(toks, i + 1, "(", ")")
                last_operand = None
                continue
            if t.kind == "id" and nxt and nxt.text == "(" and \
                    t.text not in _SKIP_HEAD:
                # Call: f(...) or recv.f(...) / recv->f(...).
                end = _match_group(toks, i + 1, "(", ")")
                inner = toks[i + 2:end - 1]
                args = self._split_args(inner, events)
                call = Event("call", t.line, callee=t.text, args=args,
                             result=self._fresh())
                self._qualify_call(toks, i, call)
                # Leading receiver chain: a.b.f( / a->f(.
                j = i - 1
                while j >= 1 and toks[j].text in (".", "->", "::") \
                        and toks[j - 1].kind == "id":
                    if toks[j].text != "::" and \
                            toks[j - 1].text not in _NOISE_IDS:
                        call.recv.add(toks[j - 1].text)
                    j -= 2
                events.append(call)
                ids.add(call.result)
                last_operand = call.result
                i = end
                continue
            if t.text == "[" and i > 0 and (
                    toks[i - 1].kind == "id"
                    or toks[i - 1].text in ("]", ")")):
                # Subscript (not a lambda capture / attribute).
                end = _match_group(toks, i, "[", "]")
                inner = toks[i + 1:end - 1]
                idx_ids = self.scan_expr(inner, events)
                if idx_ids:
                    events.append(Event("index", t.line, ids=idx_ids))
                ids |= idx_ids
                i = end
                continue
            if t.text in ("%", "/", "%=", "/="):
                operands: set[str] = set()
                if last_operand:
                    operands.add(last_operand)
                k = i + 1
                while k < n and toks[k].text in ("(", "*", "&", "-",
                                                 "+", "~", "!"):
                    k += 1
                if k < n and toks[k].kind == "id" and \
                        toks[k].text not in _NOISE_IDS:
                    operands.add(toks[k].text)
                if operands:
                    events.append(Event(
                        "binop", t.line, ids=operands, detail=t.text))
                i += 1
                continue
            if t.text == "?":
                # Ternary: everything scanned so far in this run is
                # (an over-approximation of) the condition.
                if ids:
                    events.append(Event("branch", t.line, ids=set(ids),
                                        detail="ternary"))
                i += 1
                last_operand = None
                continue
            if t.kind == "id":
                if t.text not in _NOISE_IDS:
                    ids.add(t.text)
                    last_operand = t.text
                elif t.text in ("cout", "cerr", "clog"):
                    last_operand = None
                i += 1
                continue
            if t.text in (";", ","):
                last_operand = None
            i += 1
        return ids

    def _qualify_call(self, toks, i, call: Event) -> None:
        """Fill in what the call site says about the callee's class:
        `Cls::f(`, `this->f(`, or `var.f(` / `var->f(` with var's
        declared type (a local's here, a member's by the engine)."""
        j = i - 1
        if j < 1:
            return
        sep, prev = toks[j].text, toks[j - 1]
        if sep == "::" and prev.kind == "id":
            call.callee_qual = prev.text
            return
        if sep not in (".", "->"):
            return
        call.receiver = True
        if prev.kind != "id":
            return
        if prev.text == "this":
            call.callee_qual = self._fn.qualifier if self._fn else ""
            return
        chained = j >= 2 and toks[j - 2].text in (".", "->", "::")
        if not chained and prev.text in self._locals:
            call.callee_qual = self._locals[prev.text]
        else:
            call.recv_var = prev.text

    def _split_args(self, toks, events) -> list[set[str]]:
        args: list[set[str]] = []
        depth = 0
        start = 0
        for k, t in enumerate(toks):
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth -= 1
            elif t.text == "," and depth == 0:
                args.append(self.scan_expr(toks[start:k], events))
                start = k + 1
        if toks[start:] or args:
            args.append(self.scan_expr(toks[start:], events))
        return args

    def scan_statement(self, toks, events, fn: Function) -> None:
        if not toks:
            return
        declared = _declared_type(toks)
        if declared:
            self._locals[declared[1]] = declared[0]
        head = toks[0]
        # Local annotation: OBF_SECRET <type> name ...;
        if head.text in ("OBF_SECRET", "OBF_PUBLIC"):
            annot = "secret" if head.text == "OBF_SECRET" else "public"
            name = None
            for t in toks[1:]:
                if t.text in ("[", "=", "{", ";", "("):
                    break
                if t.kind == "id" and t.text not in _NOISE_IDS:
                    name = t.text
            if name:
                fn.annots[name] = annot
            toks = toks[1:]
        # Assignment: split at the first top-level `=`.
        depth = 0
        eq = -1
        for k, t in enumerate(toks):
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth -= 1
            elif depth == 0 and t.text == "=" and eq < 0:
                eq = k
        stream = any(t.text in ("cout", "cerr", "clog")
                     for t in toks) and \
            any(t.text == "<<" for t in toks)
        if eq > 0:
            lhs, rhs = toks[:eq], toks[eq + 1:]
            lhs_ids = self.scan_expr(lhs, events) \
                - _bracket_ids(lhs)
            rhs_ids = self.scan_expr(rhs, events)
            events.append(Event("assign", toks[eq].line, ids=lhs_ids,
                                rhs=rhs_ids))
        elif any(t.text in ("+=", "-=", "*=", "&=", "|=", "^=",
                            "<<=", ">>=") for t in toks):
            for k, t in enumerate(toks):
                if t.text in ("+=", "-=", "*=", "&=", "|=", "^=",
                              "<<=", ">>="):
                    lhs_ids = self.scan_expr(toks[:k], events) \
                        - _bracket_ids(toks[:k])
                    rhs_ids = self.scan_expr(toks[k + 1:], events)
                    events.append(Event("assign", t.line, ids=lhs_ids,
                                        rhs=rhs_ids | lhs_ids))
                    break
        else:
            ids = self.scan_expr(toks, events)
            if stream and ids:
                events.append(Event("stream", head.line, ids=ids))

    def scan_body(self, toks, fn: Function) -> None:
        """Scan the token run of a function body (braces excluded)."""
        events = fn.events
        i = 0
        n = len(toks)
        stmt_start = 0

        def flush(upto):
            nonlocal stmt_start
            run = toks[stmt_start:upto]
            if run:
                self.scan_statement(run, events, fn)
            stmt_start = upto + 1

        while i < n:
            t = toks[i]
            nxt = toks[i + 1] if i + 1 < n else None
            if t.kind == "id" and t.text in ("if", "while", "switch") \
                    and nxt and nxt.text == "(":
                end = _match_group(toks, i + 1, "(", ")")
                inner = toks[i + 2:end - 1]
                cond_ids = self.scan_expr(inner, events)
                if cond_ids:
                    events.append(Event("branch", t.line, ids=cond_ids,
                                        detail=t.text))
                stmt_start = end
                i = end
                continue
            if t.kind == "id" and t.text == "for" and nxt and \
                    nxt.text == "(":
                end = _match_group(toks, i + 1, "(", ")")
                inner = toks[i + 2:end - 1]
                # Split into init; cond; inc (or range-for).
                parts, depth, start = [], 0, 0
                for k, u in enumerate(inner):
                    if u.text in ("(", "[", "{"):
                        depth += 1
                    elif u.text in (")", "]", "}"):
                        depth -= 1
                    elif u.text == ";" and depth == 0:
                        parts.append(inner[start:k])
                        start = k + 1
                parts.append(inner[start:])
                if len(parts) >= 2:
                    for p in (parts[0], *parts[2:]):
                        self.scan_statement(p, events, fn)
                    cond_ids = self.scan_expr(parts[1], events)
                    if cond_ids:
                        events.append(Event(
                            "branch", t.line, ids=cond_ids,
                            detail="for"))
                else:
                    # Range-for: `for (decl : range)`.
                    self.scan_statement(inner, events, fn)
                stmt_start = end
                i = end
                continue
            if t.kind == "id" and t.text == "return":
                k = i + 1
                depth = 0
                while k < n and (depth > 0 or toks[k].text != ";"):
                    if toks[k].text in ("(", "[", "{"):
                        depth += 1
                    elif toks[k].text in (")", "]", "}"):
                        depth -= 1
                    k += 1
                ids = self.scan_expr(toks[i + 1:k], events)
                events.append(Event("return", t.line, ids=ids))
                stmt_start = k + 1
                i = k + 1
                continue
            if t.text in (";", "{", "}"):
                if t.text == ";":
                    flush(i)
                else:
                    # Block structure: statements end at braces too
                    # (the brace-enclosed contents are scanned
                    # inline as part of the same linear walk).
                    run = toks[stmt_start:i]
                    if run:
                        self.scan_statement(run, events, fn)
                    stmt_start = i + 1
                i += 1
                continue
            i += 1
        run = toks[stmt_start:]
        if run:
            self.scan_statement(run, events, fn)

    # ----- top level -------------------------------------------------

    def parse(self, toks: list[Tok]) -> Program:
        self._scan_scope(toks, 0, len(toks), class_name="")
        return self.prog

    def _scan_scope(self, toks, i, end, class_name: str) -> None:
        """Scan a namespace/class/TU scope for declarations."""
        while i < end:
            t = toks[i]
            if t.kind == "id" and t.text == "namespace":
                j = i + 1
                while j < end and toks[j].text != "{" and \
                        toks[j].text != ";":
                    j += 1
                if j < end and toks[j].text == "{":
                    close = _match_group(toks, j, "{", "}")
                    self._scan_scope(toks, j + 1, close - 1,
                                     class_name)
                    i = close
                    continue
                i = j + 1
                continue
            if t.kind == "id" and t.text in ("class", "struct") and \
                    i + 1 < end and toks[i + 1].kind == "id":
                name = toks[i + 1].text
                j = i + 2
                while j < end and toks[j].text not in ("{", ";"):
                    j += 1
                if j < end and toks[j].text == "{":
                    close = _match_group(toks, j, "{", "}")
                    self._scan_scope(toks, j + 1, close - 1, name)
                    i = close
                    continue
                i = j + 1
                continue
            if t.kind == "id" and t.text in ("enum", "union"):
                j = i + 1
                while j < end and toks[j].text not in ("{", ";"):
                    j += 1
                if j < end and toks[j].text == "{":
                    i = _match_group(toks, j, "{", "}")
                else:
                    i = j + 1
                continue
            # Generic declaration: collect until `;` or a `{` at
            # relative depth 0.
            j = i
            depth = 0
            while j < end:
                u = toks[j].text
                if u in ("(", "["):
                    depth += 1
                elif u in (")", "]"):
                    depth -= 1
                elif depth == 0 and u in (";", "{"):
                    break
                j += 1
            decl = toks[i:j]
            if j >= end:
                break
            if toks[j].text == ";":
                self._handle_decl(decl, class_name, body=None)
                i = j + 1
            else:
                close = _match_group(toks, j, "{", "}")
                consumed = self._handle_decl(
                    decl, class_name, body=(j + 1, close - 1),
                    toks=toks)
                if consumed:
                    i = close
                else:
                    # Braced initializer of a variable: skip the
                    # braces, then pick up the trailing `;`.
                    self._handle_decl(decl, class_name, body=None)
                    i = close
            continue
        return

    def _find_fn_paren(self, decl) -> int:
        """Index of the parameter-list `(` in a declaration, or -1."""
        for k, t in enumerate(decl):
            if t.text != "(" or k == 0:
                continue
            prev = decl[k - 1]
            if prev.kind == "id" and prev.text not in _SKIP_HEAD:
                return k
            # operator() / operator== etc.
            b = k - 1
            while b > 0 and decl[b].kind == "punct" and \
                    decl[b].text not in (")", "]"):
                b -= 1
            if decl[b].kind == "id" and decl[b].text == "operator":
                return k
        return -1

    def _handle_decl(self, decl, class_name, body, toks=None) -> bool:
        """Process one declaration. Returns True if a function body
        was consumed."""
        if not decl:
            return body is not None  # stray block: just skip it
        paren = self._find_fn_paren(decl)
        if paren < 0:
            # Variable / member declaration.
            declared = _declared_type(decl)
            if declared and class_name:
                self.prog.member_types[(class_name, declared[1])] = \
                    declared[0]
            annot = None
            for t in decl:
                if t.text == "OBF_SECRET":
                    annot = "secret"
                elif t.text == "OBF_PUBLIC":
                    annot = "public"
            if annot:
                name = None
                for t in decl:
                    if t.text in ("[", "=", "{"):
                        break
                    if t.kind == "id" and t.text not in _NOISE_IDS:
                        name = t.text
                if name:
                    self.prog.members[(class_name, name)] = annot
            return False
        # Function declaration or definition.
        name_tok = decl[paren - 1]
        name = name_tok.text
        if name_tok.kind != "id":  # operator overload
            b = paren - 1
            sym = ""
            while b > 0 and decl[b].kind == "punct":
                sym = decl[b].text + sym
                b -= 1
            name = "operator" + sym
        qualifier = class_name
        if paren >= 3 and decl[paren - 2].text == "::" and \
                decl[paren - 3].kind == "id":
            qualifier = decl[paren - 3].text
        head = decl[:max(0, paren - 1)]
        returns_secret = any(t.text == "OBF_SECRET" for t in head)
        returns_public = any(t.text == "OBF_PUBLIC" for t in head)
        close = _match_group(decl, paren, "(", ")")
        params = self._parse_params(decl[paren + 1:close - 1])
        required = sum(1 for p in params if not p.default)
        if body is None:
            annots = {pos: p.annot for pos, p in enumerate(params)
                      if p.annot}
            self.prog.add_decl((qualifier, name, len(params)),
                               returns_secret, returns_public, annots,
                               required)
            return False
        fn = Function(name=name, qualifier=qualifier, file=self.file,
                      line=name_tok.line, required=required,
                      variadic=any(p.pack for p in params),
                      returns_secret=returns_secret,
                      returns_public=returns_public)
        self._fn = fn
        self._locals = {}
        for p in params:
            if p.name:
                fn.params.append(p.name)
                if p.annot:
                    fn.annots[p.name] = p.annot
                if p.type:
                    self._locals[p.name] = p.type
            else:
                fn.params.append(f"__unnamed{len(fn.params)}")
        start, stop = body
        self.scan_body(toks[start:stop], fn)
        self._fn = None
        self._locals = {}
        self.prog.functions.append(fn)
        return True

    def _parse_params(self, toks) -> list["_Param"]:
        """One _Param per parameter of a parameter token run."""
        params = []
        depth = 0
        start = 0
        groups = []
        for k, t in enumerate(toks):
            if t.text in ("(", "[", "{", "<"):
                depth += 1
            elif t.text in (")", "]", "}", ">"):
                depth = max(0, depth - 1)
            elif t.text == "," and depth == 0:
                groups.append(toks[start:k])
                start = k + 1
        if toks[start:] or groups:
            groups.append(toks[start:])
        for g in groups:
            if not g or (len(g) == 1 and g[0].text == "void"):
                continue
            p = _Param()
            for t in g:
                if t.text == "OBF_SECRET":
                    p.annot = "secret"
                elif t.text == "OBF_PUBLIC":
                    p.annot = "public"
                elif t.text == "...":
                    p.pack = True
                elif t.text == "=":
                    p.default = True
                    break
                elif t.kind == "id" and t.text not in _NOISE_IDS:
                    p.name = t.text
            declared = _declared_type(g)
            if declared and declared[1] == p.name:
                p.type = declared[0]
            params.append(p)
        return params


class _Param:
    __slots__ = ("name", "annot", "default", "pack", "type")

    def __init__(self):
        self.name: str | None = None
        self.annot: str | None = None
        self.default = False
        self.pack = False
        self.type = ""


# --------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------

_DECLASSIFY_RE = re.compile(r"\bOBF_DECLASSIFY\s*\(")


def parse_file(path: str, display_path: str | None = None) -> Program:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        source = fh.read()
    display = display_path or path
    toks = tokenize(source)
    parser = _Parser(display)
    prog = parser.parse(toks)
    lines = {i for i, text in enumerate(source.splitlines(), start=1)
             if _DECLASSIFY_RE.search(text)}
    if lines:
        prog.declassified[display] = lines
    return prog
