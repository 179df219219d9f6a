"""
Clang frontend: builds the secretflow IR from
`clang++ -fsyntax-only -Xclang -ast-dump=json` output.

Variables are identified by AST decl id (globally unique within a
translation unit), rendered as "name#0xID" so diagnostics stay
readable while equality stays precise. Annotations come from
`AnnotateAttr` nodes carrying the strings "obf_secret" / "obf_public"
emitted by src/util/secret.hh under clang.

Clang's JSON dump elides source locations that repeat the previous
one, so the walker threads (file, line) state through the traversal.
Only declarations spelled in the translation unit's main file are
lowered; included headers still contribute annotation side tables.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess

from .ir import Event, Function, Program

_FN_KINDS = {
    "FunctionDecl", "CXXMethodDecl", "CXXConstructorDecl",
    "CXXDestructorDecl", "CXXConversionDecl",
}

_BRANCH_KINDS = {
    "IfStmt": "if",
    "WhileStmt": "while",
    "DoStmt": "while",
    "ForStmt": "for",
    "CXXForRangeStmt": "for",
    "SwitchStmt": "switch",
    "ConditionalOperator": "ternary",
}


class ClangError(Exception):
    pass


def _type_tail(qual_type: str) -> str:
    """Last name component of a type spelling, without template
    arguments, cv-qualifiers, pointers or references:
    "const std::vector<uint8_t> &" -> "vector"."""
    depth = 0
    outer = []
    for ch in qual_type:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif depth == 0:
            outer.append(ch)
    words = re.sub(r"\b(const|volatile|struct|class)\b|[&*]", " ",
                   "".join(outer)).split()
    return words[-1].split("::")[-1] if words else ""


def dump_ast(path: str, flags: list[str], clangxx: str = "clang++",
             cache_dir: str | None = None) -> dict:
    """Run clang and return the parsed JSON AST, with optional
    on-disk caching keyed by (file bytes, flags, compiler)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    key = hashlib.sha256(
        blob + "\0".join([clangxx, *flags]).encode()).hexdigest()
    cache_file = None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        cache_file = os.path.join(cache_dir, key + ".json")
        if os.path.exists(cache_file):
            with open(cache_file, "r", encoding="utf-8") as fh:
                return json.load(fh)
    cmd = [clangxx, "-fsyntax-only", "-Xclang", "-ast-dump=json",
           *flags, path]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout:
        raise ClangError(
            f"clang AST dump failed for {path}:\n{proc.stderr[-2000:]}")
    ast = json.loads(proc.stdout)
    if cache_file:
        tmp = cache_file + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(ast, fh)
        os.replace(tmp, cache_file)
    return ast


def _annotation(node: dict) -> str | None:
    """Extract obf_secret/obf_public from a decl's AnnotateAttr, if
    any. The annotation string lands in different places across
    clang versions, so fall back to a subtree text search."""
    for attr in node.get("inner", []) or []:
        if attr.get("kind") != "AnnotateAttr":
            continue
        text = json.dumps(attr)
        if "obf_secret" in text:
            return "secret"
        if "obf_public" in text:
            return "public"
    return None


class _Walker:
    def __init__(self, main_file: str, display_path: str):
        self.main_file = main_file
        self.display = display_path
        self.prog = Program()
        self.cur_file = ""
        self.cur_line = 0
        self._temp = 0
        # Decl id -> enclosing class name, for class records and their
        # methods: resolves out-of-line definitions and call targets.
        self._class_of: dict[str, str] = {}

    # -- location state ----------------------------------------------

    def _update_loc(self, node: dict) -> None:
        loc = node.get("loc") or {}
        for sub in (loc.get("spellingLoc"), loc.get("expansionLoc"),
                    loc):
            if not isinstance(sub, dict):
                continue
            if "file" in sub:
                self.cur_file = sub["file"]
            if "line" in sub:
                self.cur_line = sub["line"]
        rng = node.get("range") or {}
        begin = rng.get("begin") or {}
        for sub in (begin.get("spellingLoc"),
                    begin.get("expansionLoc"), begin):
            if not isinstance(sub, dict):
                continue
            if "file" in sub:
                self.cur_file = sub["file"]
            if "line" in sub:
                self.cur_line = sub["line"]

    def _in_main_file(self) -> bool:
        return os.path.realpath(self.cur_file) == self.main_file \
            if self.cur_file else False

    # -- id collection -----------------------------------------------

    def _var(self, name: str, declid: str) -> str:
        return f"{name}#{declid}"

    def _collect_refs(self, node, out: set[str]) -> None:
        if isinstance(node, list):
            for n in node:
                self._collect_refs(n, out)
            return
        if not isinstance(node, dict):
            return
        kind = node.get("kind")
        if kind == "DeclRefExpr":
            ref = node.get("referencedDecl") or {}
            out.add(self._var(ref.get("name", "?"),
                              ref.get("id", "?")))
        elif kind == "MemberExpr":
            out.add(self._var(node.get("name", "?"),
                              node.get("referencedMemberDecl", "?")))
        self._collect_refs(node.get("inner", []), out)

    def _callee_name(self, node: dict) -> str:
        """Name of the function a CallExpr resolves to."""
        if not isinstance(node, dict):
            return ""
        kind = node.get("kind")
        if kind in ("DeclRefExpr", "MemberExpr"):
            if kind == "DeclRefExpr":
                return (node.get("referencedDecl") or {}).get(
                    "name", "")
            return node.get("name", "").lstrip("->.")
        for child in node.get("inner", []) or []:
            name = self._callee_name(child)
            if name:
                return name
        return ""

    def _callee_qual(self, node: dict) -> str:
        """Class of the function a CallExpr's callee expression
        resolves to: the referenced method's class when this TU
        declares it, else (member calls) the receiver's type."""
        if not isinstance(node, dict):
            return ""
        kind = node.get("kind")
        if kind == "DeclRefExpr":
            ref = node.get("referencedDecl") or {}
            return self._class_of.get(ref.get("id", ""), "")
        if kind == "MemberExpr":
            known = self._class_of.get(
                node.get("referencedMemberDecl", ""))
            if known:
                return known
            base = (node.get("inner") or [{}])[0]
            ty = base.get("type") or {} if isinstance(base, dict) \
                else {}
            return _type_tail(ty.get("desugaredQualType")
                              or ty.get("qualType", ""))
        for child in node.get("inner", []) or []:
            qual = self._callee_qual(child)
            if qual:
                return qual
        return ""

    # -- statement lowering ------------------------------------------

    def _fresh(self) -> str:
        self._temp += 1
        return f"__call{self._temp}"

    def _subscript_ids(self, node) -> set[str]:
        """Refs used as subscript indices anywhere in a subtree;
        excluded from the ids an assignment *writes*."""
        out: set[str] = set()
        if isinstance(node, list):
            for c in node:
                out |= self._subscript_ids(c)
            return out
        if not isinstance(node, dict):
            return out
        if node.get("kind") == "ArraySubscriptExpr":
            inner = node.get("inner") or []
            if len(inner) >= 2:
                self._collect_refs(inner[1], out)
        out |= self._subscript_ids(node.get("inner", []))
        return out

    def _lower(self, node, fn: Function) -> set[str]:
        """Lower an expression/statement subtree into events; returns
        the ids the subtree's value depends on."""
        if isinstance(node, list):
            ids: set[str] = set()
            for n in node:
                ids |= self._lower(n, fn)
            return ids
        if not isinstance(node, dict):
            return set()
        self._update_loc(node)
        line = self.cur_line
        kind = node.get("kind", "")
        inner = node.get("inner", []) or []

        if kind in _BRANCH_KINDS:
            cond = self._branch_cond(kind, node)
            cond_ids = self._lower(cond, fn) if cond else set()
            if cond_ids:
                fn.events.append(Event(
                    "branch", self.cur_line, ids=cond_ids,
                    detail=_BRANCH_KINDS[kind]))
            rest = [c for c in inner if c is not cond]
            body_ids = self._lower(rest, fn)
            return cond_ids | body_ids

        if kind == "ArraySubscriptExpr" and len(inner) >= 2:
            base_ids = self._lower(inner[0], fn)
            idx_ids = self._lower(inner[1], fn)
            if idx_ids:
                fn.events.append(Event("index", line, ids=idx_ids))
            return base_ids | idx_ids

        if kind in ("BinaryOperator", "CompoundAssignOperator"):
            op = node.get("opcode", "")
            lhs = self._lower(inner[0], fn) if inner else set()
            rhs = self._lower(inner[1:], fn)
            if op in ("%", "/", "%=", "/="):
                hot = lhs | rhs
                if hot:
                    fn.events.append(Event(
                        "binop", line, ids=hot, detail=op.rstrip("=")))
            if op in ("=",) or op.endswith("="):
                if op not in ("==", "!=", "<=", ">="):
                    write = lhs - self._subscript_ids(
                        inner[0] if inner else {})
                    fn.events.append(Event(
                        "assign", line, ids=write, rhs=rhs | (
                            lhs if op != "=" else set())))
            return lhs | rhs

        if kind in ("CallExpr", "CXXMemberCallExpr",
                    "CXXOperatorCallExpr"):
            callee_node = inner[0] if inner else None
            callee = self._callee_name(callee_node or {})
            lowered = [self._lower(child, fn) for child in inner]
            flat = set().union(*lowered) if lowered else set()
            if callee == "operator<<":
                streamy = any("cout#" in i or "cerr#" in i
                              or "clog#" in i for i in flat)
                if streamy and flat:
                    fn.events.append(Event("stream", line, ids=flat))
            tmp = self._fresh()
            # inner[0] is the callee expression (for member calls its
            # refs include the receiver); the rest are the arguments.
            fn.events.append(Event(
                "call", line, callee=callee, args=lowered[1:],
                recv=lowered[0] if lowered else set(), result=tmp,
                receiver=kind == "CXXMemberCallExpr",
                callee_qual=self._callee_qual(callee_node or {})))
            return {tmp} | flat

        if kind == "ReturnStmt":
            ids = self._lower(inner, fn)
            fn.events.append(Event("return", line, ids=ids))
            return ids

        if kind == "DeclStmt":
            ids: set[str] = set()
            for child in inner:
                if child.get("kind") == "VarDecl":
                    var = self._var(child.get("name", "?"),
                                    child.get("id", "?"))
                    annot = _annotation(child)
                    if annot:
                        fn.annots[var] = annot
                    init_ids = self._lower(
                        child.get("inner", []), fn)
                    if init_ids:
                        fn.events.append(Event(
                            "assign", self.cur_line, ids={var},
                            rhs=init_ids))
                    ids |= init_ids
                else:
                    ids |= self._lower(child, fn)
            return ids

        if kind == "DeclRefExpr" or kind == "MemberExpr":
            out: set[str] = set()
            self._collect_refs(node, out)
            return out

        return self._lower(inner, fn)

    def _branch_cond(self, kind: str, node: dict):
        inner = [c for c in (node.get("inner") or [])
                 if isinstance(c, dict)]
        if not inner:
            return None
        if kind in ("IfStmt", "WhileStmt", "SwitchStmt",
                    "ConditionalOperator"):
            return inner[0]
        if kind == "DoStmt":
            return inner[-1]
        if kind == "ForStmt" and len(inner) >= 3:
            # [init, cond-decl?, cond, inc, body]
            return inner[-3]
        if kind == "CXXForRangeStmt":
            return None
        return None

    # -- declaration walking -----------------------------------------

    def walk(self, ast: dict) -> Program:
        self._walk_decls(ast.get("inner", []) or [], qualifier="")
        return self.prog

    def _walk_decls(self, nodes, qualifier: str) -> None:
        for node in nodes:
            if not isinstance(node, dict):
                continue
            self._update_loc(node)
            kind = node.get("kind", "")
            if kind in ("NamespaceDecl", "LinkageSpecDecl",
                        "ExternCContextDecl"):
                self._walk_decls(node.get("inner", []) or [],
                                 qualifier)
            elif kind == "CXXRecordDecl":
                name = node.get("name", qualifier)
                self._class_of[node.get("id", "")] = name
                for child in node.get("inner", []) or []:
                    if not isinstance(child, dict):
                        continue
                    self._update_loc(child)
                    ckind = child.get("kind")
                    if ckind in _FN_KINDS:
                        self._class_of[child.get("id", "")] = name
                    if ckind == "FieldDecl":
                        annot = _annotation(child)
                        if annot:
                            var = self._var(child.get("name", "?"),
                                            child.get("id", "?"))
                            # decl ids are unique: scope globally.
                            self.prog.members[("", var)] = annot
                    elif ckind in _FN_KINDS:
                        self._lower_function(child, name)
                    elif ckind == "CXXRecordDecl":
                        self._walk_decls([child], name)
            elif kind in _FN_KINDS:
                self._lower_function(node, qualifier)
            elif kind == "VarDecl":
                annot = _annotation(node)
                if annot:
                    var = self._var(node.get("name", "?"),
                                    node.get("id", "?"))
                    self.prog.members[("", var)] = annot

    def _lower_function(self, node: dict, qualifier: str) -> None:
        self._update_loc(node)
        name = node.get("name", "")
        if not name:
            return
        # An out-of-line method definition names its class through
        # parentDeclContextId.
        qualifier = self._class_of.get(
            node.get("parentDeclContextId", ""), qualifier)
        in_main = self._in_main_file()
        line = self.cur_line
        params: list[str] = []
        annots: dict[str, str] = {}
        required = 0
        body = None
        for child in node.get("inner", []) or []:
            if not isinstance(child, dict):
                continue
            ckind = child.get("kind")
            if ckind == "ParmVarDecl":
                self._update_loc(child)
                var = self._var(child.get("name",
                                          f"arg{len(params)}"),
                                child.get("id", "?"))
                params.append(var)
                if "init" not in child:  # no default argument
                    required = len(params)
                a = _annotation(child)
                if a:
                    annots[var] = a
            elif ckind == "CompoundStmt":
                body = child
        ret_annot = _annotation(node)
        if body is None or not in_main:
            # Declaration (or out-of-main definition): record the
            # positional summary so call sites see the annotations.
            pa = {pos: annots[p] for pos, p in enumerate(params)
                  if p in annots}
            self.prog.add_decl((qualifier, name, len(params)),
                               ret_annot == "secret",
                               ret_annot == "public", pa, required)
            return
        fn = Function(name=name, qualifier=qualifier,
                      file=self.display, line=line, params=params,
                      annots=annots, required=required,
                      variadic=bool(node.get("variadic")),
                      returns_secret=ret_annot == "secret",
                      returns_public=ret_annot == "public")
        self._lower(body, fn)
        self.prog.functions.append(fn)


def parse_file(path: str, flags: list[str],
               display_path: str | None = None,
               clangxx: str = "clang++",
               cache_dir: str | None = None) -> Program:
    ast = dump_ast(path, flags, clangxx=clangxx, cache_dir=cache_dir)
    display = display_path or path
    walker = _Walker(os.path.realpath(path), display)
    prog = walker.walk(ast)
    # OBF_DECLASSIFY is invisible in the AST (it expands to its
    # argument), so declassified lines come from the raw source in
    # both frontends.
    import re
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = {i for i, text in enumerate(fh.read().splitlines(),
                                            start=1)
                 if re.search(r"\bOBF_DECLASSIFY\s*\(", text)}
    if lines:
        prog.declassified[display] = lines
    return prog
