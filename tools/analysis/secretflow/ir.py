"""
Frontend-neutral IR for the secret-flow analyzer.

A `Program` is a bag of `Function`s plus the annotation side tables.
Variables are opaque strings: the lite frontend uses source-level
identifiers (scoped per function), the clang frontend uses AST decl
ids, which are globally unique. The taint engine only ever compares
them for equality, so either works.
"""

from __future__ import annotations

from dataclasses import dataclass, field


SECRET = "secret"
PUBLIC = "public"

# Calls whose implementations are constant-time by construction.
# They act as taint barriers: no findings at the call site and the
# result is untainted (ctEqual's bool is the classic deliberately
# public comparison outcome).
CT_SAFE_CALLS = {
    "ctEqual",
    "secureZero",
    "ctSwap",
    "powModCt",
}

# Variable-time library calls (rule: variable-time).
VARIABLE_TIME_CALLS = {
    "memcmp",
    "strcmp",
    "strncmp",
    "strcasecmp",
    "strncasecmp",
    "bcmp",
}

# External observation points (rule: secret-sink): the repo's logging
# macros, stats hooks and stdio. Stream output to cout/cerr is
# detected separately (Event.kind == "stream").
SINK_CALLS = {
    "panic",
    "fatal",
    "fatal_if",
    "panic_if",
    "warn",
    "warn_if",
    "inform",
    "hack",
    "printf",
    "fprintf",
    "sprintf",
    "snprintf",
    "puts",
    "fputs",
    "putchar",
    "writeJsonl",
    "recordStat",
}

RULES = ("secret-branch", "secret-index", "variable-time", "secret-sink")


@dataclass
class Event:
    """One taint-relevant operation inside a function body."""

    kind: str  # assign | branch | index | call | binop | return | stream
    line: int
    # assign: ids written; branch/index/binop/return/stream: ids read.
    ids: set[str] = field(default_factory=set)
    # assign only: ids read on the right-hand side.
    rhs: set[str] = field(default_factory=set)
    # call only. `args` are the call's arguments in parameter order;
    # `recv` holds the ids of the receiver (`a` in `a.f(x)`), whose
    # taint reaches the result but no parameter.
    callee: str = ""
    args: list[set[str]] = field(default_factory=list)
    recv: set[str] = field(default_factory=set)
    # call only: the call goes through an object (`a.f()`, `p->f()`).
    receiver: bool = False
    # call only: the class the callee belongs to when the call site
    # says so -- `Cls::f(...)`, or the receiver's declared type. Empty
    # when unknown.
    callee_qual: str = ""
    # call only (lite frontend): the receiver variable's name when its
    # type was not known at the call; the engine looks it up among the
    # program's member declarations.
    recv_var: str = ""
    # call: synthetic id holding the call result (so nested uses of
    # the result -- branch conditions, subscripts -- see its taint).
    result: str = ""
    # branch: if/while/for/switch/ternary; binop: % or /.
    detail: str = ""


@dataclass
class Function:
    name: str  # last component, e.g. "setKey"
    qualifier: str  # enclosing class, "" for free functions
    file: str
    line: int
    # Parameter variables in positional order.
    params: list[str] = field(default_factory=list)
    # Parameters without a default argument (None: all of them), and
    # whether the parameter list ends in a pack or `...`.
    required: int | None = None
    variadic: bool = False
    # var -> SECRET | PUBLIC, from annotations on params/locals.
    annots: dict[str, str] = field(default_factory=dict)
    returns_secret: bool = False  # OBF_SECRET on the return type
    returns_public: bool = False  # OBF_PUBLIC on the return type
    events: list[Event] = field(default_factory=list)

    @property
    def display(self) -> str:
        return f"{self.qualifier}::{self.name}" if self.qualifier \
            else self.name


@dataclass
class Program:
    functions: list[Function] = field(default_factory=list)
    # (class, member-or-declid) -> SECRET | PUBLIC for annotated
    # members. The lite frontend scopes by class name; the clang
    # frontend uses ("", decl-id) since ids are globally unique.
    members: dict[tuple[str, str], str] = field(default_factory=dict)
    # Summaries from declarations without bodies (headers), keyed by
    # (qualifier, name, parameter count) like the engine's summaries:
    # key -> (returns_secret, returns_public, {pos: annot}, required).
    decl_summaries: dict[tuple[str, str, int],
                         tuple[bool, bool, dict[int, str], int]] = \
        field(default_factory=dict)
    # (class, member) -> the member's declared type (last name
    # component), used to resolve `member.f(...)` calls.
    member_types: dict[tuple[str, str], str] = \
        field(default_factory=dict)
    # file -> lines containing OBF_DECLASSIFY (findings suppressed).
    declassified: dict[str, set[int]] = field(default_factory=dict)

    def add_decl(self, key: tuple[str, str, int], returns_secret: bool,
                 returns_public: bool, annots: dict[int, str],
                 required: int) -> None:
        """Record (or merge into) a body-less declaration's summary."""
        ors, orp, opa, oreq = self.decl_summaries.get(
            key, (False, False, {}, key[2]))
        merged = dict(opa)
        merged.update(annots)
        self.decl_summaries[key] = (returns_secret or ors,
                                    returns_public or orp, merged,
                                    min(required, oreq))

    def merge(self, other: "Program") -> None:
        self.functions.extend(other.functions)
        self.members.update(other.members)
        self.member_types.update(other.member_types)
        for key, (rs, rp, pa, req) in other.decl_summaries.items():
            self.add_decl(key, rs, rp, pa, req)
        for f, lines in other.declassified.items():
            self.declassified.setdefault(f, set()).update(lines)


@dataclass(frozen=True)
class Finding:
    rule: str
    file: str
    line: int
    function: str  # display name of the enclosing function
    message: str

    def format(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"
