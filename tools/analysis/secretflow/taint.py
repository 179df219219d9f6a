"""
Interprocedural taint engine.

Flow-insensitive fixpoint over the frontend-neutral IR:

  - Seeds: OBF_SECRET parameters, locals and class members; results
    of calls to functions whose return type is OBF_SECRET.
  - Propagation: assignments, call arguments into callee parameters
    (re-analyzed until stable), and callee return-taint summaries.
    Calls to unknown functions conservatively pass taint from any
    argument to the result.
  - Barriers: OBF_PUBLIC annotations force a variable/return public;
    the CT_SAFE_CALLS set (ctEqual, secureZero, ctSwap, powModCt)
    neither leaks nor propagates; OBF_DECLASSIFY suppresses findings
    on its source line (handled by the driver via
    Program.declassified).

Summaries are keyed by (qualifier, name, parameter count), so
same-named functions of different classes or arities never exchange
taint. A call site resolves to the summaries whose name matches and
whose parameter list takes its argument count, narrowed by the class
the call names (`Cls::f`, or the receiver's declared type; a class
that only declares or inherits the method reaches every class's
method of that name and arity); an unqualified call prefers the
caller's own class, then free functions.

Deliberate imprecision (documented in DESIGN.md Sec. 11): receiver
taint makes a method call's *result* tainted but is not pushed into
the callee's member state, and a call whose receiver type is unknown
resolves to every method of that name and arity. Both err on the side
the baseline can absorb.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import (CT_SAFE_CALLS, Event, Finding, Function, Program,
                 SECRET, PUBLIC, SINK_CALLS, VARIABLE_TIME_CALLS)


@dataclass
class Summary:
    qualifier: str
    nparams: int
    required: int
    variadic: bool = False
    returns_secret: bool = False
    returns_public: bool = False
    param_annots: dict[int, str] = field(default_factory=dict)
    inferred_taint: set[int] = field(default_factory=set)
    defined: bool = False

    def takes(self, nargs: int, operator: bool) -> bool:
        """Whether a call passing `nargs` arguments can bind here. An
        operator call may also pass its object as the first one."""
        if operator and nargs == self.nparams + 1:
            return True
        if nargs < self.required:
            return False
        return nargs <= self.nparams or self.variadic

    def positions(self, args: list[set[str]], operator: bool):
        """Pair call arguments with parameter positions."""
        start = 1 if operator and len(args) == self.nparams + 1 else 0
        return [(pos, ids) for pos, ids in enumerate(args[start:])
                if pos < self.nparams]


def _key(fn: Function) -> tuple[str, str, int]:
    return (fn.qualifier, fn.name, len(fn.params))


def _display_ids(ids: set[str]) -> str:
    names = sorted({i.split("#", 1)[0] for i in ids
                    if not i.startswith("__call")})
    if not names:
        return "a secret-derived call result"
    return "'" + "', '".join(names) + "'"


class Engine:
    def __init__(self, prog: Program):
        self.prog = prog
        self.summaries: dict[tuple[str, str, int], Summary] = {}
        self.by_name: dict[str, list[Summary]] = {}
        self._final_taint: dict[int, set[str]] = {}
        self._build_summaries()
        self.classes = {s.qualifier for s in self.summaries.values()} \
            | {c for c, _ in prog.member_types}

    def _summary(self, key: tuple[str, str, int],
                 required: int) -> Summary:
        s = self.summaries.get(key)
        if s is None:
            s = Summary(key[0], key[2], required)
            self.summaries[key] = s
            self.by_name.setdefault(key[1], []).append(s)
        s.required = min(s.required, required)
        return s

    def _build_summaries(self) -> None:
        for key, (rs, rp, annots, required) in \
                self.prog.decl_summaries.items():
            s = self._summary(key, required)
            s.returns_secret |= rs
            s.returns_public |= rp
            for pos, a in annots.items():
                s.param_annots.setdefault(pos, a)
        for fn in self.prog.functions:
            required = len(fn.params) if fn.required is None \
                else fn.required
            s = self._summary(_key(fn), required)
            s.defined = True
            s.variadic |= fn.variadic
            s.returns_secret |= fn.returns_secret
            s.returns_public |= fn.returns_public
            for pos, p in enumerate(fn.params):
                a = fn.annots.get(p)
                if a:
                    s.param_annots.setdefault(pos, a)

    def _member_type(self, cls: str, var: str) -> str:
        """Declared type of member `var`: of class `cls` if it has
        one, else of the only class declaring a member of that name."""
        found = self.prog.member_types.get((cls, var))
        if found:
            return found
        types = {t for (c, v), t in self.prog.member_types.items()
                 if v == var}
        return types.pop() if len(types) == 1 else ""

    def _resolve(self, ev: Event, caller: Function) -> list[Summary]:
        """The summaries a call site can reach."""
        operator = ev.callee.startswith("operator")
        cands = [s for s in self.by_name.get(ev.callee, [])
                 if s.takes(len(ev.args), operator)]
        qual = ev.callee_qual
        if not qual and ev.recv_var:
            qual = self._member_type(caller.qualifier, ev.recv_var)
        if qual:
            named = [s for s in cands if s.qualifier == qual]
            if any(s.defined for s in named):
                return named
            if qual in self.classes:
                # A program class without a definition of its own (an
                # interface such as MemSink, or an inherited method):
                # any class's method of that name and arity may run.
                return [s for s in cands if s.qualifier]
            if ev.receiver:
                # A receiver of a type the program does not define (a
                # library class such as std::vector) reaches nothing.
                return named
            # `ns::f(...)`: a namespace, not a class.
            return [s for s in cands if not s.qualifier]
        if ev.receiver:
            return [s for s in cands if s.qualifier] or cands
        own = [s for s in cands
               if caller.qualifier and s.qualifier == caller.qualifier]
        if own:
            return own
        return [s for s in cands if not s.qualifier] or cands

    # ---- per-function propagation ----------------------------------

    def _seeds(self, fn: Function) -> tuple[set[str], set[str]]:
        tainted: set[str] = set()
        public: set[str] = set()
        summary = self.summaries[_key(fn)]
        for pos, p in enumerate(fn.params):
            annot = fn.annots.get(p) or summary.param_annots.get(pos)
            if annot == PUBLIC:
                public.add(p)
            elif annot == SECRET or pos in summary.inferred_taint:
                tainted.add(p)
        for var, annot in fn.annots.items():
            if annot == SECRET:
                tainted.add(var)
            elif annot == PUBLIC:
                public.add(var)
        for (cls, var), annot in self.prog.members.items():
            if cls and cls != fn.qualifier:
                continue
            if annot == SECRET:
                tainted.add(var)
            else:
                public.add(var)
        tainted -= public
        return tainted, public

    def _run_function(self, fn: Function) -> bool:
        """One pass; returns True if any global summary changed."""
        tainted, public = self._seeds(fn)
        changed_global = False
        summary = self.summaries[_key(fn)]
        for _ in range(64):  # local fixpoint; converges fast
            before = len(tainted)
            for ev in fn.events:
                if ev.kind == "assign":
                    if ev.rhs & tainted:
                        tainted |= ev.ids - public
                elif ev.kind == "call":
                    if ev.callee in CT_SAFE_CALLS:
                        continue
                    callees = self._resolve(ev, fn)
                    operator = ev.callee.startswith("operator")
                    arg_tainted = bool(ev.recv & tainted) or any(
                        a & tainted for a in ev.args)
                    if callees and all(cs.returns_public
                                       for cs in callees):
                        result_secret = False
                    elif any(cs.returns_secret for cs in callees):
                        result_secret = True
                    else:
                        result_secret = arg_tainted
                    if result_secret and ev.result:
                        tainted.add(ev.result)
                    for cs in callees:
                        for pos, argids in cs.positions(ev.args,
                                                        operator):
                            annot = cs.param_annots.get(pos)
                            # OBF_SECRET out-params taint the caller's
                            # argument (pads, derived keys written
                            # through references).
                            if annot == SECRET:
                                tainted |= argids - public
                            # Push taint into a defined callee's
                            # params.
                            elif cs.defined and annot != PUBLIC \
                                    and argids & tainted \
                                    and pos not in cs.inferred_taint:
                                cs.inferred_taint.add(pos)
                                changed_global = True
                elif ev.kind == "return":
                    if ev.ids & tainted and not fn.returns_public \
                            and not summary.returns_public:
                        if not summary.returns_secret:
                            summary.returns_secret = True
                            changed_global = True
            if len(tainted) == before:
                break
        self._final_taint[id(fn)] = tainted
        return changed_global

    # ---- driver ----------------------------------------------------

    def run(self) -> None:
        for _ in range(32):  # global fixpoint
            changed = False
            for fn in self.prog.functions:
                changed |= self._run_function(fn)
            if not changed:
                break

    def findings(self) -> list[Finding]:
        out: list[Finding] = []
        seen: set[tuple] = set()

        def emit(rule, fn, line, msg):
            if line in self.prog.declassified.get(fn.file, set()):
                return
            key = (rule, fn.file, line)
            if key in seen:
                return
            seen.add(key)
            out.append(Finding(rule, fn.file, line, fn.display, msg))

        for fn in self.prog.functions:
            tainted = self._final_taint.get(id(fn), set())
            if not tainted:
                continue
            for ev in fn.events:
                hot = ev.ids & tainted
                if ev.kind == "branch" and hot:
                    what = ("loop bound or condition"
                            if ev.detail in ("for", "while")
                            else "branch condition")
                    emit("secret-branch", fn, ev.line,
                         f"{what} depends on secret-tainted "
                         f"{_display_ids(hot)} "
                         f"(in {fn.display})")
                elif ev.kind == "index" and hot:
                    emit("secret-index", fn, ev.line,
                         "memory indexed by secret-tainted "
                         f"{_display_ids(hot)} (in {fn.display}); "
                         "secret-dependent addresses leak through "
                         "the cache")
                elif ev.kind == "binop" and hot:
                    emit("variable-time", fn, ev.line,
                         f"'{ev.detail}' on secret-tainted "
                         f"{_display_ids(hot)} (in {fn.display}); "
                         "division latency is operand-dependent")
                elif ev.kind == "stream" and hot:
                    emit("secret-sink", fn, ev.line,
                         "secret-tainted "
                         f"{_display_ids(hot)} written to an "
                         f"output stream (in {fn.display})")
                elif ev.kind == "call":
                    if ev.callee in CT_SAFE_CALLS:
                        continue
                    hot_args = ev.recv & tainted
                    for a in ev.args:
                        hot_args |= a & tainted
                    if not hot_args:
                        continue
                    if ev.callee in VARIABLE_TIME_CALLS:
                        emit("variable-time", fn, ev.line,
                             f"variable-time call {ev.callee}() on "
                             "secret-tainted "
                             f"{_display_ids(hot_args)} "
                             f"(in {fn.display}); use "
                             "crypto::ctEqual instead")
                    elif ev.callee in SINK_CALLS:
                        emit("secret-sink", fn, ev.line,
                             "secret-tainted "
                             f"{_display_ids(hot_args)} passed to "
                             f"external sink {ev.callee}() "
                             f"(in {fn.display})")
        out.sort(key=lambda f: (f.file, f.line, f.rule))
        return out


def analyze(prog: Program) -> list[Finding]:
    eng = Engine(prog)
    eng.run()
    return eng.findings()
