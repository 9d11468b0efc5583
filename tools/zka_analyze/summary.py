"""Phase 1 of the cross-TU analyzer: per-function fact extraction.

While engine.run_rules walks a translation unit for the single-TU rules
(A1-A5), a SummaryExtractor rides along as an extra visitor and distills
every in-scope function definition into a small JSON-serializable
summary: what it calls, where it allocates, which shared Rng objects it
draws from, which spans escape their backing buffer, how it touches the
streaming-aggregation protocol, and where it iterates unordered
containers. Phase 2 (xtu.py, pure Python, no libclang) then reasons
transitively over the merged summaries.

The summaries are deliberately plain dicts so they can be cached to disk
(cache.py) and unit-tested without clang.

Modelling limits (documented in DESIGN.md): calls through std::function
members/locals and function-pointer tables are opaque (no edge); lambdas
are resolved when passed literally or through a local lambda variable at
the call site, which covers every parallel_for site in the repo today.
"""

from __future__ import annotations

from rules import binop_spelling, float_class, peel

# Rng members that advance generator state. split() is the sanctioned way
# to hand randomness to concurrent work, so it is exempt by design.
DRAW_METHODS = frozenset(
    {
        "operator()",
        "uniform",
        "uniform_index",
        "normal",
        "gamma",
        "dirichlet",
        "sample_without_replacement",
        "shuffle",
    }
)

# Member calls that may (re)allocate a standard container's storage.
GROWTH_METHODS = frozenset(
    {
        "push_back",
        "emplace_back",
        "push_front",
        "emplace_front",
        "resize",
        "insert",
        "emplace",
        "emplace_hint",
        "append",
        "assign",
    }
)

ALLOC_CALLS = frozenset(
    {"malloc", "calloc", "realloc", "aligned_alloc", "strdup", "make_unique", "make_shared"}
)

STREAM_METHODS = frozenset({"begin_stream", "stream_update", "finish_stream"})

# -- taint extraction (rules A11-A15) ---------------------------------------

# Member calls that copy element values from an argument into the
# receiver: taint flows argument -> receiver container.
TAINT_GROWTH = frozenset(
    {
        "push_back",
        "emplace_back",
        "push_front",
        "emplace_front",
        "insert",
        "emplace",
        "append",
        "assign",
    }
)

# Calls through which *value* taint does not flow. Sizes and counts are
# server-controlled bookkeeping even when the container's elements are
# attacker-controlled; keeping them opaque stops span-granularity
# over-taint (`buf.reserve(updates.size())` is not an attacker-sized
# allocation, `updates[0]` is an attacker value).
SIZE_CALLS = frozenset(
    {"size", "ssize", "length", "capacity", "empty", "max_size", "bytes"}
)

# Element/subrange accessors whose result carries the container's value
# taint and whose *arguments* are index sinks (rule A14).
INDEX_CALLS = frozenset({"at", "subspan", "first", "last", "operator[]"})

# Value accessors taint flows straight through (receiver -> result).
VALUE_HOPS = frozenset({"front", "back", "data", "raw", "begin", "end", "value"})

# Bounding calls: std::min/max/clamp dominate their result, so a call
# counts as a range guard on its argument keys (rule A11/A12/A14).
CLAMP_CALLS = frozenset({"min", "max", "clamp"})

# Finite-classification calls: a guard mentioning one sanitizes the
# checked keys against non-finite values (rule A13).
FINITE_CALLS = frozenset({"isfinite", "isnan", "isinf", "is_finite"})

# Reduce-toolkit accumulation primitives (invariant R5 routes all
# defense multiply-accumulate through these): folding a tainted float in
# without finite sanitization is an A13 sink.
ACCUM_FNS = frozenset(
    {
        "axpy",
        "dot",
        "fmadd",
        "weighted_sum",
        "squared_norm",
        "squared_distance",
        "gram_matrix",
    }
)

# Functions matching these unqualified-name prefixes are sanitizers by
# convention (trust.json documents/extends the set): their return value
# is trusted and their argument keys are clean downstream of the call.
SANITIZE_PREFIXES = ("validate_", "sanitize_", "admit_")

CONTAINER_MARKERS = (
    "std::vector<",
    "std::deque<",
    "std::map<",
    "std::unordered_map<",
    "std::set<",
    "std::unordered_set<",
    "std::basic_string<",
    "std::list<",
)

# Types whose storage dies with the owning scope; a span/pointer derived
# from a local of one of these must not outlive the function (rule A8).
OWNER_MARKERS = CONTAINER_MARKERS + ("std::array<", "zka::tensor::Tensor")

UNORDERED_MARKERS = ("unordered_map<", "unordered_set<")

ENTRY_NAMES = frozenset(
    {
        "aggregate",
        "craft",
        "begin_stream",
        "stream_update",
        "stream_replay",
        "finish_stream",
        "reported_weight",
        # The protected virtual hooks behind the sanitizing public
        # wrappers (template-method pattern in defense/aggregator.h).
        # Marked so phase 2 can resolve wrapper -> hook virtual dispatch
        # and treat hook implementations as dataflow roots; they are NOT
        # taint sources — the wrapper sanitizes before dispatching.
        "do_aggregate",
        "do_begin_stream",
        "do_stream_update",
        "do_stream_replay",
    }
)
ENTRY_BASES = frozenset({"Aggregator", "Attack"})


def new_facts() -> dict:
    """One function's (or one parallel body's) raw facts."""
    return {
        "calls": [],  # {usr, name, line, off, lambdas: [facts...]}
        "allocs": [],  # {line, what, recv|None, off}
        "reserves": [],  # {recv, off}
        "rng_draws": [],  # {line, obj, kind: param|member|outer}
        "ret_views": [],  # {line, what}
        "view_stores": [],  # {line, what}
        "stream_calls": [],  # {kind, line, off}
        "unordered_iters": [],  # {line}
        "parallel_bodies": [],  # {line, facts}
        "parallel_params": [],  # USRs of own params whose callable runs in parallel
        "loops": [],  # {start, end} source-offset extents of loop statements
        # -- taint facts (A11-A15) --
        "params": [],  # {usr, name} in declaration order
        "flows": [],  # {dst, srcs: [key...], off} value assignments/inserts
        "taint_returns": [],  # {keys, off} keys feeding a return value
        "sinks": [],  # {kind: alloc|div|accum|index|loop_bound, keys, line, off, what}
        "guards": [],  # {kinds: [check|finite...], keys, off}
        "sanitize_calls": [],  # {name, keys, off} calls to sanitizer functions
    }


def qual_name(cursor) -> str:
    parts = []
    cur = cursor
    while cur is not None and not cur.kind.is_translation_unit():
        if cur.spelling:
            parts.append(cur.spelling)
        cur = cur.semantic_parent
    return "::".join(reversed(parts))


def _canonical(type_obj) -> str:
    return type_obj.get_canonical().spelling


def _dedup(keys):
    return list(dict.fromkeys(k for k in keys if k))


def _contains(type_obj, markers) -> bool:
    spelling = _canonical(type_obj)
    return any(m in spelling for m in markers)


class SummaryExtractor:
    """One instance per TU; engine.run_rules calls visit() on every
    in-scope cursor. Summaries accumulate in self.summaries keyed by the
    function's USR."""

    def __init__(self, cindex, scope):
        self.cx = cindex
        self.scope = scope
        self.summaries: dict = {}
        self._int_kinds = None

    # -- engine hook -------------------------------------------------------

    def visit(self, node, rel, func_stack):
        if not func_stack:
            return
        fn = func_stack[-1]
        facts = self._facts_for(fn, rel)
        if facts is None:
            return
        cx = self.cx
        kind = node.kind
        if kind == cx.CursorKind.CXX_NEW_EXPR:
            facts["allocs"].append(self._alloc(node, "new"))
        elif kind == cx.CursorKind.CALL_EXPR:
            self._on_call(node, fn, facts, collect_parallel=True)
        elif kind == cx.CursorKind.VAR_DECL:
            self._on_var_decl(node, facts)
            self._taint_var_decl(node, facts)
        elif kind == cx.CursorKind.CXX_FOR_RANGE_STMT:
            self._on_loop(node, facts)
            self._on_range_for(node, facts)
            self._taint_range_for(node, facts)
        elif kind in (
            cx.CursorKind.FOR_STMT,
            cx.CursorKind.WHILE_STMT,
            cx.CursorKind.DO_STMT,
        ):
            self._on_loop(node, facts)
            self._taint_loop_bound(node, facts)
        elif kind == cx.CursorKind.RETURN_STMT:
            self._on_return(node, fn, facts)
        elif kind in (
            cx.CursorKind.BINARY_OPERATOR,
            cx.CursorKind.COMPOUND_ASSIGNMENT_OPERATOR,
        ):
            self._taint_binop(node, facts)
        elif kind == cx.CursorKind.ARRAY_SUBSCRIPT_EXPR:
            self._taint_subscript(node, facts)
        elif kind in (
            cx.CursorKind.IF_STMT,
            cx.CursorKind.CONDITIONAL_OPERATOR,
        ):
            self._taint_guard(node, facts)

    @staticmethod
    def _on_loop(node, facts):
        """Loop extents let phase 2 distinguish one-time setup allocations
        from per-iteration ones inside a hot root (A6 flags only the
        latter; the fix is precisely to hoist out of the loop)."""
        facts["loops"].append(
            {"start": node.extent.start.offset, "end": node.extent.end.offset}
        )

    # -- summary bookkeeping ----------------------------------------------

    def _facts_for(self, fn, rel):
        usr = fn.get_usr()
        if not usr:
            return None
        record = self.summaries.get(usr)
        if record is None:
            fn_rel = self.scope.rel_path(fn) or rel
            record = {
                "usr": usr,
                "name": qual_name(fn),
                "path": fn_rel,
                "line": fn.location.line,
                "entry": self._entry_kind(fn),
                "facts": new_facts(),
            }
            record["facts"]["params"] = [
                {"usr": p.get_usr(), "name": p.spelling}
                for p in fn.get_arguments()
                if p.get_usr()
            ]
            self.summaries[usr] = record
        return record["facts"]

    def _entry_kind(self, fn):
        cx = self.cx
        if fn.kind != cx.CursorKind.CXX_METHOD or fn.spelling not in ENTRY_NAMES:
            return None
        cls = fn.semantic_parent
        if cls is None:
            return None
        if cls.spelling in ENTRY_BASES or self._derives(cls, set()):
            return fn.spelling
        return None

    def _derives(self, cls, seen) -> bool:
        cx = self.cx
        cls = cls.get_definition() or cls
        key = cls.get_usr()
        if key in seen:
            return False
        seen.add(key)
        for child in cls.get_children():
            if child.kind != cx.CursorKind.CXX_BASE_SPECIFIER:
                continue
            base = child.type.get_declaration()
            if base is None:
                continue
            if base.spelling in ENTRY_BASES:
                return True
            base_def = base.get_definition()
            if base_def is not None and self._derives(base_def, seen):
                return True
        return False

    # -- fact classification ----------------------------------------------

    @staticmethod
    def _alloc(node, what, recv=None):
        return {
            "line": node.location.line,
            "off": node.location.offset,
            "what": what,
            "recv": recv,
        }

    def _on_call(self, node, fn, facts, collect_parallel):
        cx = self.cx
        callee = node.referenced
        name = callee.spelling if callee is not None else ""

        if name == "parallel_for" and collect_parallel:
            self._on_parallel_site(node, fn, facts)

        if name in STREAM_METHODS:
            facts["stream_calls"].append(
                {"kind": name, "line": node.location.line, "off": node.location.offset}
            )

        if name in ALLOC_CALLS:
            facts["allocs"].append(self._alloc(node, name + "()"))
        elif name in GROWTH_METHODS or name == "reserve":
            recv_expr = self._member_receiver(node)
            if recv_expr is not None and _contains(recv_expr.type, CONTAINER_MARKERS):
                key = self._obj_key(recv_expr)
                if name == "reserve":
                    facts["reserves"].append({"recv": key, "off": node.location.offset})
                else:
                    facts["allocs"].append(self._alloc(node, name + "()", recv=key))
                if (
                    name in ("push_back", "emplace_back")
                    and recv_expr.kind == cx.CursorKind.MEMBER_REF_EXPR
                    and "std::span<" in _canonical(recv_expr.type)
                ):
                    self._on_view_append(node, facts)
        elif name == "operator=":
            self._on_assign_call(node, facts)
        elif name in ("begin", "cbegin"):
            recv_expr = self._member_receiver(node)
            if recv_expr is not None and _contains(recv_expr.type, UNORDERED_MARKERS):
                facts["unordered_iters"].append({"line": node.location.line})

        self._taint_call(node, facts, name)
        self._maybe_rng_draw(node, fn, facts, name, boundary=None)

        # Cross-TU call edge, for callees defined in this repo only (std
        # and system calls are leaves the dataflow never descends into).
        if callee is not None and callee.kind in (
            cx.CursorKind.FUNCTION_DECL,
            cx.CursorKind.CXX_METHOD,
            cx.CursorKind.CONSTRUCTOR,
            cx.CursorKind.FUNCTION_TEMPLATE,
        ):
            if self.scope.rel_path(callee) is not None:
                usr = callee.get_usr()
                if usr:
                    entry = {
                        "usr": usr,
                        "name": qual_name(callee),
                        "line": node.location.line,
                        "off": node.location.offset,
                    }
                    args = [
                        _dedup(self._expr_keys(a)) for a in node.get_arguments()
                    ]
                    if any(args):
                        entry["args"] = args
                    if collect_parallel:
                        lambdas = self._lambda_args(node, fn)
                        if lambdas:
                            entry["lambdas"] = lambdas
                    facts["calls"].append(entry)

    def _on_parallel_site(self, node, fn, facts):
        body = None
        for arg in node.get_children():
            lam = self._resolve_lambda(arg)
            if lam is not None:
                body = lam
            param = self._resolve_param_ref(arg, fn)
            if param is not None:
                facts["parallel_params"].append(param)
        if body is not None:
            body_facts = new_facts()
            self._walk_lambda(body, fn, body_facts)
            facts["parallel_bodies"].append(
                {"line": node.location.line, "facts": body_facts}
            )

    def _lambda_args(self, node, fn):
        """Facts for lambda literals (or local lambda variables) handed to a
        call — phase 2 roots these when the callee is a parallel wrapper."""
        lambdas = []
        for arg in node.get_children():
            lam = self._resolve_lambda(arg)
            if lam is not None:
                body_facts = new_facts()
                self._walk_lambda(lam, fn, body_facts)
                lambdas.append(body_facts)
        return lambdas

    def _resolve_lambda(self, expr):
        """LAMBDA_EXPR for a literal lambda argument, or for a DECL_REF to a
        local variable initialized with one (`auto run = [&]...`)."""
        cx = self.cx
        expr = peel(cx, expr)
        if expr.kind == cx.CursorKind.LAMBDA_EXPR:
            return expr
        if expr.kind == cx.CursorKind.DECL_REF_EXPR:
            decl = expr.referenced
            if decl is not None and decl.kind == cx.CursorKind.VAR_DECL:
                if "(lambda at" in _canonical(decl.type):
                    stack = list(decl.get_children())
                    while stack:
                        cur = stack.pop()
                        if cur.kind == cx.CursorKind.LAMBDA_EXPR:
                            return cur
                        stack.extend(cur.get_children())
        return None

    def _resolve_param_ref(self, expr, fn):
        cx = self.cx
        expr = peel(cx, expr)
        if expr.kind != cx.CursorKind.DECL_REF_EXPR:
            return None
        decl = expr.referenced
        if decl is not None and decl.kind == cx.CursorKind.PARM_DECL:
            if self._is_own_param(decl, fn):
                return decl.get_usr()
        return None

    @staticmethod
    def _is_own_param(decl, fn) -> bool:
        decl_file = decl.location.file
        fn_file = fn.extent.start.file
        if decl_file is None or fn_file is None or decl_file.name != fn_file.name:
            return False
        off = decl.location.offset
        return fn.extent.start.offset <= off <= fn.extent.end.offset

    def _walk_lambda(self, lam, fn, facts):
        """Collect facts inside a parallel body, classifying captured state
        relative to the lambda boundary (not the enclosing function)."""
        cx = self.cx

        def walk(node):
            kind = node.kind
            if kind == cx.CursorKind.CXX_NEW_EXPR:
                facts["allocs"].append(self._alloc(node, "new"))
            elif kind == cx.CursorKind.CALL_EXPR:
                self._on_lambda_call(node, lam, fn, facts)
            elif kind == cx.CursorKind.VAR_DECL:
                self._on_var_decl(node, facts)
            elif kind == cx.CursorKind.CXX_FOR_RANGE_STMT:
                self._on_range_for(node, facts)
            for child in node.get_children():
                walk(child)

        for child in lam.get_children():
            walk(child)

    def _on_lambda_call(self, node, lam, fn, facts):
        cx = self.cx
        callee = node.referenced
        name = callee.spelling if callee is not None else ""
        if name in ALLOC_CALLS:
            facts["allocs"].append(self._alloc(node, name + "()"))
        elif name in GROWTH_METHODS or name == "reserve":
            recv_expr = self._member_receiver(node)
            if recv_expr is not None and _contains(recv_expr.type, CONTAINER_MARKERS):
                key = self._obj_key(recv_expr)
                if name == "reserve":
                    facts["reserves"].append({"recv": key, "off": node.location.offset})
                else:
                    facts["allocs"].append(self._alloc(node, name + "()", recv=key))
        elif name == "operator=":
            self._on_assign_call(node, facts)

        self._maybe_rng_draw(node, fn, facts, name, boundary=lam)

        # Invoking a std::function parameter of the enclosing function from
        # inside a parallel body marks that function as a parallel wrapper.
        if name == "operator()" or callee is None:
            children = list(node.get_children())
            if children:
                base = peel(cx, children[0])
                param = self._resolve_param_ref(base, fn)
                if param is not None:
                    self.summaries[fn.get_usr()]["facts"]["parallel_params"].append(
                        param
                    )
        if callee is not None and callee.kind in (
            cx.CursorKind.FUNCTION_DECL,
            cx.CursorKind.CXX_METHOD,
            cx.CursorKind.CONSTRUCTOR,
        ):
            if self.scope.rel_path(callee) is not None:
                usr = callee.get_usr()
                if usr:
                    facts["calls"].append(
                        {
                            "usr": usr,
                            "name": qual_name(callee),
                            "line": node.location.line,
                            "off": node.location.offset,
                        }
                    )

    # -- receivers, objects, Rng ------------------------------------------

    def _member_receiver(self, call):
        """The object expression of a member call (`v.push_back(x)` -> `v`),
        or None for free-function calls."""
        cx = self.cx
        children = list(call.get_children())
        if not children:
            return None
        head = children[0]
        if head.kind == cx.CursorKind.MEMBER_REF_EXPR:
            inner = list(head.get_children())
            return peel(cx, inner[0]) if inner else head
        return None

    def _obj_key(self, expr):
        """Stable identity for a receiver object, so reserve() sites can
        suppress later growth on the same container."""
        cx = self.cx
        expr = peel(cx, expr)
        if expr.kind == cx.CursorKind.DECL_REF_EXPR:
            decl = expr.referenced
            return decl.get_usr() if decl is not None else None
        if expr.kind == cx.CursorKind.MEMBER_REF_EXPR:
            inner = list(expr.get_children())
            base = self._obj_key(inner[0]) if inner else "this"
            return f"{base}.{expr.spelling}" if base else None
        if expr.kind == cx.CursorKind.CXX_THIS_EXPR:
            return "this"
        return None

    def _maybe_rng_draw(self, node, fn, facts, name, boundary):
        """Record a state-advancing draw on an Rng that is shared relative
        to `boundary` (the lambda for parallel bodies, else the function).
        Draws on boundary-local Rngs and on split() results are safe."""
        cx = self.cx
        if name not in DRAW_METHODS:
            return
        children = list(node.get_children())
        if not children:
            return
        head = children[0]
        if head.kind == cx.CursorKind.MEMBER_REF_EXPR:
            inner = list(head.get_children())
            recv = peel(cx, inner[0]) if inner else None
            implicit_this = not inner
            if implicit_this:
                callee = node.referenced
                owner = callee.semantic_parent if callee is not None else None
                if owner is None or owner.spelling != "Rng":
                    return
        else:
            # operator() via CXXOperatorCallExpr: args follow the callee ref.
            recv = peel(cx, children[1]) if name == "operator()" and len(children) > 1 else None
            implicit_this = False
            if recv is None:
                return
        if recv is not None and "zka::util::Rng" not in _canonical(recv.type):
            return
        if recv is None and not implicit_this:
            return
        kind, obj = self._classify_object(recv, fn, boundary, implicit_this)
        if kind is None:
            return
        facts["rng_draws"].append(
            {"line": node.location.line, "obj": obj, "kind": kind}
        )

    def _classify_object(self, recv, fn, boundary, implicit_this):
        """(kind, spelling) where kind is param/member/outer for shared
        state, or (None, None) when the object is boundary-local or derives
        from Rng::split."""
        cx = self.cx
        if implicit_this or (recv is not None and recv.kind == cx.CursorKind.CXX_THIS_EXPR):
            return "member", "this"
        if recv is None:
            return None, None
        if recv.kind == cx.CursorKind.CALL_EXPR:
            callee = recv.referenced
            if callee is not None and callee.spelling == "split":
                return None, None  # rng.split(salt)(...) — sanctioned
            return None, None  # opaque temporary; assume fresh
        if recv.kind == cx.CursorKind.MEMBER_REF_EXPR:
            return "member", recv.spelling
        if recv.kind == cx.CursorKind.DECL_REF_EXPR:
            decl = recv.referenced
            if decl is None:
                return None, None
            if boundary is not None and self._declared_inside(decl, boundary):
                return None, None  # fresh per-task object
            if decl.kind == cx.CursorKind.PARM_DECL:
                return "param", decl.spelling
            if decl.kind == cx.CursorKind.VAR_DECL:
                if boundary is None and self._declared_inside(decl, fn):
                    return None, None  # function-local, single-threaded here
                return "outer", decl.spelling
            if decl.kind == cx.CursorKind.FIELD_DECL:
                return "member", decl.spelling
        return None, None

    @staticmethod
    def _declared_inside(decl, scope_cursor) -> bool:
        decl_file = decl.location.file
        scope_file = scope_cursor.extent.start.file
        if decl_file is None or scope_file is None or decl_file.name != scope_file.name:
            return False
        off = decl.location.offset
        return (
            scope_cursor.extent.start.offset <= off <= scope_cursor.extent.end.offset
        )

    # -- taint extraction (A11-A15) ---------------------------------------
    #
    # Keys identify value-carrying storage: the USR of a variable,
    # parameter or field, or "ret:<qualified-name>" for the result of a
    # repo-internal call. Phase 2 (xtu.py) seeds keys from trust.json
    # sources, propagates through `flows` / call `args` / `taint_returns`,
    # and judges `sinks` against `guards` and `sanitize_calls`.

    def _taint_call(self, node, facts, name):
        """All taint-relevant facts at one call site. Recorded whether or
        not the callee resolves into the analysis scope, so sanitizer
        calls and sinks work in fixture mode too."""
        callee = node.referenced
        if name.startswith(SANITIZE_PREFIXES):
            keys = []
            for arg in node.get_arguments():
                keys.extend(self._expr_keys(arg))
            facts["sanitize_calls"].append(
                {
                    "name": qual_name(callee) if callee is not None else name,
                    "keys": _dedup(keys),
                    "off": node.location.offset,
                }
            )
            return  # a sanitizer call is neither a sink nor a guard
        if name in ("resize", "reserve"):
            recv = self._member_receiver(node)
            if recv is not None and _contains(recv.type, CONTAINER_MARKERS):
                keys = []
                for arg in node.get_arguments():
                    keys.extend(self._typed_keys(arg, "int"))
                self._sink(facts, "alloc", keys, node, name + "()")
        elif name in INDEX_CALLS:
            args = list(node.get_arguments())
            if name == "operator[]" and args:
                args = args[1:]  # operator calls pass the receiver as arg 0
            keys = []
            for arg in args:
                keys.extend(self._typed_keys(arg, "int"))
            self._sink(facts, "index", keys, node, name)
        elif name in ACCUM_FNS:
            keys = []
            for arg in node.get_arguments():
                keys.extend(self._expr_keys(arg))
            self._sink(facts, "accum", keys, node, name + "()")
        elif name in CLAMP_CALLS or name in FINITE_CALLS:
            keys = []
            for arg in node.get_arguments():
                keys.extend(self._expr_keys(arg))
            keys = _dedup(keys)
            if keys:
                kinds = ["check", "finite"] if name in FINITE_CALLS else ["check"]
                facts["guards"].append(
                    {"kinds": kinds, "keys": keys, "off": node.location.offset}
                )
        if name in TAINT_GROWTH:
            recv = self._member_receiver(node)
            if recv is not None:
                dst = self._lvalue_key(recv)
                srcs = []
                for arg in node.get_arguments():
                    srcs.extend(self._expr_keys(arg))
                srcs = _dedup(srcs)
                if dst and srcs:
                    facts["flows"].append(
                        {"dst": dst, "srcs": srcs, "off": node.location.offset}
                    )

    @staticmethod
    def _sink(facts, kind, keys, node, what):
        keys = _dedup(keys)
        if not keys:
            return
        facts["sinks"].append(
            {
                "kind": kind,
                "keys": keys,
                "line": node.location.line,
                "off": node.location.offset,
                "what": what,
            }
        )

    def _expr_keys(self, expr, depth=0):
        """Taint keys read by a value expression. Size/count accessors
        are opaque by design: element taint must not leak into
        server-controlled bookkeeping quantities."""
        cx = self.cx
        if expr is None or depth > 24:
            return []
        expr = peel(cx, expr)
        kind = expr.kind
        if kind == cx.CursorKind.DECL_REF_EXPR:
            decl = expr.referenced
            if decl is not None and decl.kind in (
                cx.CursorKind.VAR_DECL,
                cx.CursorKind.PARM_DECL,
                cx.CursorKind.FIELD_DECL,
            ):
                usr = decl.get_usr()
                return [usr] if usr else []
            return []
        if kind == cx.CursorKind.MEMBER_REF_EXPR:
            decl = expr.referenced
            if decl is not None and decl.kind == cx.CursorKind.FIELD_DECL:
                usr = decl.get_usr()
                if usr:
                    return [usr]
            inner = list(expr.get_children())
            return self._expr_keys(inner[0], depth + 1) if inner else []
        if kind == cx.CursorKind.CALL_EXPR:
            callee = expr.referenced
            name = callee.spelling if callee is not None else ""
            if name in SIZE_CALLS:
                return []
            if (
                callee is not None
                and callee.kind != cx.CursorKind.CONSTRUCTOR
                and name not in ("move", "forward")
                and self.scope.rel_path(callee) is not None
            ):
                # Repo-internal call: propagation happens at the callee's
                # summary; the result is identified by its return key.
                return ["ret:" + qual_name(callee)]
            # std/constructor/move calls: value passes through the
            # arguments (covers at/operator[]/front/data hops too).
            out = []
            for child in expr.get_children():
                out.extend(self._expr_keys(child, depth + 1))
            return out
        out = []
        for child in expr.get_children():
            out.extend(self._expr_keys(child, depth + 1))
        return out

    def _typed_keys(self, expr, want, depth=0):
        """Keys feeding an expression, restricted to reads whose own type
        is in the wanted scalar class ('int' or 'float'). Casts adopt the
        cast-to class, so every key under static_cast<size_t>(u[0])
        counts as an integer read."""
        cx = self.cx
        if expr is None or depth > 24:
            return []
        expr = peel(cx, expr)
        kind = expr.kind
        cast_kinds = tuple(
            getattr(cx.CursorKind, n)
            for n in (
                "CXX_STATIC_CAST_EXPR",
                "CSTYLE_CAST_EXPR",
                "CXX_FUNCTIONAL_CAST_EXPR",
            )
            if hasattr(cx.CursorKind, n)
        )
        if kind in cast_kinds:
            if self._type_matches(expr.type, want):
                return self._expr_keys(expr, depth + 1)
            return []
        if kind in (
            cx.CursorKind.DECL_REF_EXPR,
            cx.CursorKind.MEMBER_REF_EXPR,
            cx.CursorKind.CALL_EXPR,
            cx.CursorKind.ARRAY_SUBSCRIPT_EXPR,
        ):
            if self._type_matches(expr.type, want):
                return self._expr_keys(expr, depth + 1)
            return []
        out = []
        for child in expr.get_children():
            out.extend(self._typed_keys(child, want, depth + 1))
        return out

    def _type_matches(self, type_obj, want) -> bool:
        cx = self.cx
        canonical = type_obj.get_canonical()
        if canonical.kind in (
            cx.TypeKind.LVALUEREFERENCE,
            cx.TypeKind.RVALUEREFERENCE,
        ):
            canonical = canonical.get_pointee().get_canonical()
        if want == "float":
            return canonical.kind in (
                cx.TypeKind.FLOAT,
                cx.TypeKind.DOUBLE,
                cx.TypeKind.LONGDOUBLE,
            )
        if self._int_kinds is None:
            names = (
                "BOOL",
                "CHAR_U",
                "UCHAR",
                "CHAR16",
                "CHAR32",
                "USHORT",
                "UINT",
                "ULONG",
                "ULONGLONG",
                "UINT128",
                "CHAR_S",
                "SCHAR",
                "WCHAR",
                "SHORT",
                "INT",
                "LONG",
                "LONGLONG",
                "INT128",
                "ENUM",
            )
            self._int_kinds = frozenset(
                getattr(cx.TypeKind, n) for n in names if hasattr(cx.TypeKind, n)
            )
        return canonical.kind in self._int_kinds

    def _lvalue_key(self, expr, depth=0):
        """The storage key a store lands in: element stores taint the
        whole container, member stores the field."""
        cx = self.cx
        if expr is None or depth > 10:
            return None
        expr = peel(cx, expr)
        kind = expr.kind
        if kind == cx.CursorKind.DECL_REF_EXPR:
            decl = expr.referenced
            if decl is not None and decl.kind in (
                cx.CursorKind.VAR_DECL,
                cx.CursorKind.PARM_DECL,
                cx.CursorKind.FIELD_DECL,
            ):
                return decl.get_usr() or None
            return None
        if kind == cx.CursorKind.MEMBER_REF_EXPR:
            decl = expr.referenced
            if decl is not None and decl.kind == cx.CursorKind.FIELD_DECL:
                return decl.get_usr() or None
            inner = list(expr.get_children())
            return self._lvalue_key(inner[0], depth + 1) if inner else None
        if kind in (
            cx.CursorKind.ARRAY_SUBSCRIPT_EXPR,
            cx.CursorKind.UNARY_OPERATOR,
        ):
            children = list(expr.get_children())
            return self._lvalue_key(children[0], depth + 1) if children else None
        if kind == cx.CursorKind.CALL_EXPR:
            callee = expr.referenced
            name = callee.spelling if callee is not None else ""
            if name in INDEX_CALLS and name != "operator[]" or name in VALUE_HOPS:
                recv = self._member_receiver(expr)
                return self._lvalue_key(recv, depth + 1) if recv is not None else None
            if name == "operator[]":
                children = list(expr.get_children())
                if len(children) > 1:
                    return self._lvalue_key(children[1], depth + 1)
        return None

    def _mentions_finite(self, node, depth=0) -> bool:
        if depth > 24:
            return False
        ref = getattr(node, "referenced", None)
        if ref is not None and ref.spelling in FINITE_CALLS:
            return True
        if node.spelling in FINITE_CALLS:
            return True
        return any(self._mentions_finite(c, depth + 1) for c in node.get_children())

    def _taint_var_decl(self, node, facts):
        usr = node.get_usr()
        if not usr:
            return
        exprs = [c for c in node.get_children() if c.kind.is_expression()]
        if not exprs:
            return
        srcs = _dedup(self._expr_keys(exprs[-1]))
        if srcs:
            facts["flows"].append(
                {"dst": usr, "srcs": srcs, "off": node.location.offset}
            )

    def _taint_range_for(self, node, facts):
        cx = self.cx
        children = list(node.get_children())
        if not children:
            return
        var = next((c for c in children if c.kind == cx.CursorKind.VAR_DECL), None)
        if var is None:
            return
        usr = var.get_usr()
        if not usr:
            return
        srcs = []
        for child in children[:-1]:
            if child is var:
                continue
            srcs.extend(self._expr_keys(child))
        srcs = _dedup(s for s in srcs if s != usr)
        if srcs:
            facts["flows"].append(
                {"dst": usr, "srcs": srcs, "off": node.location.offset}
            )

    def _taint_binop(self, node, facts):
        cx = self.cx
        children = list(node.get_children())
        if len(children) != 2:
            return
        op = binop_spelling(node)
        if not op:
            return
        lhs, rhs = children
        if op in ("/", "%", "/=", "%="):
            self._sink(
                facts, "div", self._expr_keys(rhs), node, f"denominator of '{op}'"
            )
        if op == "=" or node.kind == cx.CursorKind.COMPOUND_ASSIGNMENT_OPERATOR:
            dst = self._lvalue_key(lhs)
            srcs = _dedup(self._expr_keys(rhs))
            if dst and srcs:
                facts["flows"].append(
                    {"dst": dst, "srcs": srcs, "off": node.location.offset}
                )
        if (
            node.kind == cx.CursorKind.COMPOUND_ASSIGNMENT_OPERATOR
            and op in ("+=", "-=", "*=")
            and float_class(cx, peel(cx, lhs).type) is not None
        ):
            # Integer reads cannot introduce NaN/Inf, so only float-typed
            # keys make an accumulation sink (int64 weights folding into
            # a double total are A12's business, not A13's).
            self._sink(
                facts,
                "accum",
                self._typed_keys(rhs, "float"),
                node,
                f"'{op}' accumulation",
            )

    def _taint_subscript(self, node, facts):
        children = list(node.get_children())
        if len(children) != 2:
            return
        self._sink(
            facts, "index", self._typed_keys(children[1], "int"), node, "subscript"
        )

    def _taint_guard(self, node, facts):
        """IF_STMT / ternary conditions (which is what a ZKA_CHECK expands
        to) and clamp/finite calls are the only guard forms; loop
        conditions are deliberately not guards, or a tainted loop bound
        would dominate itself (A14)."""
        cx = self.cx
        children = list(node.get_children())
        if not children:
            return
        if node.kind == cx.CursorKind.CONDITIONAL_OPERATOR:
            cands = children[:1]
        else:
            # Condition (+ C++17 init-statement/condition variable): the
            # leading expression/declaration children before the first
            # statement child, which is the then-branch.
            cands = []
            for child in children:
                if child.kind.is_expression() or child.kind in (
                    cx.CursorKind.DECL_STMT,
                    cx.CursorKind.VAR_DECL,
                ):
                    cands.append(child)
                else:
                    break
        keys = []
        finite = False
        for cand in cands:
            keys.extend(self._expr_keys(cand))
            finite = finite or self._mentions_finite(cand)
        keys = _dedup(keys)
        if not keys:
            return
        kinds = ["check", "finite"] if finite else ["check"]
        facts["guards"].append(
            {"kinds": kinds, "keys": keys, "off": node.location.offset}
        )

    def _taint_loop_bound(self, node, facts):
        cx = self.cx
        children = list(node.get_children())
        if not children:
            return
        if node.kind == cx.CursorKind.WHILE_STMT:
            cands = children[:1]
        elif node.kind == cx.CursorKind.DO_STMT:
            cands = children[-1:]
        else:
            cands = children[:-1]
        for cand in cands:
            cond = peel(cx, cand)
            if cond.kind != cx.CursorKind.BINARY_OPERATOR:
                continue
            if binop_spelling(cond) not in ("<", "<=", ">", ">=", "!="):
                continue
            self._sink(facts, "loop_bound", self._expr_keys(cond), node, "loop bound")
            return

    # -- declarations, assignment, returns --------------------------------

    def _on_var_decl(self, node, facts):
        """Container constructions that allocate: sized/filled constructors
        and copy-constructions. Default construction, move construction and
        materializing a returned value are free."""
        cx = self.cx
        if not _contains(node.type, CONTAINER_MARKERS):
            return
        exprs = [c for c in node.get_children() if c.kind.is_expression()]
        if not exprs:
            return
        init = peel(cx, exprs[-1])
        if init.kind == cx.CursorKind.CALL_EXPR:
            callee = init.referenced
            if callee is not None and callee.kind == cx.CursorKind.CONSTRUCTOR:
                is_move = getattr(callee, "is_move_constructor", lambda: False)()
                is_copy = getattr(callee, "is_copy_constructor", lambda: False)()
                if is_move:
                    return
                if is_copy:
                    facts["allocs"].append(self._alloc(node, "copy-construct"))
                    return
                args = list(init.get_arguments())
                if args:
                    facts["allocs"].append(self._alloc(node, "sized-construct"))
                    keys = []
                    for arg in args:
                        keys.extend(self._typed_keys(arg, "int"))
                    self._sink(facts, "alloc", keys, node, "sized-construct")
                return
            if callee is not None and callee.spelling == "move":
                return
            # Plain call initializer: the result is materialized in place.
            return
        if init.kind in (cx.CursorKind.DECL_REF_EXPR, cx.CursorKind.MEMBER_REF_EXPR):
            if _canonical(init.type) == _canonical(node.type):
                facts["allocs"].append(self._alloc(node, "copy-construct"))
            return
        if init.kind == cx.CursorKind.INIT_LIST_EXPR:
            if list(init.get_children()):
                facts["allocs"].append(self._alloc(node, "list-construct"))

    def _on_assign_call(self, node, facts):
        """operator= on containers (copy-assign allocates) and on span
        members (rule A8's view-retention footgun)."""
        cx = self.cx
        args = list(node.get_arguments())
        if len(args) != 2:
            children = list(node.get_children())
            if len(children) < 2:
                return
            args = children[-2:]
        lhs, rhs = peel(cx, args[0]), peel(cx, args[1])
        dst = self._lvalue_key(lhs)
        srcs = _dedup(self._expr_keys(rhs))
        if dst and srcs:
            facts["flows"].append(
                {"dst": dst, "srcs": srcs, "off": node.location.offset}
            )
        if _contains(lhs.type, CONTAINER_MARKERS):
            if rhs.kind == cx.CursorKind.CALL_EXPR:
                return  # move-assign / assigning a produced value
            if rhs.kind in (cx.CursorKind.DECL_REF_EXPR, cx.CursorKind.MEMBER_REF_EXPR):
                if _canonical(rhs.type) == _canonical(lhs.type):
                    facts["allocs"].append(
                        self._alloc(node, "copy-assign", recv=self._obj_key(lhs))
                    )
            return
        if "std::span<" in _canonical(lhs.type):
            if lhs.kind == cx.CursorKind.MEMBER_REF_EXPR:
                src = self._view_source(rhs)
                if src is not None and src.kind in (
                    cx.CursorKind.PARM_DECL,
                    cx.CursorKind.VAR_DECL,
                ):
                    facts["view_stores"].append(
                        {"line": node.location.line, "what": src.spelling}
                    )

    def _on_view_append(self, node, facts):
        """push_back/emplace_back of a span parameter into a member
        container of spans: the same retention footgun as assigning a span
        member (rule A8), one row at a time."""
        cx = self.cx
        for arg in node.get_arguments():
            src = self._view_source(arg)
            if (
                src is not None
                and src.kind == cx.CursorKind.PARM_DECL
                and "std::span<" in _canonical(src.type)
            ):
                facts["view_stores"].append(
                    {"line": node.location.line, "what": src.spelling}
                )

    def _on_range_for(self, node, facts):
        children = list(node.get_children())
        for child in children[:-1]:
            if self._mentions_unordered(child):
                facts["unordered_iters"].append({"line": node.location.line})
                return

    def _mentions_unordered(self, node) -> bool:
        if any(m in _canonical(node.type) for m in UNORDERED_MARKERS):
            return True
        return any(self._mentions_unordered(c) for c in node.get_children())

    def _on_return(self, node, fn, facts):
        cx = self.cx
        children = list(node.get_children())
        if children:
            keys = _dedup(self._expr_keys(children[0]))
            if keys:
                facts["taint_returns"].append(
                    {"keys": keys, "off": node.location.offset}
                )
        result = fn.result_type.get_canonical()
        is_view = "std::span<" in result.spelling or result.kind == cx.TypeKind.POINTER
        if not is_view:
            return
        if not children:
            return
        src = self._view_source(children[0])
        if src is None or src.kind != cx.CursorKind.VAR_DECL:
            return
        if not self._declared_inside(src, fn):
            return
        storage = getattr(src, "storage_class", None)
        if storage is not None and storage == cx.StorageClass.STATIC:
            return
        if _contains(src.type, OWNER_MARKERS):
            facts["ret_views"].append(
                {"line": node.location.line, "what": src.spelling}
            )

    _VIEW_HOPS = frozenset(
        {"data", "raw", "subspan", "first", "last", "c_str", "begin", "front", "back", "get", "span"}
    )

    def _view_source(self, expr, depth=0):
        """The declaration whose storage ultimately backs a span/pointer
        expression, hopping through data()/raw()/subspan()/span(...) chains."""
        cx = self.cx
        if depth > 10:
            return None
        expr = peel(cx, expr)
        if expr.kind == cx.CursorKind.DECL_REF_EXPR:
            return expr.referenced
        if expr.kind == cx.CursorKind.CALL_EXPR:
            callee = expr.referenced
            name = callee.spelling if callee is not None else ""
            if callee is not None and callee.kind == cx.CursorKind.CONSTRUCTOR:
                args = list(expr.get_arguments()) or list(expr.get_children())
                return self._view_source(args[0], depth + 1) if args else None
            if name in self._VIEW_HOPS:
                children = list(expr.get_children())
                if children:
                    head = children[0]
                    if head.kind == cx.CursorKind.MEMBER_REF_EXPR:
                        inner = list(head.get_children())
                        if inner:
                            return self._view_source(inner[0], depth + 1)
                        return None  # implicit this: member storage
                    return self._view_source(head, depth + 1)
            return None
        if expr.kind in (
            cx.CursorKind.UNARY_OPERATOR,
            cx.CursorKind.ARRAY_SUBSCRIPT_EXPR,
        ):
            children = list(expr.get_children())
            return self._view_source(children[0], depth + 1) if children else None
        children = list(expr.get_children())
        if len(children) == 1:
            return self._view_source(children[0], depth + 1)
        return None
