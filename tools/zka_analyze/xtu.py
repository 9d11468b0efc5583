"""Phase 2 of the cross-TU analyzer: call-graph dataflow rules A6-A15.

Consumes the merged per-function summaries produced by summary.py (plain
dicts — this module never touches libclang, so every rule here is
unit-testable on any machine) and reasons transitively over the
USR-keyed call graph:

  A6  heap allocation reachable from a parallel_for body or a configured
      hot root (the round loop), through any depth of calls
  A7  a shared (non-split) Rng drawn inside a parallel region
  A8  span/raw-pointer escape beyond its backing buffer's lifetime
  A9  stream_update/finish_stream reachable without a dominating
      begin_stream; hash-ordered accumulation inside finish_stream
  A10 unordered-container iteration feeding an aggregate/craft entry
      point through callees (A5 covers the direct case)

plus the taint rules, driven by trust.json (sources, sanitizers, sink
scope) over the extractor's flow/sink/guard facts:

  A11 tainted value sizes an allocation (resize/reserve/sized-construct)
      with no dominating range check
  A12 tainted denominator with no nonzero/positive guard
  A13 tainted float folded into an accumulation with no finite guard on
      the flow — one crafted NaN owns the whole mean
  A14 tainted index/offset or loop bound with no bounds check
  A15 taint laundering: a sanitizer that forwards a tainted parameter it
      never actually checked

Roots and sanctioned call-boundaries for A6/A7 live in hotpaths.json;
boundaries name functions whose internals are accepted allocation zones
until ROADMAP item 3's arena allocator lands.
"""

from __future__ import annotations

from engine import Finding
from summary import ENTRY_NAMES, SANITIZE_PREFIXES

XTU_RULE_IDS = ("A6", "A7", "A8", "A9", "A10")

TAINT_RULE_IDS = ("A11", "A12", "A13", "A14", "A15")

XTU_RULE_SUMMARIES = {
    "A6": "hot-path-alloc: heap allocation reachable from a parallel region or hot loop",
    "A7": "shared-rng-draw: non-split Rng drawn inside a parallel region",
    "A8": "span-escape: view outlives the buffer that backs it",
    "A9": "stream-protocol: stream call without dominating begin_stream / unordered fold",
    "A10": "transitive-unordered: hash-ordered iteration feeding aggregation",
    "A11": "tainted-alloc-size: untrusted value sizes an allocation unchecked",
    "A12": "tainted-denominator: untrusted divisor without a nonzero guard",
    "A13": "tainted-accumulation: untrusted float folded in without a finite guard",
    "A14": "tainted-index: untrusted index/offset/loop bound without a bounds check",
    "A15": "taint-laundering: sanitizer forwards a parameter it never checks",
}

# Rng's own methods legitimately mutate their own state; drawing *through*
# them is judged at the caller's receiver, not here.
_RNG_SELF_PREFIX = "zka::util::Rng::"

_MAX_DEPTH = 32


def live_allocs(facts):
    """Allocation facts minus container growth dominated by an earlier
    reserve() on the same object — the sanctioned hoist-and-reserve
    pattern."""
    reserved = facts.get("reserves", ())
    out = []
    for alloc in facts.get("allocs", ()):
        recv = alloc.get("recv")
        if recv is not None and any(
            r["recv"] == recv and r["off"] < alloc["off"] for r in reserved if r["recv"]
        ):
            continue
        out.append(alloc)
    return out


def _in_loop(facts, off) -> bool:
    return any(l["start"] <= off <= l["end"] for l in facts.get("loops", ()))


class _Index:
    def __init__(self, summaries, config):
        self.by_usr = summaries
        self.by_name: dict = {}
        for usr, s in summaries.items():
            self.by_name.setdefault(s["name"], []).append(usr)
        config = config or {}
        self.boundaries = {}
        for b in config.get("boundaries", ()):
            for usr in self.by_name.get(b["function"], ()):
                self.boundaries[usr] = b.get("note", "")
        self.hot_roots = config.get("hot_roots", ())

    def resolve(self, name):
        return self.by_name.get(name, ())


def _walk(index, facts, label, boundaries=True):
    """Yield (summary, chain) for every in-index function reachable from
    `facts` through call edges, breadth-first, visiting each function
    once. `label` seeds the chain description."""
    seen = set()
    queue = [(c["usr"], f"{label} -> {c['name']}") for c in facts.get("calls", ())]
    depth = 0
    while queue and depth < _MAX_DEPTH:
        depth += 1
        next_queue = []
        for usr, chain in queue:
            if usr in seen:
                continue
            seen.add(usr)
            if boundaries and usr in index.boundaries:
                continue
            summary = index.by_usr.get(usr)
            if summary is None:
                continue
            yield summary, chain
            for c in summary["facts"].get("calls", ()):
                if c["usr"] not in seen:
                    next_queue.append((c["usr"], f"{chain} -> {c['name']}"))
        queue = next_queue


def _parallel_roots(index):
    """(label, facts, path, fn_name) for every parallel execution root:
    parallel_for bodies, plus lambdas handed to parallel wrappers
    (functions that run a callable parameter inside a parallel region)."""
    wrappers = {
        usr
        for usr, s in index.by_usr.items()
        if s["facts"].get("parallel_params")
    }
    roots = []
    for s in index.by_usr.values():
        for pb in s["facts"].get("parallel_bodies", ()):
            roots.append(
                (
                    f"parallel_for body in {s['name']}",
                    pb["facts"],
                    s["path"],
                    s["name"],
                )
            )
        for call in s["facts"].get("calls", ()):
            if call["usr"] in wrappers and call.get("lambdas"):
                for lam_facts in call["lambdas"]:
                    roots.append(
                        (
                            f"callback to parallel wrapper {call['name']} "
                            f"from {s['name']}",
                            lam_facts,
                            s["path"],
                            s["name"],
                        )
                    )
    return roots


# ---------------------------------------------------------------------------
# A6: heap allocation on parallel / hot paths


def _check_a6(index, findings):
    reported = set()

    def report(summary_path, fn_name, alloc, chain):
        key = (summary_path, alloc["line"], alloc["what"])
        if key in reported:
            return
        reported.add(key)
        findings.append(
            Finding(
                path=summary_path,
                line=alloc["line"],
                rule="A6",
                message=(
                    f"heap allocation ({alloc['what']}) on a hot path: {chain}; "
                    f"hoist or reserve the buffer outside the loop (arena "
                    f"allocator: ROADMAP item 3)"
                ),
                function=fn_name,
            )
        )

    for label, facts, path, fn_name in _parallel_roots(index):
        for alloc in live_allocs(facts):
            report(path, fn_name, alloc, label)
        for summary, chain in _walk(index, facts, label):
            for alloc in live_allocs(summary["facts"]):
                report(summary["path"], summary["name"], alloc, chain)

    for root in index.hot_roots:
        for usr in index.resolve(root["function"]):
            summary = index.by_usr.get(usr)
            if summary is None:
                continue
            facts = summary["facts"]
            label = f"hot loop {summary['name']}"
            # One-time setup allocations before/after the loop are the
            # sanctioned hoist target; only per-iteration ones are hot.
            for alloc in live_allocs(facts):
                if _in_loop(facts, alloc["off"]):
                    report(summary["path"], summary["name"], alloc, label)
            if root.get("transitive"):
                loop_facts = dict(facts)
                loop_facts["calls"] = [
                    c for c in facts.get("calls", ()) if _in_loop(facts, c["off"])
                ]
                for reached, chain in _walk(index, loop_facts, label):
                    for alloc in live_allocs(reached["facts"]):
                        report(reached["path"], reached["name"], alloc, chain)


# ---------------------------------------------------------------------------
# A7: shared Rng draws inside parallel regions


def _check_a7(index, findings):
    reported = set()

    def report(path, fn_name, draw, chain):
        key = (path, draw["line"])
        if key in reported:
            return
        reported.add(key)
        findings.append(
            Finding(
                path=path,
                line=draw["line"],
                rule="A7",
                message=(
                    f"Rng '{draw['obj']}' ({draw['kind']}) drawn inside a "
                    f"parallel region without Rng::split ({chain}); draw "
                    f"order becomes thread-count-dependent — split a "
                    f"per-task generator instead"
                ),
                function=fn_name,
            )
        )

    for label, facts, path, fn_name in _parallel_roots(index):
        for draw in facts.get("rng_draws", ()):
            report(path, fn_name, draw, label)
        for summary, chain in _walk(index, facts, label):
            if summary["name"].startswith(_RNG_SELF_PREFIX):
                continue
            for draw in summary["facts"].get("rng_draws", ()):
                report(summary["path"], summary["name"], draw, chain)


# ---------------------------------------------------------------------------
# A8: views escaping their backing buffer


def _check_a8(index, findings):
    for summary in index.by_usr.values():
        facts = summary["facts"]
        for rv in facts.get("ret_views", ()):
            findings.append(
                Finding(
                    path=summary["path"],
                    line=rv["line"],
                    rule="A8",
                    message=(
                        f"returns a span/pointer into function-local buffer "
                        f"'{rv['what']}', which dies with the call — return "
                        f"an owning container or take caller storage"
                    ),
                    function=summary["name"],
                )
            )
        for vs in facts.get("view_stores", ()):
            findings.append(
                Finding(
                    path=summary["path"],
                    line=vs["line"],
                    rule="A8",
                    message=(
                        f"stores a view of caller-owned '{vs['what']}' into "
                        f"member state; the Aggregator API requires views to "
                        f"be dead once the call returns (only the base "
                        f"buffering default holds them, until finish_stream) "
                        f"— copy instead"
                    ),
                    function=summary["name"],
                )
            )


# ---------------------------------------------------------------------------
# A9: streaming-protocol misuse


def _first_begin(facts):
    offs = [s["off"] for s in facts.get("stream_calls", ()) if s["kind"] == "begin_stream"]
    return min(offs) if offs else None


def _check_a9(index, findings):
    # A function "needs a begin" when, in source order, it issues (or calls
    # something that issues) stream_update/finish_stream before any
    # begin_stream of its own. Propagate up the call graph to a fixpoint,
    # then report only at functions nobody in the index calls — interior
    # functions are the responsibility of their (guarded or flagged)
    # callers. Implementations of the hooks themselves don't *call* the
    # hooks, so they never enter the set.
    needs = {}
    for usr, s in index.by_usr.items():
        first = _first_begin(s["facts"])
        for sc in s["facts"].get("stream_calls", ()):
            if sc["kind"] == "begin_stream":
                continue
            if first is None or sc["off"] < first:
                needs[usr] = (sc["line"], f"{sc['kind']} in {s['name']}")
                break

    changed = True
    while changed:
        changed = False
        for usr, s in index.by_usr.items():
            if usr in needs:
                continue
            first = _first_begin(s["facts"])
            for call in s["facts"].get("calls", ()):
                if call["usr"] not in needs or call["usr"] == usr:
                    continue
                if first is None or call["off"] < first:
                    _, why = needs[call["usr"]]
                    needs[usr] = (call["line"], f"call to {call['name']} ({why})")
                    changed = True
                    break

    called = set()
    for s in index.by_usr.values():
        for call in s["facts"].get("calls", ()):
            called.add(call["usr"])
    for usr, (line, why) in sorted(needs.items()):
        if usr in called:
            continue
        s = index.by_usr[usr]
        if s["entry"] in ("stream_update", "finish_stream", "do_stream_update"):
            # The hook implementation, not a protocol client: a forwarding
            # decorator's hook runs inside its caller's open stream.
            continue
        findings.append(
            Finding(
                path=s["path"],
                line=line,
                rule="A9",
                message=(
                    f"{why} is reachable with no dominating begin_stream on "
                    f"this path; the streaming contract is begin_stream -> "
                    f"stream_update* -> finish_stream"
                ),
                function=s["name"],
            )
        )

    # Order-dependence: a finish_stream implementation folding through
    # hash-ordered iteration cannot be bitwise-equal to the batch path.
    for usr, s in index.by_usr.items():
        if s["entry"] != "finish_stream":
            continue
        for reached, chain in _walk(index, s["facts"], s["name"], boundaries=False):
            for it in reached["facts"].get("unordered_iters", ()):
                findings.append(
                    Finding(
                        path=reached["path"],
                        line=it["line"],
                        rule="A9",
                        message=(
                            f"finish_stream folds through hash-ordered "
                            f"iteration ({chain}); streaming must accumulate "
                            f"in submission order to stay bitwise-equal to "
                            f"aggregate()"
                        ),
                        function=reached["name"],
                    )
                )


# ---------------------------------------------------------------------------
# A10: transitive unordered iteration feeding aggregation


def _check_a10(index, findings):
    reported = set()
    for usr, s in index.by_usr.items():
        if s["entry"] not in ("aggregate", "do_aggregate", "craft"):
            continue
        for reached, chain in _walk(index, s["facts"], s["name"], boundaries=False):
            for it in reached["facts"].get("unordered_iters", ()):
                key = (reached["path"], it["line"])
                if key in reported:
                    continue
                reported.add(key)
                findings.append(
                    Finding(
                        path=reached["path"],
                        line=it["line"],
                        rule="A10",
                        message=(
                            f"unordered-container iteration feeds "
                            f"{s['name']} ({chain}); hash order varies "
                            f"across platforms and poisons the aggregate — "
                            f"iterate sorted keys or an ordered container"
                        ),
                        function=reached["name"],
                    )
                )


# ---------------------------------------------------------------------------
# A11-A15: taint propagation from trust.json sources


# Defaults when no trust config is given (fixture mode): every parameter
# of the public entry points is attacker-controlled, craft/reported_weight
# results are attacker-controlled, sinks everywhere are in scope.
_PARAM_SOURCE_ENTRIES = ("aggregate", "begin_stream", "stream_update", "stream_replay")
_RET_SOURCE_NAMES = ("craft", "reported_weight")


def _last(name: str) -> str:
    return name.rsplit("::", 1)[-1]


class _Trust:
    """Parsed trust.json: taint sources, sanitizers, and sink scope."""

    def __init__(self, trust):
        self.param_sources: dict = {}  # entry -> None (all params) | set(names)
        self.ret_sources: set = set()
        self.sanitizers: set = set()
        if trust:
            for src in trust.get("sources", ()):
                entry = src.get("entry")
                if not entry:
                    continue
                if src.get("what") == "return":
                    self.ret_sources.add(entry)
                else:
                    names = src.get("params")
                    self.param_sources[entry] = set(names) if names else None
            for sn in trust.get("sanitizers", ()):
                if sn.get("function"):
                    self.sanitizers.add(sn["function"])
            scope = trust.get("sink_scope") or {}
            self.include = tuple(scope.get("include", ()))
            self.exclude = tuple(scope.get("exclude", ()))
        else:
            self.param_sources = {e: None for e in _PARAM_SOURCE_ENTRIES}
            self.ret_sources = set(_RET_SOURCE_NAMES)
            self.include = ()
            self.exclude = ()

    def is_sanitizer(self, name: str) -> bool:
        return name in self.sanitizers or _last(name).startswith(SANITIZE_PREFIXES)

    def in_scope(self, path: str) -> bool:
        if any(path.startswith(e) for e in self.exclude):
            return False
        if not self.include:
            return True
        return any(path.startswith(i) for i in self.include)


def _kill_offsets(facts) -> dict:
    """key -> earliest offset at which a sanitizer call launders it; the
    key is clean at any use after that offset in the same function."""
    kills: dict = {}
    for sc in facts.get("sanitize_calls", ()):
        for key in sc.get("keys", ()):
            if key not in kills or sc["off"] < kills[key]:
                kills[key] = sc["off"]
    return kills


def _killed(kills, key, off) -> bool:
    """Strictly after the sanitize call: the arguments of the call itself
    are still raw (the extractor records the kill and the call edge at the
    same offset, and the sanitizer must receive the dirty values — that is
    both its job and how taint reaches its params for A15)."""
    return key in kills and kills[key] < off


def _components(facts) -> dict:
    """key -> set of locally flow-related keys (undirected closure over
    this function's flows). A guard on any related key credits the whole
    component: checking the element checks the container it came from."""
    adj: dict = {}
    for fl in facts.get("flows", ()):
        for src in fl["srcs"]:
            adj.setdefault(fl["dst"], set()).add(src)
            adj.setdefault(src, set()).add(fl["dst"])
    comp: dict = {}
    for start in adj:
        if start in comp:
            continue
        members: set = set()
        stack = [start]
        while stack:
            cur = stack.pop()
            if cur in members:
                continue
            members.add(cur)
            stack.extend(adj.get(cur, ()))
        for m in members:
            comp[m] = members
    return comp


def _related(comp, keys) -> set:
    out = set()
    for key in keys:
        out.add(key)
        out.update(comp.get(key, ()))
    return out


class _TaintState:
    """Global set-once taint map over decl USRs and ret:<name> keys,
    computed to a fixpoint over flows, call arguments and returns.
    Sanitizers block propagation: their return keys never taint, and
    keys they were handed are clean downstream of the call. Guards do
    NOT block propagation — a bounds check in a caller does not bound
    what a callee does with its own copy; sinks must be guarded in the
    function that owns them (or behind a sanitizer)."""

    def __init__(self, index, trust):
        self.index = index
        self.trust = trust
        self.tainted: dict = {}  # key -> origin label
        self.vret: dict = {}  # entry-hook unqualified name -> origin
        self.kills = {
            usr: _kill_offsets(s["facts"]) for usr, s in index.by_usr.items()
        }
        self._seed()
        self._propagate()

    def origin(self, key):
        o = self.tainted.get(key)
        if o is not None:
            return o
        if key.startswith("ret:"):
            name = key[4:]
            if self.trust.is_sanitizer(name):
                return None
            last = _last(name)
            if last in self.trust.ret_sources:
                return f"return of {name}"
            # Calls through a pure-virtual entry hook: any tainted
            # implementation return taints the dispatch site.
            return self.vret.get(last)
        return None

    def _seed(self):
        for s in self.index.by_usr.values():
            entry = s["entry"]
            if entry not in self.trust.param_sources:
                continue
            selected = self.trust.param_sources[entry]
            for p in s["facts"].get("params", ()):
                if selected is None or p["name"] in selected:
                    self.tainted[p["usr"]] = f"{p['name']}, param of {s['name']}"

    def _flow_origin(self, keys, kills, off):
        for key in keys:
            if _killed(kills, key, off):
                continue
            o = self.origin(key)
            if o is not None:
                return o
        return None

    def _resolve(self, call):
        """Callee summaries for a call edge: direct by USR, else — for
        the Aggregator/Attack virtual hooks, whose base declarations have
        no body and hence no summary — every implementation override."""
        s = self.index.by_usr.get(call["usr"])
        if s is not None:
            return (s,)
        last = _last(call["name"])
        if last not in ENTRY_NAMES:
            return ()
        return tuple(
            cs for cs in self.index.by_usr.values() if cs["entry"] == last
        )

    def _propagate(self):
        changed = True
        rounds = 0
        while changed and rounds < 64:
            changed = False
            rounds += 1
            for usr, s in self.index.by_usr.items():
                facts = s["facts"]
                kills = self.kills[usr]
                for fl in facts.get("flows", ()):
                    if fl["dst"] in self.tainted:
                        continue
                    o = self._flow_origin(fl["srcs"], kills, fl["off"])
                    if o is not None:
                        self.tainted[fl["dst"]] = o
                        changed = True
                for call in facts.get("calls", ()):
                    args = call.get("args")
                    if not args:
                        continue
                    for callee in self._resolve(call):
                        params = callee["facts"].get("params", ())
                        for i, keys in enumerate(args):
                            if i >= len(params):
                                break
                            pusr = params[i]["usr"]
                            if pusr in self.tainted:
                                continue
                            o = self._flow_origin(keys, kills, call["off"])
                            if o is not None:
                                self.tainted[pusr] = o
                                changed = True
                if self.trust.is_sanitizer(s["name"]):
                    continue  # a sanitizer's return is trusted by contract
                rkey = "ret:" + s["name"]
                for tr in facts.get("taint_returns", ()):
                    o = self._flow_origin(tr["keys"], kills, tr["off"])
                    if o is None:
                        continue
                    if rkey not in self.tainted:
                        self.tainted[rkey] = o
                        changed = True
                    if s["entry"] and _last(s["name"]) not in self.vret:
                        self.vret[_last(s["name"])] = o
                        changed = True
                    break


def _guarded(facts, comp, key, off, need) -> bool:
    rel = _related(comp, (key,))
    for g in facts.get("guards", ()):
        if need not in g["kinds"] or g["off"] >= off:
            continue
        if rel & _related(comp, g["keys"]):
            return True
    return False


_SINK_RULES = {
    "alloc": (
        "A11",
        "check",
        "ZKA_CHECK a bound on the size before allocating",
    ),
    "div": (
        "A12",
        "check",
        "guard the denominator (nonzero/positive) before dividing",
    ),
    "accum": (
        "A13",
        "finite",
        "finite-check the flow first (defense/sanitize.h ingress or std::isfinite)",
    ),
    "index": (
        "A14",
        "check",
        "ZKA_CHECK the index against the valid range first",
    ),
    "loop_bound": (
        "A14",
        "check",
        "ZKA_CHECK a bound on the trip count first",
    ),
}


def _check_taint_sinks(index, taint, trust, findings, only):
    for usr, s in index.by_usr.items():
        if not trust.in_scope(s["path"]):
            continue
        facts = s["facts"]
        comp = _components(facts)
        kills = taint.kills.get(usr, {})
        for sink in facts.get("sinks", ()):
            rule, need, fix = _SINK_RULES[sink["kind"]]
            if only and rule not in only:
                continue
            for key in sink["keys"]:
                if _killed(kills, key, sink["off"]):
                    continue
                origin = taint.origin(key)
                if origin is None:
                    continue
                if _guarded(facts, comp, key, sink["off"], need):
                    continue
                findings.append(
                    Finding(
                        path=s["path"],
                        line=sink["line"],
                        rule=rule,
                        message=(
                            f"untrusted value ({origin}) reaches "
                            f"{sink['what']} with no dominating "
                            f"{'finite' if need == 'finite' else 'range'} "
                            f"guard; {fix}"
                        ),
                        function=s["name"],
                    )
                )
                break  # one finding per sink site


def _check_a15(index, taint, trust, findings):
    """Taint laundering: a sanitizer that forwards (via a call, a nested
    sanitizer hand-off, or its return value) a tainted parameter whose
    flow component it never guarded or re-sanitized. Callers trust the
    whole signature once the sanitizer returns, so a skipped parameter
    is laundered, not cleaned."""
    for usr, s in index.by_usr.items():
        if not trust.in_scope(s["path"]):
            continue
        if not trust.is_sanitizer(s["name"]):
            continue
        facts = s["facts"]
        comp = _components(facts)
        forwarded: set = set()
        for call in facts.get("calls", ()):
            for keys in call.get("args", ()):
                forwarded.update(keys)
        for tr in facts.get("taint_returns", ()):
            forwarded.update(tr["keys"])
        for p in facts.get("params", ()):
            if taint.origin(p["usr"]) is None:
                continue
            rel = _related(comp, (p["usr"],))
            if not rel & forwarded:
                continue
            credited = False
            for g in facts.get("guards", ()):
                if rel & _related(comp, g["keys"]):
                    credited = True
                    break
            if not credited:
                for sc in facts.get("sanitize_calls", ()):
                    if rel & _related(comp, sc.get("keys", ())):
                        credited = True
                        break
            if not credited:
                findings.append(
                    Finding(
                        path=s["path"],
                        line=s["line"],
                        rule="A15",
                        message=(
                            f"sanitizer {s['name']} forwards tainted "
                            f"parameter '{p['name']}' without checking it; "
                            f"callers trust every parameter once a "
                            f"sanitizer returns — check it or rename the "
                            f"function"
                        ),
                        function=s["name"],
                    )
                )


# ---------------------------------------------------------------------------


_CHECKS = {
    "A6": _check_a6,
    "A7": _check_a7,
    "A8": _check_a8,
    "A9": _check_a9,
    "A10": _check_a10,
}


def run_xtu_rules(summaries, config=None, only=None, trust=None):
    """All A6-A15 findings over the merged summary index. `config` is the
    parsed hotpaths.json ({"hot_roots": [...], "boundaries": [...]});
    `trust` is the parsed trust.json (None selects the built-in defaults,
    which is what the fixture driver runs under); `only`, when set,
    restricts to that subset of rule ids."""
    index = _Index(summaries, config)
    findings: list = []
    for rule_id, check in _CHECKS.items():
        if only and rule_id not in only:
            continue
        check(index, findings)
    if not only or any(r in only for r in TAINT_RULE_IDS):
        trust_cfg = _Trust(trust)
        taint = _TaintState(index, trust_cfg)
        _check_taint_sinks(index, taint, trust_cfg, findings, only)
        if not only or "A15" in only:
            _check_a15(index, taint, trust_cfg, findings)
    return findings
