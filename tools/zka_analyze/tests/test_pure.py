#!/usr/bin/env python3
"""Clang-free tests for the zka_analyze two-phase analyzer.

Everything here runs without libclang, so -- unlike the fixture suite --
this test NEVER skips. It covers the parts of the analyzer that must
behave correctly even on machines where the AST phase cannot run:

  * CLI environment handling: missing / malformed / empty compilation
    databases exit 2 with a diagnostic, and a valid database with no
    libclang exits 77 (the ctest SKIP_RETURN_CODE) -- in that order, so
    database problems are reported even where clang is absent.
  * The shrink-only baseline contract (stale entries, headroom).
  * Inline-escape filtering and dead-escape detection.
  * The per-TU content-hash cache: hit/miss accounting, dependency and
    salt invalidation, corrupt-entry recovery, and a measured re-run
    speedup with a simulated parse cost.
  * The phase-2 dataflow rules A6-A10 over synthetic summaries.
  * The A11-A15 taint rules: propagation over >=2 call hops,
    sanitizer laundering, guard-kind/order credit, and trust.json
    source/scope filtering.
  * tools/analyze_diff.py growth detection.

Exit codes: 0 all pass, 1 any failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
PKG = os.path.dirname(HERE)
REPO = os.path.dirname(os.path.dirname(PKG))
sys.path.insert(0, PKG)

import engine
import summary
import xtu
from cache import TuCache

CLI = os.path.join(PKG, "zka_analyze.py")
ANALYZE_DIFF = os.path.join(REPO, "tools", "analyze_diff.py")

# Forces clang_loader to find nothing, making exit codes deterministic
# on machines that do have libclang.
NO_CLANG_ENV = dict(os.environ, ZKA_LIBCLANG="/nonexistent")


def run_cli(*args, env=NO_CLANG_ENV):
    return subprocess.run(
        [sys.executable, CLI, *args], capture_output=True, text=True, env=env
    )


# ---------------------------------------------------------------------------
# Synthetic-summary helpers for the phase-2 tests


def mk_summary(name, path="src/x/y.cpp", entry=None, **facts_over):
    facts = summary.new_facts()
    for key, value in facts_over.items():
        facts[key] = value
    return {
        "usr": f"c:@{name}",
        "name": name,
        "path": path,
        "line": 1,
        "entry": entry,
        "facts": facts,
    }


def index_of(*summaries):
    return {s["usr"]: s for s in summaries}


def mk_call(name, line=2, off=20, lambdas=None, args=None):
    entry = {"usr": f"c:@{name}", "name": name, "line": line, "off": off}
    if lambdas is not None:
        entry["lambdas"] = lambdas
    if args is not None:
        entry["args"] = args
    return entry


def mk_alloc(line=10, off=100, what="push_back()", recv=None):
    return {"line": line, "off": off, "what": what, "recv": recv}


def mk_sink(kind, keys, line=10, off=100, what="sink"):
    return {"kind": kind, "keys": keys, "line": line, "off": off, "what": what}


def findings_for(summaries, config=None, only=None, trust=None):
    return xtu.run_xtu_rules(summaries, config, only=only, trust=trust)


# ---------------------------------------------------------------------------
# CLI environment tests


def test_cli_missing_compile_commands():
    r = run_cli("--compile-commands", "/nonexistent/compile_commands.json")
    assert r.returncode == engine.EXIT_ENV, r
    assert "not found" in r.stderr, r.stderr


def test_cli_malformed_compile_commands():
    with tempfile.TemporaryDirectory() as tmp:
        cc = os.path.join(tmp, "compile_commands.json")
        with open(cc, "w", encoding="utf-8") as fh:
            fh.write("{this is not json")
        r = run_cli("--compile-commands", cc)
    assert r.returncode == engine.EXIT_ENV, r
    assert "bad compilation database" in r.stderr, r.stderr


def test_cli_mistyped_compile_commands():
    with tempfile.TemporaryDirectory() as tmp:
        cc = os.path.join(tmp, "compile_commands.json")
        with open(cc, "w", encoding="utf-8") as fh:
            json.dump(["not", "objects"], fh)
        r = run_cli("--compile-commands", cc)
    assert r.returncode == engine.EXIT_ENV, r
    assert "bad compilation database" in r.stderr, r.stderr


def test_cli_no_analyzable_tus():
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "outside.cpp")
        open(src, "w", encoding="utf-8").close()
        cc = os.path.join(tmp, "compile_commands.json")
        with open(cc, "w", encoding="utf-8") as fh:
            json.dump(
                [{"directory": tmp, "file": src, "command": f"c++ -c {src}"}], fh
            )
        r = run_cli("--compile-commands", cc)
    assert r.returncode == engine.EXIT_ENV, r
    assert "no analyzable translation units" in r.stderr, r.stderr


def test_cli_skips_without_libclang():
    # A perfectly good database must still reach the libclang probe and
    # exit 77 (ctest SKIP_RETURN_CODE), never 2.
    tu = os.path.join(REPO, "src", "fl", "simulation.cpp")
    assert os.path.exists(tu), tu
    with tempfile.TemporaryDirectory() as tmp:
        cc = os.path.join(tmp, "compile_commands.json")
        with open(cc, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    {
                        "directory": REPO,
                        "file": tu,
                        "command": f"c++ -std=c++20 -c {tu}",
                    }
                ],
                fh,
            )
        r = run_cli("--compile-commands", cc)
    assert r.returncode == engine.EXIT_SKIP, r
    assert "libclang unavailable" in r.stderr, r.stderr


# ---------------------------------------------------------------------------
# Baseline contract


def test_baseline_stale_entry_detected():
    entries = [
        engine.BaselineEntry("src/a.cpp", "A3", "*", 2, lineno=1),
        engine.BaselineEntry("src/b.cpp", "A3", "*", 1, lineno=2),
    ]
    finding = engine.Finding(path="src/a.cpp", line=4, rule="A3", message="m")
    remaining, stale = engine.apply_baseline([finding], entries)
    assert remaining == []
    # The b.cpp entry absorbed nothing: the finding it grandfathered is
    # gone, so strict mode must force the baseline to shrink.
    assert stale == [entries[1]], stale


def test_baseline_headroom_is_a_ceiling():
    entries = [engine.BaselineEntry("src/a.cpp", "A3", "*", 1, lineno=1)]
    findings = [
        engine.Finding(path="src/a.cpp", line=n, rule="A3", message="m")
        for n in (4, 5)
    ]
    remaining, stale = engine.apply_baseline(findings, entries)
    assert len(remaining) == 1 and remaining[0].line == 5, remaining
    assert stale == []


def test_inline_escape_and_dead_escape():
    lines = [
        "int x;  // zka-lint: allow(A6) -- justified",
        "int y;",
        "// zka-lint: allow(A7) -- dead",
    ]

    def provider(path):
        return lines if path == "src/a.cpp" else None

    findings = [engine.Finding(path="src/a.cpp", line=1, rule="A6", message="m")]
    kept, used = engine.filter_allows(findings, provider)
    assert kept == [] and used == {("src/a.cpp", 0)}
    unused = engine.find_unused_allows(
        ["src/a.cpp"], provider, used, {"A6", "A7"}
    )
    assert unused == ["src/a.cpp:3: unused escape allow(A7)"], unused


# ---------------------------------------------------------------------------
# TU cache


def _cache_cmd(path):
    return engine.CompileCommand(file=path, directory=".", args=["-std=c++20"])


def test_cache_hit_miss_and_invalidation():
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "a.cpp")
        hdr = os.path.join(tmp, "a.h")
        for p in (src, hdr):
            with open(p, "w", encoding="utf-8") as fh:
                fh.write("// v1\n")
        calls = []

        def compute(cmd):
            calls.append(cmd.file)
            return {"findings": [], "summaries": {}, "deps": [src, hdr]}

        cache_dir = os.path.join(tmp, "cache")
        cache = TuCache(cache_dir, salt="s1")
        cmd = _cache_cmd(src)
        cache.get_or_compute(cmd, compute)
        cache.get_or_compute(cmd, compute)
        assert (cache.hits, cache.misses) == (1, 1), (cache.hits, cache.misses)
        assert len(calls) == 1

        # Touching a transitive dependency invalidates the entry.
        with open(hdr, "w", encoding="utf-8") as fh:
            fh.write("// v2\n")
        cache.get_or_compute(cmd, compute)
        assert len(calls) == 2

        # A different analyzer salt invalidates everything.
        cache2 = TuCache(cache_dir, salt="s2")
        cache2.get_or_compute(cmd, compute)
        assert len(calls) == 3 and cache2.misses == 1

        # Corrupt entries are treated as misses, never errors.
        for name in os.listdir(cache_dir):
            with open(os.path.join(cache_dir, name), "w", encoding="utf-8") as fh:
                fh.write("garbage")
        cache3 = TuCache(cache_dir, salt="s2")
        cache3.get_or_compute(cmd, compute)
        assert len(calls) == 4 and cache3.misses == 1


def test_cache_rerun_speedup():
    # Simulate the dominant phase-1 parse cost and demand a real speedup
    # on an unchanged tree (the acceptance criterion for the index cache).
    parse_cost_s = 0.02
    n_tus = 5
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for i in range(n_tus):
            path = os.path.join(tmp, f"tu{i}.cpp")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"// tu {i}\n")
            files.append(path)

        def compute(cmd):
            time.sleep(parse_cost_s)
            return {"findings": [], "summaries": {}, "deps": [cmd.file]}

        cache = TuCache(os.path.join(tmp, "cache"), salt="s")
        t0 = time.monotonic()
        for path in files:
            cache.get_or_compute(_cache_cmd(path), compute)
        cold = time.monotonic() - t0
        t1 = time.monotonic()
        for path in files:
            cache.get_or_compute(_cache_cmd(path), compute)
        warm = time.monotonic() - t1
    assert cache.hits == n_tus and cache.misses == n_tus
    assert warm < cold, (warm, cold)
    print(
        f"    cache re-run speedup: cold {cold * 1000:.0f}ms -> "
        f"warm {warm * 1000:.0f}ms ({cold / max(warm, 1e-9):.1f}x)"
    )


# ---------------------------------------------------------------------------
# Phase-2 dataflow rules on synthetic summaries


def test_a6_alloc_in_parallel_body():
    body = summary.new_facts()
    body["allocs"].append(mk_alloc(line=12))
    root = mk_summary("caller", parallel_bodies=[{"line": 5, "facts": body}])
    found = findings_for(index_of(root), only=["A6"])
    assert [(f.rule, f.line) for f in found] == [("A6", 12)], found


def test_a6_alloc_through_call_chain_and_boundary():
    body = summary.new_facts()
    body["calls"].append(mk_call("helper"))
    root = mk_summary("caller", parallel_bodies=[{"line": 5, "facts": body}])
    helper = mk_summary("helper", allocs=[mk_alloc(line=30)])
    found = findings_for(index_of(root, helper), only=["A6"])
    assert [(f.rule, f.line) for f in found] == [("A6", 30)], found
    assert "caller -> helper" in found[0].message, found[0].message
    # A configured boundary stops the walk.
    config = {"boundaries": [{"function": "helper"}]}
    assert findings_for(index_of(root, helper), config, only=["A6"]) == []


def test_a6_wrapper_lambda_roots():
    # A lambda handed to a function that runs its callable parameter in
    # parallel (for_each_row style) is a parallel root.
    lam = summary.new_facts()
    lam["allocs"].append(mk_alloc(line=40))
    wrapper = mk_summary("for_each_row", parallel_params=["c:@p"])
    caller = mk_summary("pairwise", calls=[mk_call("for_each_row", lambdas=[lam])])
    found = findings_for(index_of(wrapper, caller), only=["A6"])
    assert [(f.rule, f.line) for f in found] == [("A6", 40)], found


def test_a6_reserve_dominates_growth():
    body = summary.new_facts()
    body["reserves"].append({"recv": "c:@v", "off": 50})
    body["allocs"].append(mk_alloc(line=12, off=90, recv="c:@v"))
    body["allocs"].append(mk_alloc(line=3, off=10, recv="c:@v", what="early"))
    root = mk_summary("caller", parallel_bodies=[{"line": 5, "facts": body}])
    found = findings_for(index_of(root), only=["A6"])
    # Only the growth *before* the reserve survives.
    assert [(f.line, f.rule) for f in found] == [(3, "A6")], found


def test_a6_hot_root_flags_only_loop_allocs():
    run = mk_summary(
        "zka::fl::Simulation::run",
        allocs=[
            mk_alloc(line=3, off=30, what="setup"),
            mk_alloc(line=12, off=150, what="per-round"),
        ],
        loops=[{"start": 100, "end": 300}],
    )
    config = {"hot_roots": [{"function": "zka::fl::Simulation::run"}]}
    found = findings_for(index_of(run), config, only=["A6"])
    assert [(f.line, f.rule) for f in found] == [(12, "A6")], found


def test_a6_transitive_hot_root_follows_loop_calls_only():
    run = mk_summary(
        "run",
        calls=[mk_call("pre", off=30), mk_call("per_round", off=150)],
        loops=[{"start": 100, "end": 300}],
    )
    pre = mk_summary("pre", allocs=[mk_alloc(line=7)])
    per_round = mk_summary("per_round", allocs=[mk_alloc(line=9)])
    config = {"hot_roots": [{"function": "run", "transitive": True}]}
    found = findings_for(index_of(run, pre, per_round), config, only=["A6"])
    assert [(f.line, f.rule) for f in found] == [(9, "A6")], found


def test_a7_shared_draw_and_rng_self_exemption():
    body = summary.new_facts()
    body["rng_draws"].append({"line": 8, "obj": "rng", "kind": "outer"})
    body["calls"].append(mk_call("zka::util::Rng::normal"))
    root = mk_summary("caller", parallel_bodies=[{"line": 5, "facts": body}])
    rng_impl = mk_summary(
        "zka::util::Rng::normal",
        rng_draws=[{"line": 99, "obj": "this", "kind": "member"}],
    )
    found = findings_for(index_of(root, rng_impl), only=["A7"])
    # The body's own shared draw fires; Rng's internal self-draw does not.
    assert [(f.rule, f.line) for f in found] == [("A7", 8)], found


def test_a8_ret_view_and_view_store():
    s = mk_summary(
        "leaky",
        ret_views=[{"line": 4, "what": "buf"}],
        view_stores=[{"line": 9, "what": "update"}],
    )
    found = findings_for(index_of(s), only=["A8"])
    assert sorted((f.rule, f.line) for f in found) == [("A8", 4), ("A8", 9)]


def test_a9_unguarded_stream_and_propagation():
    unguarded = mk_summary(
        "drive_bad",
        stream_calls=[{"kind": "stream_update", "line": 3, "off": 30}],
    )
    found = findings_for(index_of(unguarded), only=["A9"])
    assert [(f.rule, f.line) for f in found] == [("A9", 3)], found

    # Through a callee: reported at the zero-caller entry, not interior.
    interior = mk_summary(
        "push_one",
        stream_calls=[{"kind": "stream_update", "line": 3, "off": 30}],
    )
    outer = mk_summary("drive_outer", calls=[mk_call("push_one", line=7, off=70)])
    found = findings_for(index_of(interior, outer), only=["A9"])
    assert [(f.function, f.line) for f in found] == [("drive_outer", 7)], found


def test_a9_guarded_stream_is_clean():
    guarded = mk_summary(
        "drive_good",
        stream_calls=[
            {"kind": "begin_stream", "line": 2, "off": 10},
            {"kind": "stream_update", "line": 3, "off": 30},
            {"kind": "finish_stream", "line": 4, "off": 50},
        ],
    )
    assert findings_for(index_of(guarded), only=["A9"]) == []


def test_a9_forwarding_hook_is_not_a_protocol_client():
    # A decorator's do_stream_update forwards to the inner rule's
    # stream_update; it runs inside the server's open stream.
    hook = mk_summary(
        "Forwarding::do_stream_update",
        entry="do_stream_update",
        stream_calls=[{"kind": "stream_update", "line": 3, "off": 30}],
    )
    assert findings_for(index_of(hook), only=["A9"]) == []


def test_a9_finish_stream_unordered_fold():
    finish = mk_summary(
        "Mean::finish_stream", entry="finish_stream", calls=[mk_call("fold")]
    )
    fold = mk_summary("fold", unordered_iters=[{"line": 7}])
    found = findings_for(index_of(finish, fold), only=["A9"])
    assert [(f.rule, f.line) for f in found] == [("A9", 7)], found
    assert "hash-ordered" in found[0].message


def test_a10_entry_reach_only():
    agg = mk_summary("Mean::aggregate", entry="aggregate", calls=[mk_call("fold")])
    fold = mk_summary("fold", unordered_iters=[{"line": 7}])
    found = findings_for(index_of(agg, fold), only=["A10"])
    assert [(f.rule, f.line) for f in found] == [("A10", 7)], found
    # The same shape without an entry point is silent.
    plain = mk_summary("helper_caller", calls=[mk_call("fold")])
    assert findings_for(index_of(plain, fold), only=["A10"]) == []


# ---------------------------------------------------------------------------
# Taint rules A11-A15 on synthetic summaries (default trust: all params of
# aggregate/begin_stream/stream_update/stream_replay are sources, so are
# craft/reported_weight returns, everything is in sink scope)


def test_taint_source_to_sink_two_hops():
    # aggregate(updates) -> fold(rows) -> accum_row(row): the accumulation
    # sink is two call hops from the source, with no guard anywhere.
    agg = mk_summary(
        "Mean::aggregate",
        entry="aggregate",
        params=[{"usr": "c:@u", "name": "updates"}],
        calls=[mk_call("fold", args=[["c:@u"]])],
    )
    fold = mk_summary(
        "fold",
        params=[{"usr": "c:@fp", "name": "rows"}],
        calls=[mk_call("accum_row", args=[["c:@fp"]])],
    )
    accum = mk_summary(
        "accum_row",
        params=[{"usr": "c:@ar", "name": "row"}],
        sinks=[mk_sink("accum", ["c:@ar"], line=9, what="acc += row[i]")],
    )
    found = findings_for(index_of(agg, fold, accum), only=["A13"])
    assert [(f.rule, f.line, f.function) for f in found] == [
        ("A13", 9, "accum_row")
    ], found
    assert "param of Mean::aggregate" in found[0].message, found[0].message


def test_taint_sanitizer_kills_flow():
    # Handing the rows to a sanitize_* call before forwarding launders
    # them: nothing downstream of the call is tainted. A sanitizer's own
    # return key is clean by contract, too.
    agg = mk_summary(
        "Mean::aggregate",
        entry="aggregate",
        params=[{"usr": "c:@u", "name": "updates"}],
        sanitize_calls=[{"name": "sanitize_rows", "keys": ["c:@u"], "off": 10}],
        calls=[mk_call("accum_row", off=20, args=[["c:@u"]])],
    )
    accum = mk_summary(
        "accum_row",
        params=[{"usr": "c:@ar", "name": "row"}],
        sinks=[
            mk_sink("accum", ["c:@ar"], line=9),
            mk_sink("accum", ["ret:zka::defense::sanitize::Ingress::admit_updates"]),
        ],
    )
    assert findings_for(index_of(agg, accum), only=["A13"]) == []
    # The same shape with the sanitize call AFTER the forwarding call
    # does not help: the callee already has the dirty copy.
    agg_late = mk_summary(
        "Mean::aggregate",
        entry="aggregate",
        params=[{"usr": "c:@u", "name": "updates"}],
        sanitize_calls=[{"name": "sanitize_rows", "keys": ["c:@u"], "off": 30}],
        calls=[mk_call("accum_row", off=20, args=[["c:@u"]])],
    )
    found = findings_for(index_of(agg_late, accum), only=["A13"])
    assert [(f.rule, f.line) for f in found] == [("A13", 9)], found


def test_taint_sanitize_call_own_arguments_stay_raw():
    # The extractor records the kill and the call edge of one sanitizer
    # call at the SAME offset; the kill is strict, so the sanitizer's own
    # params still receive the dirty values (that is its job, and the only
    # way taint reaches a sanitizer body for A15), while a caller-side
    # sink after the call is clean.
    agg = mk_summary(
        "Mean::aggregate",
        entry="aggregate",
        params=[{"usr": "c:@u", "name": "updates"}],
        sanitize_calls=[{"name": "validate_rows", "keys": ["c:@u"], "off": 20}],
        calls=[mk_call("validate_rows", off=20, args=[["c:@u"]])],
        sinks=[mk_sink("accum", ["c:@u"], line=12, off=90)],
    )
    san = mk_summary(
        "validate_rows",
        params=[{"usr": "c:@vr", "name": "rows"}],
        sinks=[mk_sink("div", ["c:@vr"], line=31, off=40)],
    )
    found = findings_for(index_of(agg, san), only=["A12", "A13"])
    assert [(f.rule, f.line) for f in found] == [("A12", 31)], found


def test_taint_guard_component_and_order():
    # A dominating check on any flow-related key guards the sink; a check
    # after the sink, or on an unrelated key, does not.
    def agg(guards):
        return mk_summary(
            "WMean::aggregate",
            entry="aggregate",
            params=[{"usr": "c:@w", "name": "weights"}],
            flows=[{"dst": "c:@total", "srcs": ["c:@w"], "off": 40}],
            guards=guards,
            sinks=[mk_sink("div", ["c:@total"], line=8, off=100, what="sum / total")],
        )

    bare = findings_for(index_of(agg([])), only=["A12"])
    assert [(f.rule, f.line) for f in bare] == [("A12", 8)], bare
    # Guarding the *source* credits the whole flow component.
    guarded = agg([{"kinds": ["check"], "keys": ["c:@w"], "off": 50}])
    assert findings_for(index_of(guarded), only=["A12"]) == []
    late = agg([{"kinds": ["check"], "keys": ["c:@total"], "off": 150}])
    assert len(findings_for(index_of(late), only=["A12"])) == 1
    other = agg([{"kinds": ["check"], "keys": ["c:@other"], "off": 50}])
    assert len(findings_for(index_of(other), only=["A12"])) == 1


def test_taint_alloc_index_and_loop_bound():
    s = mk_summary(
        "Coord::stream_update",
        entry="stream_update",
        params=[{"usr": "c:@n", "name": "update"}],
        sinks=[
            mk_sink("alloc", ["c:@n"], line=5, what="resize()"),
            mk_sink("index", ["c:@n"], line=6, what="operator[]"),
            mk_sink("loop_bound", ["c:@n"], line=7, what="loop bound"),
        ],
    )
    found = findings_for(index_of(s), only=["A11", "A14"])
    assert sorted((f.rule, f.line) for f in found) == [
        ("A11", 5),
        ("A14", 6),
        ("A14", 7),
    ], found
    # A finite guard is the wrong kind for range sinks -- still flagged.
    s["facts"]["guards"] = [{"kinds": ["check", "finite"], "keys": ["c:@n"], "off": 1}]
    assert findings_for(index_of(s), only=["A11", "A14"]) == []


def test_taint_craft_return_source():
    # A virtual-dispatch call of Attack::craft has no callee summary; the
    # ret: key itself is a configured source.
    sim = mk_summary(
        "run_round",
        path="src/fl/simulation.cpp",
        flows=[{"dst": "c:@upd", "srcs": ["ret:zka::attack::Flip::craft"], "off": 10}],
        sinks=[mk_sink("accum", ["c:@upd"], line=12, what="axpy()")],
    )
    found = findings_for(index_of(sim), only=["A13"])
    assert [(f.rule, f.line) for f in found] == [("A13", 12)], found
    assert "return of zka::attack::Flip::craft" in found[0].message


def test_taint_a15_partial_sanitizer():
    # validate_updates checks `updates` but forwards `weights` unchecked:
    # taint laundering on the weights parameter only.
    agg = mk_summary(
        "Mean::aggregate",
        entry="aggregate",
        params=[{"usr": "c:@u", "name": "updates"}, {"usr": "c:@w", "name": "weights"}],
        calls=[
            mk_call("zka::defense::validate_updates", args=[["c:@u"], ["c:@w"]])
        ],
    )
    san = mk_summary(
        "zka::defense::validate_updates",
        params=[
            {"usr": "c:@vu", "name": "updates"},
            {"usr": "c:@vw", "name": "weights"},
        ],
        guards=[{"kinds": ["check"], "keys": ["c:@vu"], "off": 5}],
        calls=[mk_call("impl", off=30, args=[["c:@vu"], ["c:@vw"]])],
    )
    found = findings_for(index_of(agg, san), only=["A15"])
    assert [(f.rule, f.function) for f in found] == [
        ("A15", "zka::defense::validate_updates")
    ], found
    assert "'weights'" in found[0].message, found[0].message
    # Checking the second parameter too clears the finding.
    san["facts"]["guards"].append({"kinds": ["check"], "keys": ["c:@vw"], "off": 6})
    assert findings_for(index_of(agg, san), only=["A15"]) == []


def test_taint_trust_config_filters():
    # An explicit trust config narrows begin_stream's sources to the named
    # parameter and restricts sinks to the include scope.
    trust = {
        "sources": [
            {"entry": "begin_stream", "what": "params", "params": ["weights"]}
        ],
        "sanitizers": [],
        "sink_scope": {"include": ["src/defense/"], "exclude": []},
    }
    server = mk_summary(
        "Mean::begin_stream",
        entry="begin_stream",
        path="src/defense/mean.cpp",
        params=[{"usr": "c:@w", "name": "weights"}, {"usr": "c:@d", "name": "dim"}],
        sinks=[
            mk_sink("alloc", ["c:@d"], line=4, what="resize()"),
            mk_sink("accum", ["c:@w"], line=5, what="w_sum +="),
        ],
    )
    harness = mk_summary(
        "drive",
        path="tests/test_x.cpp",
        entry="begin_stream",
        params=[{"usr": "c:@hw", "name": "weights"}],
        sinks=[mk_sink("accum", ["c:@hw"], line=9)],
    )
    found = findings_for(index_of(server, harness), trust=trust)
    # dim is server-derived (not a source) and the tests/ sink is out of
    # scope: only the weight accumulation fires.
    assert [(f.rule, f.line, f.path) for f in found] == [
        ("A13", 5, "src/defense/mean.cpp")
    ], found


# ---------------------------------------------------------------------------
# analyze_diff


def _diff_payload(per_rule):
    return {"findings": [], "per_rule": per_rule}


def test_analyze_diff_growth_fails():
    with tempfile.TemporaryDirectory() as tmp:
        prev = os.path.join(tmp, "prev.json")
        cur = os.path.join(tmp, "cur.json")
        with open(prev, "w", encoding="utf-8") as fh:
            json.dump(_diff_payload({"A6": {"found": 1, "remaining": 0}}), fh)
        with open(cur, "w", encoding="utf-8") as fh:
            json.dump(_diff_payload({"A6": {"found": 2, "remaining": 0}}), fh)
        grow = subprocess.run(
            [sys.executable, ANALYZE_DIFF, prev, cur],
            capture_output=True,
            text=True,
        )
        assert grow.returncode == 1, grow
        assert "REGRESSION" in grow.stdout, grow.stdout
        shrink = subprocess.run(
            [sys.executable, ANALYZE_DIFF, cur, prev],
            capture_output=True,
            text=True,
        )
        assert shrink.returncode == 0, shrink
        first_run = subprocess.run(
            [
                sys.executable,
                ANALYZE_DIFF,
                os.path.join(tmp, "absent.json"),
                cur,
                "--missing-ok",
            ],
            capture_output=True,
            text=True,
        )
        assert first_run.returncode == 0, first_run


# ---------------------------------------------------------------------------


def main() -> int:
    tests = [
        (name, fn)
        for name, fn in sorted(globals().items())
        if name.startswith("test_") and callable(fn)
    ]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:  # noqa: BLE001 -- report and keep going
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"PASS {name}")
    print(f"test_pure: {len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
