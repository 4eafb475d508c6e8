#!/usr/bin/env python3
"""fdb_lint: project-invariant checks the compiler cannot express.

Rules (each reported as path:line: [rule] message):

  raw-threading      No std::mutex / std::shared_mutex / std::thread /
                     std::condition_variable outside src/common/. Everything
                     else goes through the annotated wrappers in
                     common/mutex.h or the pool in common/thread_pool.h, so
                     clang Thread Safety Analysis sees every lock.
                     (std::thread::hardware_concurrency is a query, not a
                     thread, and is allowed.)

  guarded-mutex      A file declaring a Mutex/SharedMutex member must
                     annotate at least one member GUARDED_BY(that mutex) —
                     an unreferenced mutex guards nothing and silently
                     drops out of Thread Safety Analysis.

  validated-ops      Every operator translation unit (src/core/ops_*.cc)
                     must invoke an FDB_VALIDATE_* macro (core/validate.h)
                     or rebuild through PathRewrite (core/ops_common.h),
                     whose Run ends with one, so FDB_VALIDATE builds
                     deep-check operator results.

  include-guard      Headers carry the path-derived guard FDB_<PATH>_H_
                     (src/ stripped), e.g. src/core/frep.h uses
                     FDB_CORE_FREP_H_.

  raw-timing         No std::chrono::steady_clock / high_resolution_clock
                     outside src/common/ and src/bench_util/. Timing goes
                     through Timer / MonotonicClock / MonotonicDeadline
                     (common/timer.h) or QueryTrace spans (common/trace.h),
                     so every measurement shares one clock source and shows
                     up in the observability surfaces.

  no-abort-on-input  Modules that parse untrusted bytes (src/sql/,
                     src/core/serialize.cc, src/storage/csv.cc,
                     src/serve/protocol.cc) must not contain abort-path
                     constructs (FDB_ASSERT, FDB_DCHECK, assert(, abort()).
                     Malformed input must throw FdbError — the fuzz
                     harnesses in fuzz/ enforce the same contract at
                     runtime; this rule enforces it statically.

  fault-point        FDB_FAULT_POINT site names must be snake_case string
                     literals and unique — the fault registry
                     (common/fault.h) keys on them, so a reused name arms
                     two sites at once. Within-file duplicates are caught
                     per file; the tree walk also rejects the same name in
                     two different files.

  bad-alloc-catch    No `catch (std::bad_alloc)` outside src/common/.
                     Allocation failure is translated exactly once, by
                     TranslateBadAlloc (common/exec_context.h), into
                     FdbResourceExhausted so every out-of-memory surfaces
                     as RESOURCE; an ad-hoc catch would swallow the
                     resource-governance contract.

  one-dag-walk       No private walk over the union DAG in src/ outside
                     core/frep.cc (FRep::SweepBottomUp, the shallow
                     Validate), core/validate.cc (the deep validators),
                     core/serialize.cc (WriteFRep, whose pre-order is the
                     file format) and core/print.cc (the render writer,
                     whose pre-order is the output and whose first-visit
                     flags count a shared union's singletons once):
                     neither an explicit union-id stack
                     (std::vector<uint32_t> ...stack...) nor a done/seen
                     array sized NumUnions(). Every other pass over the
                     unions folds through SweepBottomUp, which owns the
                     reachability, the bottom-up order and the governance
                     probe.

  one-path-rewrite   No private rebuild walk in the f-plan operators
                     (src/core/ops_*.{h,cc}) outside core/ops_common.{h,cc}
                     (PathRewrite): neither a SubtreeContains( path mask nor
                     a recursive `auto&& self` lambda. Every operator
                     rewrites the entries of one node through
                     PathRewrite::Run, which owns the path rebuild, the
                     dropped-entry cascade, the root list and the final
                     validation.

  no-dag-sizing      No SubtreeTupleCounts( or CountTuples( /
                     CountTuplesExact( call in core/parallel_enumerate.* or
                     core/kernel.*. Materialisation sizes its stream with
                     the kernel's own count walk (EnumKernel::CountEntries),
                     in proportion to the output; a DP over the whole union
                     DAG on that path costs in proportion to the
                     representation and is what the planner used to run.
                     The validators keep the DP as their oracle.

  page-advice        No madvise( or mmap( call in src/ outside
                     src/common/pages.cc. Page advice goes through
                     AdviseHugePages / PrefaultForWrite (common/pages.h),
                     which own the alignment rounding, the no-op where a
                     MADV_* constant is missing and the fallback when the
                     kernel rejects a call.

  arena-blocks       No ::operator new( or ::operator delete( call in src/
                     outside src/common/arena_pool.cc. Arena blocks come
                     from AllocateArenaBlock / ReleaseArenaBlock
                     (common/arena_pool.h), which own the size classes, the
                     parking cap and the ASan poisoning of parked blocks; a
                     raw call beside them would bypass the recycler or free
                     a block it handed out with the wrong size.

  one-restructure    One restructuring rewrite. No call to the Swap( or
                     PushUp( data operators in src/ outside core/fplan.cc
                     (ExecuteStep runs an f-plan's steps) and
                     core/ops_restructure.cc: a caller edits an f-tree
                     (SwapTree, PushUpTree) and moves the data once with
                     Restructure (core/ops.h). And no std::priority_queue
                     or make_heap( in src/core/ops_* outside
                     core/ops_restructure.cc, whose merge of sources is the
                     only regroup of the operators.

  one-aggregate-algebra
                     One aggregate algebra. No MulCount(, AddCount(,
                     U64MulOverflow( or U64AddOverflow( in src/ outside
                     common/types.h (the checked helpers), core/frep.cc
                     (the CountTuples DP), core/agg_stats.h (AggStats) and
                     core/print.cc (the tuple count the render writer
                     folds into its pass, which falls back to the DP past
                     2^64 instead of throwing).
                     Every COUNT/SUM/AVG/MIN/MAX over an f-representation
                     folds through AggStats' union and product steps,
                     which own the accumulator types and the overflow
                     policy; a hand-written fold beside them is a second
                     copy of the recurrence to keep in step.

  one-render-writer  No <sstream> or ostringstream in src/core/print.cc or
                     src/serve/protocol.cc. Result bodies are written by
                     RenderWriter (core/print.h): one buffer, fixed-size
                     stores and std::to_chars, which prints integers
                     exactly; a stream beside it costs a virtual call per
                     value and rounds doubles to six digits.

Exit status: 0 when clean, 1 when any rule fires, 2 on usage errors.
--self-test seeds one violation per rule through the checkers and fails if
any rule does NOT fire (the armed-probe pattern: prove the lint is live).
"""

import argparse
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# Helpers


def strip_comments(text):
    """Removes // and /* */ comments, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '/' and i + 1 < n and text[i + 1] == '/':
            while i < n and text[i] != '\n':
                i += 1
        elif c == '/' and i + 1 < n and text[i + 1] == '*':
            j = text.find('*/', i + 2)
            j = n if j < 0 else j + 2
            out.append('\n' * text.count('\n', i, j))
            i = j
        elif c in '"\'':
            # Skip string/char literals so quoted code is not matched.
            quote, i = c, i + 1
            out.append(quote)
            while i < n and text[i] != quote:
                i += 2 if text[i] == '\\' else 1
            i += 1
            out.append(quote)
        else:
            out.append(c)
            i += 1
    return ''.join(out)


def strip_only_comments(text):
    """Removes // and /* */ comments but KEEPS string-literal contents
    (strip_comments blanks them), for rules that inspect literals."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '/' and i + 1 < n and text[i + 1] == '/':
            while i < n and text[i] != '\n':
                i += 1
        elif c == '/' and i + 1 < n and text[i + 1] == '*':
            j = text.find('*/', i + 2)
            j = n if j < 0 else j + 2
            out.append('\n' * text.count('\n', i, j))
            i = j
        elif c in '"\'':
            quote, i = c, i + 1
            out.append(quote)
            start = i
            while i < n and text[i] != quote:
                i += 2 if text[i] == '\\' else 1
            out.append(text[start:min(i, n)])
            i += 1
            out.append(quote)
        else:
            out.append(c)
            i += 1
    return ''.join(out)


def findings_for(lines_re, text, make_msg):
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        m = lines_re.search(line)
        if m:
            out.append((lineno, make_msg(m)))
    return out


# --------------------------------------------------------------------------
# Rules. Each checker takes (relpath: str, text: str) and returns a list of
# (lineno, message); scoping (which files a rule applies to) lives in the
# checker itself so --self-test can exercise it with synthetic paths.

RAW_THREADING_RE = re.compile(
    r'std::(mutex|shared_mutex|condition_variable(_any)?|thread)\b'
    r'(?!::hardware_concurrency)')


def check_raw_threading(relpath, text):
    if not relpath.startswith('src/') or relpath.startswith('src/common/'):
        return []
    return findings_for(
        RAW_THREADING_RE, strip_comments(text),
        lambda m: '[raw-threading] raw std::%s outside src/common/ — use '
                  'the annotated wrappers in common/mutex.h or '
                  'common/thread_pool.h' % m.group(1))


MUTEX_MEMBER_RE = re.compile(
    r'^\s*(?:mutable\s+)?(?:Mutex|SharedMutex)\s+(\w+)\s*;')


def check_guarded_mutex(relpath, text):
    if not relpath.startswith(('src/', 'fuzz/')):
        return []
    if relpath == 'src/common/mutex.h':  # defines the wrappers themselves
        return []
    stripped = strip_comments(text)
    out = []
    for lineno, line in enumerate(stripped.splitlines(), 1):
        m = MUTEX_MEMBER_RE.match(line)
        if m and ('GUARDED_BY(%s)' % m.group(1)) not in stripped:
            out.append((lineno,
                        '[guarded-mutex] mutex member %s has no '
                        'GUARDED_BY(%s) annotation on any member — Thread '
                        'Safety Analysis cannot see what it protects'
                        % (m.group(1), m.group(1))))
    return out


VALIDATED_OPS_RE = re.compile(r'\bFDB_VALIDATE_\w+\s*\(')
PATH_REWRITE_RE = re.compile(r'\bPathRewrite\b')


def check_validated_ops(relpath, text):
    if not re.fullmatch(r'src/core/ops_\w+\.cc', relpath):
        return []
    stripped = strip_comments(text)
    if VALIDATED_OPS_RE.search(stripped) or PATH_REWRITE_RE.search(stripped):
        return []
    return [(1, '[validated-ops] operator translation unit never invokes an '
                'FDB_VALIDATE_* macro (core/validate.h) nor rebuilds through '
                'PathRewrite (core/ops_common.h)')]


def expected_guard(relpath):
    p = relpath[len('src/'):] if relpath.startswith('src/') else relpath
    return 'FDB_' + re.sub(r'[^A-Za-z0-9]', '_', p).upper() + '_'


def check_include_guard(relpath, text):
    if not relpath.endswith('.h'):
        return []
    if not relpath.startswith(('src/', 'fuzz/')):
        return []
    guard = expected_guard(relpath)
    stripped = strip_comments(text)
    if re.search(r'^\s*#ifndef\s+%s\s*$' % re.escape(guard), stripped, re.M) \
            and re.search(r'^\s*#define\s+%s\s*$' % re.escape(guard),
                          stripped, re.M):
        return []
    return [(1, '[include-guard] header must use the path-derived guard '
                + guard)]


RAW_TIMING_RE = re.compile(
    r'std::chrono::(steady_clock|high_resolution_clock)\b')


def check_raw_timing(relpath, text):
    if not relpath.startswith(('src/', 'fuzz/')):
        return []
    if relpath.startswith(('src/common/', 'src/bench_util/')):
        return []
    return findings_for(
        RAW_TIMING_RE, strip_comments(text),
        lambda m: '[raw-timing] raw std::chrono::%s outside src/common/ — '
                  'use Timer / MonotonicClock / MonotonicDeadline '
                  '(common/timer.h) or QueryTrace (common/trace.h)'
                  % m.group(1))


INPUT_PARSING_FILES = re.compile(
    r'src/sql/[^/]+\.(h|cc)|src/core/serialize\.cc|src/storage/csv\.cc'
    r'|src/serve/protocol\.cc')

ABORT_PATH_RE = re.compile(
    r'\b(FDB_ASSERT|FDB_DCHECK)\b|(?<![\w.])(std::)?abort\s*\('
    r'|(?<![\w.])assert\s*\(')


def check_no_abort_on_input(relpath, text):
    if not INPUT_PARSING_FILES.fullmatch(relpath):
        return []
    return findings_for(
        ABORT_PATH_RE, strip_comments(text),
        lambda m: '[no-abort-on-input] abort-path construct in an '
                  'untrusted-input module — malformed input must throw '
                  'FdbError, never kill the process')


FAULT_POINT_RE = re.compile(r'FDB_FAULT_POINT\(\s*"([^"]*)"\s*\)')
SNAKE_CASE_RE = re.compile(r'[a-z][a-z0-9_]*')


def fault_point_sites(text):
    """Yields (lineno, name) for each literal FDB_FAULT_POINT call site.

    Scans comment-stripped text with string literals intact (the macro
    definition in common/fault.h takes a bare parameter, not a literal, so
    it never matches)."""
    for lineno, line in enumerate(strip_only_comments(text).splitlines(), 1):
        for m in FAULT_POINT_RE.finditer(line):
            yield lineno, m.group(1)


def check_fault_points(relpath, text):
    if not relpath.startswith(('src/', 'fuzz/')):
        return []
    out = []
    seen = {}
    for lineno, name in fault_point_sites(text):
        if not SNAKE_CASE_RE.fullmatch(name):
            out.append((lineno,
                        '[fault-point] site name "%s" is not snake_case '
                        '(lower-case letters, digits, underscores)' % name))
        elif name in seen:
            out.append((lineno,
                        '[fault-point] site name "%s" reused (first at '
                        'line %d) — the registry keys on names, so both '
                        'sites would arm together' % (name, seen[name])))
        else:
            seen[name] = lineno
    return out


BAD_ALLOC_CATCH_RE = re.compile(r'catch\s*\(\s*(?:const\s+)?std::bad_alloc\b')


def check_bad_alloc_catch(relpath, text):
    if not relpath.startswith(('src/', 'fuzz/')):
        return []
    if relpath.startswith('src/common/'):
        return []
    return findings_for(
        BAD_ALLOC_CATCH_RE, strip_comments(text),
        lambda m: '[bad-alloc-catch] raw catch of std::bad_alloc outside '
                  'src/common/ — wrap the allocating region in '
                  'TranslateBadAlloc (common/exec_context.h) so the '
                  'failure surfaces as RESOURCE')


UNION_STACK_RE = re.compile(r'std::vector<uint32_t>\s+\w*stack\w*\b')
VISITED_ARRAY_RE = re.compile(
    r'\b\w*(done|seen)\w*\s*(\(|\{|\.assign\s*\(|\.resize\s*\()'
    r'[^;]*\bNumUnions\s*\(\s*\)')
DAG_WALK_OWNERS = ('src/core/frep.cc', 'src/core/validate.cc',
                   'src/core/serialize.cc', 'src/core/print.cc')


def check_one_dag_walk(relpath, text):
    if not relpath.startswith('src/') or relpath in DAG_WALK_OWNERS:
        return []
    out = []
    for lineno, line in enumerate(strip_comments(text).splitlines(), 1):
        if UNION_STACK_RE.search(line) or VISITED_ARRAY_RE.search(line):
            out.append((lineno,
                        '[one-dag-walk] private walk over the union DAG — '
                        'fold through FRep::SweepBottomUp (core/frep.h)'))
    return out


PRIVATE_REWRITE_RE = re.compile(
    r'\bSubtreeContains\s*\(|\bauto\s*&&\s*self\b')
PATH_REWRITE_OWNERS = ('src/core/ops_common.h', 'src/core/ops_common.cc')


def check_one_path_rewrite(relpath, text):
    if not re.fullmatch(r'src/core/ops_\w+\.(h|cc)', relpath):
        return []
    if relpath in PATH_REWRITE_OWNERS:
        return []
    return findings_for(
        PRIVATE_REWRITE_RE, strip_comments(text),
        lambda m: '[one-path-rewrite] private rebuild walk in an f-plan '
                  'operator — rewrite the entries of one node through '
                  'PathRewrite::Run (core/ops_common.h)')


DAG_SIZING_RE = re.compile(
    r'\b(SubtreeTupleCounts|CountTuples(Exact)?)\s*\(')


def check_no_dag_sizing(relpath, text):
    if not re.fullmatch(r'src/core/(parallel_enumerate|kernel)\.(h|cc)',
                        relpath):
        return []
    return findings_for(
        DAG_SIZING_RE, strip_comments(text),
        lambda m: '[no-dag-sizing] %s( sizes the stream by a pass over the '
                  'whole union DAG — count it with EnumKernel::CountEntries '
                  '(core/kernel.h)' % m.group(1))


PAGE_ADVICE_RE = re.compile(r'\b(madvise|mmap)\s*\(')
PAGE_ADVICE_OWNER = 'src/common/pages.cc'


def check_page_advice(relpath, text):
    if not relpath.startswith('src/') or relpath == PAGE_ADVICE_OWNER:
        return []
    return findings_for(
        PAGE_ADVICE_RE, strip_comments(text),
        lambda m: '[page-advice] raw %s( outside src/common/pages.cc — use '
                  'AdviseHugePages / PrefaultForWrite (common/pages.h)'
                  % m.group(1))


ARENA_BLOCKS_RE = re.compile(r'::\s*operator\s+(new|delete)\b(\s*\[\s*\])?\s*\(')
ARENA_BLOCKS_OWNER = 'src/common/arena_pool.cc'


def check_arena_blocks(relpath, text):
    if not relpath.startswith('src/') or relpath == ARENA_BLOCKS_OWNER:
        return []
    return findings_for(
        ARENA_BLOCKS_RE, strip_comments(text),
        lambda m: '[arena-blocks] raw ::operator %s( outside '
                  'src/common/arena_pool.cc — allocate arena blocks through '
                  'AllocateArenaBlock / ReleaseArenaBlock '
                  '(common/arena_pool.h)' % m.group(1))


RESTRUCTURE_CALL_RE = re.compile(r'(?<!FRep )\b(Swap|PushUp)\s*\(')
RESTRUCTURE_CALLERS = ('src/core/fplan.cc', 'src/core/ops_restructure.cc')
REGROUP_HEAP_RE = re.compile(r'\bpriority_queue\b|\bmake_heap\s*\(')


def check_one_restructure(relpath, text):
    if not relpath.startswith('src/') or relpath in RESTRUCTURE_CALLERS:
        return []
    stripped = strip_comments(text)
    out = findings_for(
        RESTRUCTURE_CALL_RE, stripped,
        lambda m: '[one-restructure] %s( rewrites the data once per step — '
                  'edit the f-tree and call Restructure (core/ops.h) once'
                  % m.group(1))
    if re.fullmatch(r'src/core/ops_\w+\.(h|cc)', relpath):
        out += findings_for(
            REGROUP_HEAP_RE, stripped,
            lambda m: '[one-restructure] private regroup heap in an f-plan '
                      'operator — restructure through Restructure '
                      '(core/ops_restructure.cc)')
    return out


COUNT_ARITH_RE = re.compile(
    r'\b(MulCount|AddCount|U64MulOverflow|U64AddOverflow)\s*\(')
COUNT_ARITH_OWNERS = ('src/common/types.h', 'src/core/frep.cc',
                      'src/core/agg_stats.h', 'src/core/print.cc')


def check_one_aggregate_algebra(relpath, text):
    if not relpath.startswith('src/') or relpath in COUNT_ARITH_OWNERS:
        return []
    return findings_for(
        COUNT_ARITH_RE, strip_comments(text),
        lambda m: '[one-aggregate-algebra] %s( outside the aggregate '
                  'algebra — fold counts and statistics through AggStats '
                  '(core/agg_stats.h)' % m.group(1))


RENDER_STREAM_RE = re.compile(r'<sstream>|\bostringstream\b')
RENDER_WRITER_FILES = ('src/core/print.cc', 'src/serve/protocol.cc')


def check_one_render_writer(relpath, text):
    if relpath not in RENDER_WRITER_FILES:
        return []
    return findings_for(
        RENDER_STREAM_RE, strip_comments(text),
        lambda m: '[one-render-writer] %s in a result renderer — write '
                  'through RenderWriter (core/print.h)' % m.group(0))


CHECKERS = [
    check_raw_threading,
    check_guarded_mutex,
    check_validated_ops,
    check_include_guard,
    check_raw_timing,
    check_no_abort_on_input,
    check_fault_points,
    check_bad_alloc_catch,
    check_one_dag_walk,
    check_one_path_rewrite,
    check_no_dag_sizing,
    check_page_advice,
    check_arena_blocks,
    check_one_restructure,
    check_one_aggregate_algebra,
    check_one_render_writer,
]

# --------------------------------------------------------------------------
# Driver


def lint_tree(root):
    findings = []
    nfiles = 0
    fault_sites = {}  # name -> first (relpath, lineno); cross-file check
    for sub in ('src', 'fuzz'):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob('*')):
            if path.suffix not in ('.h', '.cc'):
                continue
            relpath = path.relative_to(root).as_posix()
            text = path.read_text(encoding='utf-8', errors='replace')
            nfiles += 1
            for checker in CHECKERS:
                for lineno, msg in checker(relpath, text):
                    findings.append('%s:%d: %s' % (relpath, lineno, msg))
            for lineno, name in fault_point_sites(text):
                first = fault_sites.setdefault(name, (relpath, lineno))
                if first[0] != relpath:
                    findings.append(
                        '%s:%d: [fault-point] site name "%s" already used '
                        'at %s:%d — names are registry keys and must be '
                        'globally unique' % (relpath, lineno, name,
                                             first[0], first[1]))
    return findings, nfiles


# One deliberate violation per rule; --self-test fails unless every rule
# fires on its seed (and stays quiet on the clean twin).
SELF_TEST_CASES = [
    (check_raw_threading, 'src/core/x.cc',
     'static std::mutex mu;\n', 'std::thread::hardware_concurrency();\n'),
    (check_guarded_mutex, 'src/serve/x.h',
     'class C {\n  Mutex mu_;\n  int n_;\n};\n',
     'class C {\n  Mutex mu_;\n  int n_ GUARDED_BY(mu_);\n};\n'),
    (check_validated_ops, 'src/core/ops_x.cc',
     'void Op() {}\n', 'void Op() { FDB_VALIDATE_REP(rep); }\n'),
    (check_validated_ops, 'src/core/ops_x.cc',
     'void Op() {}\n', 'void Op() { PathRewrite rw(in, &out, p); }\n'),
    (check_include_guard, 'src/core/x.h',
     '#ifndef WRONG_H\n#define WRONG_H\n#endif\n',
     '#ifndef FDB_CORE_X_H_\n#define FDB_CORE_X_H_\n#endif\n'),
    (check_raw_timing, 'src/serve/x.cc',
     'auto t0 = std::chrono::steady_clock::now();\n',
     'auto deadline = MonotonicDeadline(0.5);\n'),
    (check_no_abort_on_input, 'src/sql/x.cc',
     'void f() { FDB_ASSERT(ok); }\n',
     'void f() { FDB_CHECK_MSG(ok, "bad input"); }\n'),
    (check_fault_points, 'src/core/x.cc',
     'void f() {\n  FDB_FAULT_POINT("dup_site");\n'
     '  FDB_FAULT_POINT("dup_site");\n  FDB_FAULT_POINT("BadName");\n}\n',
     'void f() { FDB_FAULT_POINT("good_site"); }\n'),
    (check_bad_alloc_catch, 'src/core/x.cc',
     'try { f(); } catch (const std::bad_alloc&) { g(); }\n',
     'TranslateBadAlloc([&] { f(); }, "f");\n'),
    (check_one_dag_walk, 'src/core/aggregate.cc',
     'std::vector<char> seen(rep.NumUnions(), 0);\n'
     'std::vector<uint32_t> stack(rep.roots().begin(), rep.roots().end());\n',
     'std::vector<uint32_t> memo(rep.NumUnions(), kNoUnion);\n'
     'rep.SweepBottomUp([&](int n, uint32_t id) { f(n, id); });\n'),
    (check_one_path_rewrite, 'src/core/ops_x.cc',
     'std::vector<char> on_path = SubtreeContains(t, p);\n'
     'auto rec = [&](auto&& self, uint32_t id) -> uint32_t {\n',
     'rw.Run(p, [&](const uint32_t* kids, size_t k, '
     'std::vector<uint32_t>* nk) { return true; });\n'),
    (check_no_dag_sizing, 'src/core/parallel_enumerate.cc',
     'const std::vector<double> counts = rep.SubtreeTupleCounts(keep);\n'
     'const double total = rep.CountTuples();\n',
     '// sized without rep.SubtreeTupleCounts()\n'
     'const std::vector<uint64_t> top = k.CountEntries(rep, {&all, 1});\n'),
    (check_page_advice, 'src/core/parallel_enumerate.cc',
     'madvise(rows.data(), bytes, MADV_HUGEPAGE);\n'
     'void* p = mmap(nullptr, n, PROT_READ, MAP_PRIVATE, fd, 0);\n',
     '// madvise(MADV_HUGEPAGE) via the helper\n'
     'AdviseHugePages(rows.data(), bytes);\n'),
    (check_arena_blocks, 'src/core/frep.h',
     'void* p = ::operator new(n * sizeof(T));\n'
     '::operator delete(p, n * sizeof(T));\n',
     '// ::operator new( only inside the recycler\n'
     'T* p = static_cast<T*>(AllocateArenaBlock(n * sizeof(T)));\n'
     '::new (static_cast<void*>(p)) U;\n'),
    (check_one_restructure, 'src/core/aggregate.cc',
     'cur = Swap(cur, aa, ba);\n'
     'return PushUp(in, b);\n',
     'FRep Swap(const FRep& in, AttrId a_attr, AttrId b_attr);\n'
     'target.SwapTree(a, b);\n'
     'plan.steps.push_back(PlanStep::MakeSwap(aa, ba));\n'
     'in = Restructure(in, std::move(target));\n'),
    (check_one_restructure, 'src/core/ops_merge.cc',
     'std::priority_queue<Key, std::vector<Key>, std::greater<Key>> pq;\n'
     'std::make_heap(heap.begin(), heap.end(), later);\n',
     '// merged without a std::priority_queue or make_heap(\n'
     'std::sort(heap.begin(), heap.end());\n'),
    (check_one_aggregate_algebra, 'src/core/aggregate.cc',
     'prod = MulCount(prod, c.count);\n'
     'FDB_CHECK_MSG(!U64AddOverflow(a, b, &out), kCountOverflow);\n',
     '// no MulCount( outside AggStats\n'
     'alg.Mul(c, row, count[ch], stats.data() + ch * w);\n'),
    (check_one_render_writer, 'src/serve/protocol.cc',
     '#include <sstream>\n'
     'std::ostringstream os;\n',
     '// no <sstream> here\n'
     '#include <string_view>\n'
     'RenderWriter w;\n'),
]


def self_test():
    failures = []
    for checker, relpath, bad, good in SELF_TEST_CASES:
        name = checker.__name__
        if not checker(relpath, bad):
            failures.append('%s did NOT fire on its seeded violation' % name)
        if checker(relpath, good):
            failures.append('%s fired on its clean twin' % name)
    for msg in failures:
        print('fdb_lint --self-test: %s' % msg, file=sys.stderr)
    if not failures:
        print('fdb_lint --self-test: OK (%d rules armed)' % len(CHECKERS))
    return 1 if failures else 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument('--root', default='.', help='repository root')
    ap.add_argument('--self-test', action='store_true',
                    help='verify every rule fires on a seeded violation')
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    root = Path(args.root)
    if not (root / 'src').is_dir():
        print('fdb_lint: %s does not look like the repo root (no src/)'
              % root, file=sys.stderr)
        return 2
    findings, nfiles = lint_tree(root)
    for f in findings:
        print(f)
    if findings:
        print('fdb_lint: %d finding(s) in %d files'
              % (len(findings), nfiles), file=sys.stderr)
        return 1
    print('fdb_lint: OK (%d files, %d rules)' % (nfiles, len(CHECKERS)))
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
