"""tlsdet: the D-family whole-program determinism passes.

Run through the one driver: `tools/tlslint.py [--check D1,D2,...]`.

The repo's load-bearing guarantee is that every result stream — the
figure/table rows, the golden stdout, the bench JSON — is identical
under --jobs=N and SIMD dispatch. The golden ctest label
*observes* that on a few configurations; tlsdet is the fourth
static-analysis layer (tlslint -> tlsa -> this) and *proves the
discipline* that makes it hold: it reuses tlsa's program model
(function definitions, member-typed call resolution, call closure) and
walks the closure reachable from the declared result sinks in
tools/detsinks.txt, rejecting every construct whose value depends on
something a re-run does not reproduce.

  D1  ordered-output discipline.
      On a sink path: no iteration over std::unordered_* containers
      (bucket order depends on libstdc++ version and insertion
      history), no pointer-keyed associative containers (addresses
      vary run to run), and no raw std::sort with a hand-written
      comparator (unspecified tie order). The allowlisted spellings
      live in base/detorder.h: OrderedView/OrderedKeys materialize a
      canonical order, canonicalSort sorts by a total key projection.

  D2  environment taint.
      Wall-clock reads (chrono clocks, time, gettimeofday), random
      sources (rand, random_device), getenv, thread identities and
      pointer-to-integer conversions are nondeterministic inputs; on a
      sink path they are errors unless routed through the
      stats::GlobalCounters seam (whose consumers are declared
      nondeterministic, e.g. wall_seconds) or suppressed with a
      reasoned tlsdet:allow(D2).

  D3  parallel-reduction order.
      A compound assignment to a shared variable inside an executor
      task (parallelFor argument) reduces in completion
      order. Float/double accumulation there is an error — collect
      per-index slots and det::orderedReduce after the barrier.
      Integer reductions are commutative only if *declared* so:
      `// tlsdet:commutative(var): reason`.

  D4  shard-merge commutativity.
      Functions named in tools/detmergers.txt claim order-insensitive
      merging. tlsdet checks the claim structurally (no appends to
      order-carrying containers, no non-commutative -=//= folds, no
      float accumulation) and requires each entry to appear in the
      generated permutation property test (tests/det/), which runs
      every declared merger over shuffled inputs at ctest time.

The runtime cross-check is --det-probe (base/dethash.h): benches hash
the canonical result stream per stage and the `det` ctest label
compares the digests across --jobs=1/N and --force-scalar runs;
tlsdet is the static side of the same contract.

Sink closure: the functions listed in tools/detsinks.txt, their
direct callers (the aggregation loops that feed them), and everything
those reach through resolved calls. base/detorder.h and base/dethash.h
implement the allowlisted spellings and are exempt from D1/D2 on their
own bodies.

Suppression: `// tlsdet:allow(Dn): reason` (the shared grammar in
tools/lintsupp.py; a bare allow is a hard error).

Manifests: tools/detsinks.txt (D1-D3 roots) and tools/detmergers.txt
(D4 subjects), resolved relative to --root so fixture mini-repos carry
their own. Without --require-manifests a missing file skips the
passes that need it; the CI run on the real tree requires both.
"""

import os
import re

import tlsa  # the shared program model and call resolution
from lintsupp import Diagnostic

CHECK_IDS = ("D1", "D2", "D3", "D4")

#: The allowlisted-helper implementations: their own internals (the
#: stable_sort inside canonicalSort, the mixers inside dethash) are
#: the blessed spellings, not violations.
HELPER_FILES = {"src/base/detorder.h", "src/base/dethash.h"}

#: The declared-nondeterminism seam: values routed through
#: GlobalCounters are either deterministic counters or feed fields the
#: schema declares timing-only (wall_seconds, records_per_second).
D2_SEAM_FILES = {"src/base/stats.h", "src/base/stats.cc"}

UNORDERED = {"unordered_map", "unordered_set",
             "unordered_multimap", "unordered_multiset"}
ASSOC = UNORDERED | {"map", "set", "multimap", "multiset"}

ORDERED_WRAPPERS = {"OrderedView", "OrderedKeys"}

CLOCK_QUALS = {"steady_clock", "system_clock",
               "high_resolution_clock"}
ENV_CALLS = {"clock_gettime", "gettimeofday", "getenv", "rand",
             "srand", "random", "drand48", "time"}
ADDR_INT_TYPES = {"uintptr_t", "intptr_t", "size_t", "uint64_t",
                  "u64"}

FLOAT_TYPES = {"float", "double"}
EXECUTORS = {"parallelFor"}

#: `// tlsdet:commutative(var): reason` — declares an integer
#: cross-task reduction commutative. The reason is mandatory, like the
#: allow grammar: an undeclared or unreasoned reduction stays a D3.
COMM_RE = re.compile(r"tlsdet:\s*commutative\(\s*(?P<var>\w+)\s*\)"
                     r"\s*:\s*(?P<reason>\S.*)")


# --- per-file declaration facts ------------------------------------------

class FileFacts:
    """Token-scan facts tlsdet needs beyond tlsa's model: associative-
    container declarations (with pointer-key detection), float/double
    variable names, and commutativity declarations."""

    def __init__(self):
        self.assoc = {}        # var -> (container, line, ptr_key)
        self.float_vars = set()
        self.commutative = {}  # var -> line of reasoned declaration


def scan_file_facts(fm):
    facts = FileFacts()
    code = fm.code
    n = len(code)
    for i in range(n):
        t = code[i].text
        if (t == "std" and i + 2 < n and code[i + 1].text == "::"
                and code[i + 2].text in ASSOC):
            j = i + 3
            ptr = False
            if j < n and code[j].text == "<":
                close = tlsa._match_forward(code, j, "<", ">")
                depth = 0
                for k in range(j + 1, close):
                    tk = code[k].text
                    if tk in ("<", "("):
                        depth += 1
                    elif tk in (">", ")"):
                        depth -= 1
                    elif tk == "," and depth == 0:
                        break  # pointer *keys* are the hazard; a
                        # pointer mapped value never orders anything
                    elif tk == "*" and depth == 0:
                        ptr = True
                j = close + 1
            if j < n and code[j].kind == "id":
                facts.assoc[code[j].text] = \
                    (code[i + 2].text, code[j].line, ptr)
        elif t in FLOAT_TYPES and i + 1 < n:
            j = i + 1
            while j < n and code[j].text in ("*", "&", "const"):
                j += 1
            if j < n and code[j].kind == "id" and \
                    code[j].text not in tlsa.KEYWORDS:
                facts.float_vars.add(code[j].text)
    for tok in fm.tokens:
        if tok.kind == "comment":
            m = COMM_RE.search(tok.text)
            if m:
                facts.commutative[m.group("var")] = tok.line
    return facts


# --- manifests -----------------------------------------------------------

def load_manifest(path):
    """One function qual per line, `# reason` comments; None if the
    file is absent (tools/detsinks.txt, tools/detmergers.txt)."""
    if not os.path.exists(path):
        return None
    entries = []
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if line:
                entries.append(line)
    return entries


# --- sink closure --------------------------------------------------------

def sink_closure(prog, sinks, report):
    """FuncDef-id set: declared sinks, their direct callers (the
    aggregation loops that feed them), and everything reachable from
    either through resolved calls. Keyed by object identity, not
    qual: every bench binary defines a `main`, and the per-binary
    mains must not share one call list."""
    resolved = {id(fn): [prog.resolve(c, fn) for c in fn.calls]
                for fn in prog.funcs}
    known = {q for q in sinks if q in prog.by_qual}
    for q in sinks:
        if q not in known:
            report(Diagnostic(
                "tools/detsinks.txt", 0, "D1",
                f"detsinks.txt names unknown function `{q}`"))
    sink_fns = [fn for fn in prog.funcs if fn.qual in known]
    sink_ids = {id(fn) for fn in sink_fns}
    closure = dict((id(fn), fn) for fn in sink_fns)
    for fn in prog.funcs:
        if id(fn) not in closure and \
                any(r is not None and id(r) in sink_ids
                    for r in resolved[id(fn)]):
            closure[id(fn)] = fn
    work = list(closure.values())
    while work:
        fn = work.pop()
        for callee in resolved[id(fn)]:
            if callee is not None and id(callee) not in closure:
                closure[id(callee)] = callee
                work.append(callee)
    return set(closure), resolved


# --- token helpers -------------------------------------------------------

def _compound_op(code, k):
    """Detect `<lhs> <op>= ...` at k for both engines: libclang lexes
    `+=` as one token, the built-in lexer as '+' '='. Returns
    (op_char, index of last lhs token) or (None, None)."""
    t = code[k].text
    if len(t) == 2 and t[1] == "=" and t[0] in "+-*/|&^":
        return t[0], k - 1
    if (t == "=" and k >= 1 and len(code[k - 1].text) == 1
            and code[k - 1].text in "+-*/|&^"):
        return code[k - 1].text, k - 2
    return None, None


def _range_for_colon(code, i, close):
    """For a `for` at i with parens closing at `close`, return the
    index of the range-for ':' (depth 1, not part of '::'), or None
    for a classic three-clause for."""
    depth = 0
    for k in range(i + 1, close + 1):
        tk = code[k].text
        if tk in ("(", "[", "{"):
            depth += 1
        elif tk in (")", "]", "}"):
            depth -= 1
        elif tk == ";" and depth == 1:
            return None
        elif (tk == ":" and depth == 1
              and code[k - 1].text != ":"
              and (k + 1 > close or code[k + 1].text != ":")):
            return k
    return None


# --- passes --------------------------------------------------------------

def check_d1(prog, facts_of, closure, report):
    closure_files = {fn.relpath for fn in prog.funcs
                     if id(fn) in closure}
    closure_stems = {os.path.splitext(rel)[0]
                     for rel in closure_files}

    # Pointer-keyed associative containers: flagged at the
    # declaration, in any file whose stem (header or impl) owns a
    # sink-path function — the map's ordering hazard outlives the one
    # function that happens to touch it.
    for rel in sorted(facts_of):
        if rel in HELPER_FILES:
            continue
        if os.path.splitext(rel)[0] not in closure_stems:
            continue
        for var, (container, line, ptr) in sorted(
                facts_of[rel].assoc.items()):
            if ptr:
                report(Diagnostic(
                    rel, line, "D1",
                    f"`std::{container}` `{var}` is keyed by a "
                    "pointer on a result path: addresses vary run to "
                    "run, so any iteration or comparison order over "
                    "it is irreproducible; key by a stable id"))

    for fn in prog.funcs:
        if id(fn) not in closure or fn.relpath in HELPER_FILES:
            continue
        lo, hi = fn.body
        if lo is None or hi is None:
            continue
        fm = prog.files[fn.relpath]
        facts = facts_of[fn.relpath]
        unordered = {v for v, (c, _, _) in facts.assoc.items()
                     if c in UNORDERED}
        code = fm.code
        i = lo
        while i < hi:
            t = code[i].text
            if t == "for" and i + 1 < hi and \
                    code[i + 1].text == "(":
                close = tlsa._match_forward(code, i + 1, "(", ")")
                colon = _range_for_colon(code, i, close)
                if colon is not None:
                    span = code[colon + 1:close]
                    names = {tk.text for tk in span}
                    if not names & ORDERED_WRAPPERS:
                        for tk in span:
                            if tk.text in unordered:
                                report(Diagnostic(
                                    fn.relpath, tk.line, "D1",
                                    f"iteration over "
                                    f"`std::"
                                    f"{facts.assoc[tk.text][0]}` "
                                    f"`{tk.text}` in "
                                    f"`{fn.qual}` on a result path: "
                                    "bucket order is not "
                                    "reproducible; wrap in "
                                    "det::OrderedView/OrderedKeys "
                                    "(base/detorder.h)"))
                                break
                    i = colon + 1
                    continue
                i = i + 2
                continue
            # `.begin()` starts an iteration (`find() != end()` is an
            # order-independent lookup, so bare `.end()` is fine).
            if t in ("begin", "cbegin") and \
                    i + 1 < hi and code[i + 1].text == "(" and \
                    i >= 2 and code[i - 1].text in (".", "->"):
                recv = code[i - 2].text
                if recv in unordered:
                    report(Diagnostic(
                        fn.relpath, code[i].line, "D1",
                        f"`{recv}.{t}()` in `{fn.qual}` iterates a "
                        f"`std::{facts.assoc[recv][0]}` on a result "
                        "path: bucket order is not reproducible; "
                        "wrap in det::OrderedView/OrderedKeys"))
            if t in ("sort", "stable_sort") and i + 1 < hi and \
                    code[i + 1].text == "(":
                close = tlsa._match_forward(code, i + 1, "(", ")")
                depth = 0
                commas = 0
                for k in range(i + 2, close):
                    tk = code[k].text
                    if tk in ("(", "[", "{"):
                        depth += 1
                    elif tk in (")", "]", "}"):
                        depth -= 1
                    elif tk == "," and depth == 0:
                        commas += 1
                if commas >= 2:
                    report(Diagnostic(
                        fn.relpath, code[i].line, "D1",
                        f"raw std::{t} with a hand-written "
                        f"comparator in `{fn.qual}` on a result "
                        "path: equal elements land in unspecified "
                        "order; use det::canonicalSort with a total "
                        "key projection (base/detorder.h)"))
                i = close + 1
                continue
            i += 1


def check_d2(prog, closure, report):
    for fn in prog.funcs:
        if id(fn) not in closure:
            continue
        if fn.relpath in D2_SEAM_FILES or fn.relpath in HELPER_FILES:
            continue
        remedy = ("; route it through stats::GlobalCounters (the "
                  "declared-nondeterministic seam) or justify with "
                  "tlsdet:allow(D2)")
        for cs in fn.calls:
            what = None
            if cs.name == "now" and set(cs.quals) & CLOCK_QUALS:
                what = "wall-clock read"
            elif cs.name in ENV_CALLS and not cs.recv and \
                    (not cs.quals or cs.quals[-1] == "std"):
                what = f"environment read `{cs.name}()`"
            elif cs.name == "random_device":
                what = "hardware entropy (`std::random_device`)"
            elif cs.name == "get_id" and \
                    ("this_thread" in cs.quals or cs.recv):
                what = "thread identity"
            if what:
                report(Diagnostic(
                    fn.relpath, cs.line, "D2",
                    f"{what} in `{fn.qual}` flows into a result "
                    f"path{remedy}"))
        lo, hi = fn.body
        if lo is None or hi is None:
            continue
        code = prog.files[fn.relpath].code
        for k in range(lo, hi):
            if code[k].text == "reinterpret_cast" and k + 1 < hi \
                    and code[k + 1].text == "<":
                close = tlsa._match_forward(code, k + 1, "<", ">")
                inner = {c.text for c in code[k + 2:close]}
                if inner & ADDR_INT_TYPES:
                    report(Diagnostic(
                        fn.relpath, code[k].line, "D2",
                        f"pointer value converted to an integer in "
                        f"`{fn.qual}` on a result path: addresses "
                        f"vary run to run{remedy}"))


def check_d3(prog, facts_of, closure, report):
    for fn in prog.funcs:
        if id(fn) not in closure or fn.relpath in HELPER_FILES:
            continue
        fm = prog.files[fn.relpath]
        facts = facts_of[fn.relpath]
        code = fm.code
        for cs in fn.calls:
            if cs.name not in EXECUTORS:
                continue
            if cs.tok + 1 >= len(code) or \
                    code[cs.tok + 1].text != "(":
                continue
            close = tlsa._match_forward(code, cs.tok + 1, "(", ")")
            span = range(cs.tok + 2, close)
            # Names *declared* inside the task body are task-local:
            # `u64 h = 0; h += ...` is private accumulation.
            local = set()
            for k in span:
                if (code[k].kind == "id"
                        and code[k].text not in tlsa.KEYWORDS
                        and k >= 1 and code[k - 1].kind == "id"
                        and code[k - 1].text != "return"):
                    local.add(code[k].text)
            for k in span:
                op, lhs = _compound_op(code, k)
                if op is None or lhs < 0:
                    continue
                if code[lhs].kind != "id":
                    continue  # `slots[i] += x`: per-index slot, the
                    # pattern orderedReduce folds after the barrier
                name = code[lhs].text
                if name in local or name in tlsa.KEYWORDS:
                    continue
                if name in facts.float_vars:
                    report(Diagnostic(
                        fn.relpath, code[lhs].line, "D3",
                        f"float accumulation `{name} {op}= ...` "
                        f"inside an executor task in `{fn.qual}`: "
                        "completion order changes the sum; collect "
                        "per-index slots and det::orderedReduce "
                        "after the barrier"))
                elif name not in facts.commutative:
                    report(Diagnostic(
                        fn.relpath, code[lhs].line, "D3",
                        f"cross-task reduction `{name} {op}= ...` "
                        f"in `{fn.qual}` is not declared "
                        "commutative; add `// tlsdet:commutative("
                        f"{name}): <why>` if it is, or reduce "
                        "index-ordered slots after the barrier"))


def check_d4(prog, facts_of, mergers, root, report):
    corpus = ""
    det_dir = os.path.join(root, "tests", "det")
    if os.path.isdir(det_dir):
        for f in sorted(os.listdir(det_dir)):
            if f.endswith((".cc", ".cpp", ".h")):
                with open(os.path.join(det_dir, f),
                          encoding="utf-8", errors="replace") as fh:
                    corpus += fh.read()
    for qual in mergers:
        fn = prog.by_qual.get(qual)
        if fn is None:
            report(Diagnostic(
                "tools/detmergers.txt", 0, "D4",
                f"detmergers.txt names unknown function `{qual}`"))
            continue
        facts = facts_of[fn.relpath]
        lo, hi = fn.body
        code = prog.files[fn.relpath].code
        if lo is not None and hi is not None:
            for k in range(lo, hi):
                t = code[k].text
                if t in ("push_back", "emplace_back") and \
                        k + 1 < hi and code[k + 1].text == "(":
                    report(Diagnostic(
                        fn.relpath, code[k].line, "D4",
                        f"declared-commutative merger `{qual}` "
                        "appends to an order-carrying container: "
                        "shard arrival order becomes result order"))
                op, lhs = _compound_op(code, k)
                if op in ("-", "/") and lhs >= 0:
                    report(Diagnostic(
                        fn.relpath, code[k].line, "D4",
                        f"declared-commutative merger `{qual}` "
                        f"folds with non-commutative `{op}=`"))
                elif op == "+" and lhs >= 0 and \
                        code[lhs].kind == "id" and \
                        code[lhs].text in facts.float_vars:
                    report(Diagnostic(
                        fn.relpath, code[k].line, "D4",
                        f"declared-commutative merger `{qual}` "
                        "accumulates a float: addition does not "
                        "associate, so shard order changes the sum"))
        if qual not in corpus:
            report(Diagnostic(
                fn.relpath, fn.line, "D4",
                f"merge function `{qual}` has no permutation "
                "property test: add it to the registry in "
                "tests/det/merge_perm_test.cc (d4-untested)"))


# --- family entry point --------------------------------------------------

def run(an, enabled, report):
    prog, root = an.prog, an.root
    facts_of = {rel: scan_file_facts(fm) for rel, fm in prog.files.items()}
    sinks = load_manifest(os.path.join(root, "tools", "detsinks.txt"))
    mergers = load_manifest(os.path.join(root, "tools",
                                         "detmergers.txt"))
    if sinks is None and an.require_manifests:
        report(Diagnostic(
            "tools/detsinks.txt", 0, "D1",
            "missing manifest: declare the result sinks D1-D3 "
            "analyze from (--require-manifests)"))
    if mergers is None and an.require_manifests:
        report(Diagnostic(
            "tools/detmergers.txt", 0, "D4",
            "missing manifest: declare the shard-merge functions "
            "(or none) explicitly (--require-manifests)"))

    if sinks is not None:
        closure, _ = sink_closure(prog, sinks, report)
        if "D1" in enabled:
            check_d1(prog, facts_of, closure, report)
        if "D2" in enabled:
            check_d2(prog, closure, report)
        if "D3" in enabled:
            check_d3(prog, facts_of, closure, report)
    if mergers is not None and "D4" in enabled:
        check_d4(prog, facts_of, mergers, root, report)
