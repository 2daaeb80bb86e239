"""tlslife: the P-family object-lifetime & recycle passes.

Run through the one driver: `tools/tlslint.py [--check P1,P2,...]`.

The replay hot path never frees anything: it *recycles*. LineSet and
L2Cache invalidate en masse by bumping a generation stamp, EpochRun
objects cycle through TlsMachine's pool via acquireRun/releaseRun,
SpecState reuses flat slot arenas, the tracer hands capture buffers
back and forth. Use-after-recycle is therefore invisible to every
dynamic layer we have — ASan never sees a free, TSan never sees a
race, the I1-I6 auditor only fires after stale state has already
corrupted the protocol. tlslife is the fifth static-analysis layer
(tlslint -> tlsa -> tlsdet -> TSA -> this): it reuses tlsa's program
model (member-typed call resolution, base-class member inheritance,
function bodies and call sites) and proves the recycle discipline
structurally.

  P1  generation-guard discipline.
      In the methods of a generation-stamped class (one declaring a
      `gen_` counter): a read of a `.valid` flag with no generation
      comparison in the surrounding expression is a stale-entry read
      waiting for the first reset (the blessed spelling is `live()`:
      `e.valid && e.gen == gen_`); an ordering comparison between
      generation stamps (`e.gen < gen_`) mis-orders across wrap; and
      a bare `++gen_` on a counter narrower than 64 bits, in a body
      with no wrap test (`== 0` / re-seed `gen_ = 1`), resurrects
      every pre-wrap entry after 2^32 resets — lineset.h's clear()
      is the model answer.

  P2  reset completeness.
      For every pooled type declared in tools/poolreset.txt, the
      fields assigned during checkout lifetime (own-method writes
      plus receiver-writes from client code) are structurally diffed
      against the identifiers reachable from the declared reset
      method (transitively through same-class calls). A field
      written but never restored leaks state into the next checkout:
      reset it or declare `persist Class.field # why staleness is
      safe`. A declared verify method (the poison-mode
      assertRecycled) must mention every recycled field too, so the
      runtime cross-check cannot silently fall behind the type.

  P3  pooled-storage escape.
      Borrowed pointers/references to pooled objects (locals,
      parameters, acquire-call results) may not outlive the pool:
      using one after the declared release call, storing one into a
      member, returning references into pooled internals, or
      capturing one in a queued executor task is an error unless the
      member is a declared `owner` or the method a declared `view`.

  P4  reference invalidation.
      A reference/pointer bound into a growable container
      (`T &x = xs[i]`, `.back()`, `.data()`) and used after a call
      that may reallocate it (push_back/resize/clear/swap, directly
      or through a same-class callee) dangles. Composes with tlsa
      A3's reserve discipline: appends to a capacity-reserved
      container are trusted not to reallocate; everything else
      invalidates.

The runtime cross-check is TLSIM_POISON (base/poison.h): release
paths scribble canaries into recycled storage and assert on stale
access, so whatever slips past the static rules aborts the first
time it is exercised. DESIGN.md §4.10 has the catch-bound table.

Suppression: `// tlslife:allow(Pn): reason` (the shared grammar in
tools/lintsupp.py; a bare allow is a hard error).

Manifest: tools/poolreset.txt, resolved relative to --root so the
fixture mini-repos carry their own. Grammar (reasons mandatory where
shown):

  pooled <Class> reset=<m> [verify=<m>] [acquire=<f>] [release=<f>]
  persist <Class>.<field>   # why stale contents are safe
  view <Class>::<method>    # why the escaping reference is sound
  owner <Class>.<member>    # why this member may hold pooled objects

Without --require-manifests a missing manifest skips P2/P3 (P1/P4
need no declarations and always run); the CI run on the real tree
requires it. The manifest census (pooled types, persistent fields,
views) rides in the driver's `--json` staticanalysis block.
"""

import os

import tlsa  # the shared program model and call resolution
from lintsupp import Diagnostic

CHECK_IDS = ("P1", "P2", "P3", "P4")

MANIFEST_REL = os.path.join("tools", "poolreset.txt")

#: Container methods that rewrite their receiver's contents — the
#: write vocabulary P2 counts against the reset diff.
MUTATORS = {"clear", "assign", "resize", "push_back", "emplace_back",
            "insert", "erase", "reserve", "pop_back", "emplace",
            "fill", "swap", "shrink_to_fit"}

#: Container methods that may move the element storage — the P4
#: invalidation vocabulary (clear/erase/pop_back do not reallocate
#: but do destroy the referent, which dangles just as hard).
GROWERS = {"push_back", "emplace_back", "resize", "insert", "emplace",
           "assign", "reserve", "clear", "erase", "pop_back",
           "shrink_to_fit"}

#: Appends A3's reserve discipline vouches for: when the receiver is
#: capacity-reserved in the same function, these stay in place.
RESERVED_SAFE = {"push_back", "emplace_back"}

#: Accessors whose result points into the receiver's element storage.
INTO_STORAGE = {"back", "front", "data", "begin", "end", "cbegin",
                "cend", "rbegin", "rend"}

#: Task-queueing entry points for the P3 capture rule (tlsdet's D3
#: executors plus plain submission).
EXECUTORS = {"parallelFor", "submit"}

#: Generation-counter types narrow enough that wrap is reachable in a
#: long simulation (uint64 needs ~585 years of resets at 1 GHz).
NARROW_GEN_TYPES = {"uint32_t", "uint16_t", "uint8_t", "u32", "u16",
                    "u8", "unsigned", "int", "uint32"}


# --- manifest ------------------------------------------------------------

class PoolManifest:
    def __init__(self):
        self.pooled = {}   # cls -> {reset, verify, acquire, release,
        #                            line}
        self.persist = {}  # (cls, field) -> (reason, line)
        self.views = {}    # (cls, method) -> (reason, line)
        self.owners = {}   # (cls, member) -> (reason, line)
        self.errors = []   # (line, message)


def load_poolreset(path):
    """tools/poolreset.txt, or None if absent. Reasons ride in the
    `# ...` comment and are mandatory for persist/view/owner: every
    exemption from the lifetime rules must say why it is sound."""
    if not os.path.exists(path):
        return None
    man = PoolManifest()
    with open(path, encoding="utf-8") as f:
        for num, raw in enumerate(f, 1):
            body, _, comment = raw.partition("#")
            line = body.strip()
            reason = comment.strip()
            if not line:
                continue
            parts = line.split()
            kw = parts[0]
            if kw == "pooled" and len(parts) >= 3:
                entry = {"reset": None, "verify": None,
                         "acquire": None, "release": None,
                         "line": num}
                ok = True
                for p in parts[2:]:
                    k, eq, v = p.partition("=")
                    if eq and v and k in ("reset", "verify",
                                          "acquire", "release"):
                        entry[k] = v
                    else:
                        ok = False
                if ok and entry["reset"]:
                    man.pooled[parts[1]] = entry
                else:
                    man.errors.append((num, (
                        f"malformed pooled line `{line}`: need "
                        "`pooled <Class> reset=<method> [verify=<m>]"
                        " [acquire=<f>] [release=<f>]`")))
            elif kw == "persist" and len(parts) == 2 and \
                    "." in parts[1]:
                cls, _, field = parts[1].partition(".")
                if not reason:
                    man.errors.append((num, (
                        f"persist {parts[1]} without a `# reason`: "
                        "a field exempt from the reset diff must say "
                        "why stale contents are safe")))
                else:
                    man.persist[(cls, field)] = (reason, num)
            elif kw == "view" and len(parts) == 2 and \
                    "::" in parts[1]:
                cls, _, meth = parts[1].partition("::")
                if not reason:
                    man.errors.append((num, (
                        f"view {parts[1]} without a `# reason`: an "
                        "escaping reference must say why its "
                        "lifetime is sound")))
                else:
                    man.views[(cls, meth)] = (reason, num)
            elif kw == "owner" and len(parts) == 2 and \
                    "." in parts[1]:
                cls, _, mem = parts[1].partition(".")
                if not reason:
                    man.errors.append((num, (
                        f"owner {parts[1]} without a `# reason`: a "
                        "member holding pooled objects must say why "
                        "it owns them")))
                else:
                    man.owners[(cls, mem)] = (reason, num)
            else:
                man.errors.append((num, (
                    f"unrecognized manifest line `{line}`")))
    return man


# --- token helpers -------------------------------------------------------

def _is_incr_at(code, k, hi):
    """True when code[k] starts ++ or -- under either engine's
    lexing (libclang: one token; built-in lexer: two)."""
    t = code[k].text
    if t in ("++", "--"):
        return True
    return (t in ("+", "-") and k + 1 < hi
            and code[k + 1].text == t)


def _chain_end(code, k, hi):
    """Walk a postfix chain starting at id code[k]: subscripts and
    member selects. Returns (ids, j) where ids are the chain's
    identifier tokens in order and j indexes the first token past
    the chain (an operator, '(', ';', ...)."""
    ids = [code[k]]
    j = k + 1
    while j < hi:
        if code[j].text == "[":
            j = tlsa._match_forward(code, j, "[", "]") + 1
        elif code[j].text in (".", "->") and j + 1 < hi and \
                code[j + 1].kind == "id":
            ids.append(code[j + 1])
            j += 2
        else:
            break
    return ids, j


def _write_op_at(code, j, hi):
    """Classify the token at j as a write operator: returns '=' for
    plain assignment, the op char for compound assignment, '++'/'--'
    for postfix bump, or None."""
    if j >= hi:
        return None
    t = code[j].text
    if t == "=" and (j + 1 >= hi or code[j + 1].text != "="):
        return "="
    if len(t) == 2 and t[1] == "=" and t[0] in "+-*/|&^%":
        return t[0]
    if t in "+-*/|&^%" and j + 1 < hi and code[j + 1].text == "=":
        return t
    if t in ("++", "--"):
        return t
    if t in ("+", "-") and j + 1 < hi and code[j + 1].text == t:
        return t + t
    return None


def collect_writes(code, lo, hi):
    """Structural write events in code[lo:hi): (field, line,
    through_receiver) triples. A write is a plain or compound
    assignment, an increment/decrement (either side), a mutating
    container call, or being handed to swap(). For a chained lvalue
    (`run->cps[0].pc = v`) every identifier on the chain is
    reported — the leaf field and the containers holding it are all
    rewritten."""
    out = []
    k = lo
    while k < hi:
        tok = code[k]
        # Prefix ++x / ++recv.field.
        if _is_incr_at(code, k, hi):
            j = k + (1 if tok.text in ("++", "--") else 2)
            if j < hi and code[j].kind == "id" and \
                    code[j].text not in tlsa.KEYWORDS:
                ids, _ = _chain_end(code, j, hi)
                for pos, t in enumerate(ids):
                    out.append((t.text, t.line, pos > 0))
                k = j + 1
                continue
            k = j
            continue
        if tok.kind != "id" or tok.text in tlsa.KEYWORDS:
            k += 1
            continue
        prev = code[k - 1].text if k > 0 else ""
        if prev in (".", "->"):
            k += 1  # chain interior: handled from the chain head
            continue
        # Argument of a swap() call: both sides are rewritten.
        if prev in ("(", ","):
            b = k - 1
            depth = 0
            while b > 0:
                tb = code[b].text
                if tb == ")":
                    depth += 1
                elif tb == "(":
                    if depth == 0:
                        break
                    depth -= 1
                b -= 1
            if b > 0 and code[b - 1].text == "swap":
                out.append((tok.text, tok.line, False))
        ids, j = _chain_end(code, k, hi)
        if j < hi and code[j].text == "(":
            if len(ids) >= 2 and ids[-1].text in MUTATORS:
                t = ids[-2]
                out.append((t.text, t.line, len(ids) > 2))
            k = j
            continue
        if _write_op_at(code, j, hi) is not None:
            for pos, t in enumerate(ids):
                out.append((t.text, t.line, pos > 0))
        k = j if j > k else k + 1
    return out


def swap_growths(code, lo, hi):
    """(name, idx, line) for identifiers handed to swap() — the one
    mutator whose receiver-based detection misses its argument."""
    out = []
    for k in range(lo, hi):
        if code[k].kind != "id" or code[k].text in tlsa.KEYWORDS:
            continue
        if code[k - 1].text not in ("(", ","):
            continue
        b = k - 1
        depth = 0
        while b > lo:
            tb = code[b].text
            if tb == ")":
                depth += 1
            elif tb == "(":
                if depth == 0:
                    break
                depth -= 1
            b -= 1
        if b > lo and code[b - 1].text == "swap":
            out.append((code[k].text, k, code[k].line))
    return out


def mention_closure(prog, fn, cls):
    """(names, fn_ids): every identifier mentioned by `fn` or by a
    same-class method it transitively calls — reset() delegating to
    smRow() still restores what smRow touches."""
    names = set()
    seen = set()
    work = [fn]
    while work:
        f = work.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        if f.body is None or f.body[1] is None:
            continue
        lo, hi = f.body
        code = prog.files[f.relpath].code
        for k in range(lo, hi):
            if code[k].kind == "id":
                names.add(code[k].text)
        for c in f.calls:
            callee = prog.resolve(c, f)
            if callee is not None and callee.cls == cls:
                work.append(callee)
    return names, seen


def _returns_ref_or_ptr(prog, fn):
    """True when the declared return type carries `*` or `&`: a
    backwards scan from the function name to the previous statement
    boundary (qualifier chains carry neither)."""
    if fn.sig is None:
        return False
    code = prog.files[fn.relpath].code
    b = fn.sig[0] - 2  # token before the function name
    while b >= 1 and code[b].text == "::" and \
            code[b - 1].kind == "id":
        b -= 2
    while b >= 0 and code[b].text not in (";", "{", "}", ":"):
        if code[b].text in ("*", "&"):
            return True
        b -= 1
    return False


# --- P1: generation-guard discipline -------------------------------------

def _has_wrap_guard(code, lo, hi):
    """True when the body tests the counter for wrap (`gen_ == 0`)
    or re-seeds it (`gen_ = 1`) — the lineset.h clear() idiom."""
    for k in range(lo, hi - 2):
        if code[k].text != "gen_":
            continue
        a, b = code[k + 1].text, code[k + 2].text
        if a == "==" and b == "0":
            return True
        if a == "=" and b == "=" and k + 3 < hi and \
                code[k + 3].text == "0":
            return True
        if a == "=" and b == "1":
            return True
    return False


def check_p1(prog, report):
    gen_classes = {}
    for (cls, member), mtype in prog.member_types.items():
        if member == "gen_":
            gen_classes[cls] = mtype
    for fn in prog.funcs:
        if fn.cls not in gen_classes or fn.body is None or \
                fn.body[1] is None:
            continue
        lo, hi = fn.body
        code = prog.files[fn.relpath].code
        narrow = gen_classes[fn.cls] in NARROW_GEN_TYPES
        guarded = _has_wrap_guard(code, lo, hi)
        for k in range(lo, hi):
            t = code[k].text
            if t not in ("gen", "gen_", "valid"):
                continue
            prev = code[k - 1].text if k > lo else ""
            nxt = code[k + 1].text if k + 1 < hi else ""
            nxt2 = code[k + 2].text if k + 2 < hi else ""
            if t == "gen_" and narrow and not guarded:
                bumped = (
                    prev in ("++", "--")
                    or (prev in ("+", "-") and k >= 2
                        and code[k - 2].text == prev)
                    or nxt in ("++", "--")
                    or (nxt in ("+", "-") and nxt2 == nxt)
                    or (len(nxt) == 2 and nxt[1] == "="
                        and nxt[0] in "+-")
                    or (nxt in ("+", "-") and nxt2 == "="))
                if bumped:
                    report(Diagnostic(
                        fn.relpath, code[k].line, "P1",
                        f"`{fn.qual}` bumps the "
                        f"{gen_classes[fn.cls]} generation counter "
                        "with no wrap handling: after 2^32 resets "
                        "the stamp wraps and every pre-wrap entry "
                        "reads as live again; mirror "
                        "LineSet::clear() — on wrap, wipe the slots "
                        "and re-seed `gen_ = 1`"))
            if t in ("gen", "gen_"):
                ordering = None
                if nxt in ("<=", ">="):
                    ordering = nxt
                elif nxt in ("<", ">") and nxt2 != nxt:
                    ordering = nxt if nxt2 != "=" else nxt + "="
                if ordering is not None:
                    window = {code[m].text
                              for m in range(k + 2,
                                             min(k + 8, hi))}
                    if {"gen", "gen_"} & window:
                        report(Diagnostic(
                            fn.relpath, code[k].line, "P1",
                            f"`{fn.qual}` orders generation stamps "
                            f"with `{ordering}`: stamp comparison "
                            "is only wrap-safe for equality; "
                            "compare `== gen_` (the live() "
                            "spelling) instead"))
            if t == "valid" and prev in (".", "->"):
                wrote = _write_op_at(code, k + 1, hi)
                if wrote is not None:
                    continue
                wlo = max(lo, k - 8)
                whi = min(hi, k + 8)
                window = {code[m].text for m in range(wlo, whi)}
                if not ({"gen", "gen_", "live"} & window):
                    report(Diagnostic(
                        fn.relpath, code[k].line, "P1",
                        f"`{fn.qual}` reads `.valid` with no "
                        "generation comparison in the surrounding "
                        "expression: a stale entry keeps "
                        "valid=true across resets; use the blessed "
                        "liveness check (`live()`: `e.valid && "
                        "e.gen == gen_`)"))


# --- P2: reset completeness ----------------------------------------------

def check_p2(prog, man, report):
    for (num, msg) in man.errors:
        report(Diagnostic(MANIFEST_REL, num, "P2", msg))
    for cls in sorted(man.pooled):
        info = man.pooled[cls]
        members = prog.members_of(cls)
        if not members and cls not in prog.classes:
            report(Diagnostic(
                MANIFEST_REL, info["line"], "P2",
                f"poolreset.txt declares unknown pooled type "
                f"`{cls}`"))
            continue
        reset_fn = prog.by_qual.get(f"{cls}::{info['reset']}")
        if reset_fn is None:
            report(Diagnostic(
                MANIFEST_REL, info["line"], "P2",
                f"pooled `{cls}` names unknown reset method "
                f"`{cls}::{info['reset']}`"))
            continue
        restored, skip_ids = mention_closure(prog, reset_fn, cls)
        verified = None
        if info["verify"]:
            verify_fn = prog.by_qual.get(f"{cls}::{info['verify']}")
            if verify_fn is None:
                report(Diagnostic(
                    MANIFEST_REL, info["line"], "P2",
                    f"pooled `{cls}` names unknown verify method "
                    f"`{cls}::{info['verify']}`"))
            else:
                verified, vids = mention_closure(prog, verify_fn,
                                                 cls)
                skip_ids |= vids
        written = {}  # field -> (fn, line) first witness
        for fn in prog.funcs:
            if fn.body is None or fn.body[1] is None:
                continue
            if id(fn) in skip_ids:
                continue
            if fn.cls == cls and (fn.name == cls
                                  or fn.name.startswith("~")):
                continue  # construction is not checkout lifetime
            lo, hi = fn.body
            code = prog.files[fn.relpath].code
            for name, line, prefixed in collect_writes(code, lo, hi):
                if name not in members:
                    continue
                if fn.cls == cls or prefixed:
                    written.setdefault(name, (fn, line))
        for field in sorted(written):
            if (cls, field) in man.persist:
                continue
            wfn, wline = written[field]
            _, drel, dline = members[field]
            where = (drel, dline) if drel else (wfn.relpath, wline)
            if field not in restored:
                report(Diagnostic(
                    where[0], where[1], "P2",
                    f"`{cls}::{field}` is written during checkout "
                    f"(e.g. in `{wfn.qual}` at {wfn.relpath}:"
                    f"{wline}) but never restored by "
                    f"`{cls}::{info['reset']}`: a recycled {cls} "
                    "leaks it into the next checkout; reset it or "
                    f"declare `persist {cls}.{field}  # <why "
                    "staleness is safe>` in tools/poolreset.txt"))
            elif verified is not None and field not in verified:
                report(Diagnostic(
                    where[0], where[1], "P2",
                    f"`{cls}::{field}` is recycled but the "
                    f"declared verify method "
                    f"`{cls}::{info['verify']}` never checks it: "
                    "the poison-mode cross-check has fallen behind "
                    "the type; assert on it or declare it persist"))
    for (cls, field), (_, num) in sorted(man.persist.items()):
        if cls in man.pooled:
            members = prog.members_of(cls)
            if members and field not in members:
                report(Diagnostic(
                    MANIFEST_REL, num, "P2",
                    f"persist names unknown field `{cls}.{field}`"))


# --- P3: pooled-storage escape -------------------------------------------

def _stores_handle(code, span, hi, names):
    """True when an identifier from `names` appears in the token
    span *as a handle* — not dereferenced. `runs_[cpu] = move(run)`
    stores the pooled object; `cpuSeqs_[cpu] = runs_[cpu]->seq`
    copies a value out of it, which escapes nothing."""
    for m in span:
        if code[m].kind != "id" or code[m].text not in names:
            continue
        j = m + 1
        while j < hi and code[j].text == "[":
            j = tlsa._match_forward(code, j, "[", "]") + 1
        if j < hi and code[j].text in (".", "->"):
            continue
        return True
    return False


def _pooled_handles(prog, fn, man):
    """name -> (cls, decl_line) for this function's borrowed pooled
    handles: `C *x` / `C &x` declarations (params included) and
    locals assigned from a declared acquire call. unique_ptr<C>
    owners are deliberately untracked — ownership transfer out of
    the pool is the one sanctioned escape."""
    handles = {}
    code = prog.files[fn.relpath].code
    spans = []
    if fn.sig is not None:
        spans.append(fn.sig)
    if fn.body is not None and fn.body[1] is not None:
        spans.append(fn.body)
    acquires = {i["acquire"]: c for c, i in man.pooled.items()
                if i["acquire"]}
    for lo, hi in spans:
        for k in range(lo, hi):
            t = code[k].text
            if t in man.pooled:
                prev = code[k - 1].text if k > 0 else ""
                if prev in ("<", "::"):
                    continue  # template argument / nested name
                j = k + 1
                indirect = False
                while j < hi and code[j].text in ("*", "&", "const"):
                    if code[j].text in ("*", "&"):
                        indirect = True
                    j += 1
                if indirect and j < hi and code[j].kind == "id" \
                        and code[j].text not in tlsa.KEYWORDS:
                    handles[code[j].text] = (t, code[j].line)
            elif t in acquires and k + 1 < hi and \
                    code[k + 1].text == "(":
                b = k - 1
                steps = 0
                while b > lo and steps < 6 and \
                        code[b].text not in (";", "{", "}", "="):
                    b -= 1
                    steps += 1
                if b > lo and code[b].text == "=" and \
                        code[b - 1].kind == "id":
                    handles[code[b - 1].text] = \
                        (acquires[t], code[b - 1].line)
    return handles


def check_p3(prog, man, report):
    for (cls, meth), (_, num) in sorted(man.views.items()):
        if prog.by_qual.get(f"{cls}::{meth}") is None:
            report(Diagnostic(
                MANIFEST_REL, num, "P3",
                f"view names unknown method `{cls}::{meth}`"))
    for (cls, mem), (_, num) in sorted(man.owners.items()):
        members = prog.members_of(cls)
        if members and mem not in members:
            report(Diagnostic(
                MANIFEST_REL, num, "P3",
                f"owner names unknown member `{cls}.{mem}`"))

    releases = {i["release"] for i in man.pooled.values()
                if i["release"]}
    rel_class = {i["release"]: c for c, i in man.pooled.items()
                 if i["release"]}
    acquires = {i["acquire"] for i in man.pooled.values()
                if i["acquire"]}

    for fn in prog.funcs:
        if fn.body is None or fn.body[1] is None:
            continue
        lo, hi = fn.body
        code = prog.files[fn.relpath].code
        handles = _pooled_handles(prog, fn, man)
        own_members = prog.members_of(fn.cls) if fn.cls else {}
        owned = {m for (c, m) in man.owners if c == fn.cls}

        # (a) use after the declared release call.
        rel_spans = []
        for k in range(lo, hi):
            if code[k].text in releases and k + 1 < hi and \
                    code[k + 1].text == "(":
                rel_spans.append(
                    (k, tlsa._match_forward(code, k + 1, "(", ")")))
        if rel_spans and handles:
            assigns = {}  # name -> sorted indices of reassignment
            uses = {}     # name -> [(idx, line)]
            for k in range(lo, hi):
                t = code[k].text
                if t not in handles:
                    continue
                if code[k - 1].text in (".", "->"):
                    continue  # a field named like the handle
                if k + 1 < hi and code[k + 1].text == "=" and \
                        (k + 2 >= hi or code[k + 2].text != "="):
                    assigns.setdefault(t, []).append(k)
                    continue
                if any(s <= k <= e for s, e in rel_spans):
                    continue  # the release call's own argument
                uses.setdefault(t, []).append((k, code[k].line))
            for name, sites in sorted(uses.items()):
                cls = handles[name][0]
                relevant = [s for s, _ in rel_spans
                            if rel_class.get(code[s].text) == cls]
                for k, line in sites:
                    before = [r for r in relevant if r < k]
                    if not before:
                        continue
                    r = max(before)
                    if any(r < a < k
                           for a in assigns.get(name, [])):
                        continue
                    report(Diagnostic(
                        fn.relpath, line, "P3",
                        f"`{name}` (a borrowed {cls}) is used "
                        f"after `{code[r].text}()` returned it to "
                        f"the pool at line {code[r].line}: the "
                        "object may already be recycled into "
                        "another checkout; use it before the "
                        "release, or re-acquire"))
                    break  # one diagnostic per handle is enough

        # (b) pooled handle stored into a member.
        if fn.cls and own_members:
            k = lo
            while k < hi:
                tok = code[k]
                if tok.kind != "id" or \
                        tok.text not in own_members or \
                        code[k - 1].text in (".", "->"):
                    k += 1
                    continue
                member = tok.text
                ids, j = _chain_end(code, k, hi)
                span = None
                if j < hi and code[j].text == "=" and \
                        (j + 1 >= hi or code[j + 1].text != "="):
                    end = j
                    while end < hi and code[end].text != ";":
                        end += 1
                    span = range(j + 1, end)
                elif j < hi and code[j].text == "(" and \
                        len(ids) >= 2 and ids[-1].text in (
                            "push_back", "emplace_back", "insert",
                            "emplace", "assign"):
                    member = ids[0].text
                    span = range(j + 1,
                                 tlsa._match_forward(code, j,
                                                     "(", ")"))
                if span is not None:
                    if _stores_handle(code, span, hi,
                                      set(handles) | owned):
                        if (fn.cls, member) not in man.owners:
                            report(Diagnostic(
                                fn.relpath, tok.line, "P3",
                                f"`{fn.cls}::{member}` stores a "
                                "pooled object (or a handle to "
                                f"one) in `{fn.qual}`: the member "
                                "outlives the checkout; declare "
                                f"`owner {fn.cls}.{member}  # "
                                "<why>` in tools/poolreset.txt if "
                                "this member is pool storage"))
                    k = span.stop if span.stop > k else k + 1
                    continue
                k += 1

        # (c) returning a reference into pooled storage.
        if _returns_ref_or_ptr(prog, fn) and \
                fn.name not in acquires and \
                fn.name not in releases and \
                (fn.cls, fn.name) not in man.views:
            pooled_members = set(own_members) \
                if fn.cls in man.pooled else set()
            ref_into = set()
            if pooled_members:
                for k in range(lo, hi):
                    if code[k].kind == "id" and \
                            code[k - 1].text in ("&", "*") and \
                            k + 1 < hi and code[k + 1].text == "=":
                        end = k + 2
                        while end < hi and code[end].text != ";":
                            end += 1
                        init = {code[m].text
                                for m in range(k + 2, end)}
                        if init & pooled_members:
                            ref_into.add(code[k].text)
            suspects = pooled_members | ref_into | \
                set(handles) | owned
            if suspects:
                for k in range(lo, hi):
                    if code[k].text != "return":
                        continue
                    end = k + 1
                    while end < hi and code[end].text != ";":
                        end += 1
                    names = {code[m].text
                             for m in range(k + 1, end)}
                    if names & suspects:
                        leaked = sorted(names & suspects)[0]
                        report(Diagnostic(
                            fn.relpath, code[k].line, "P3",
                            f"`{fn.qual}` returns a "
                            "pointer/reference into pooled "
                            f"storage (`{leaked}`): the referent "
                            "dies at the next recycle; declare "
                            f"`view {fn.cls}::{fn.name}  # <why "
                            "callers cannot outlive it>` in "
                            "tools/poolreset.txt if the borrow "
                            "is consumed immediately"))
                        break

        # (d) pooled handle captured by a queued executor task.
        if handles:
            for cs in fn.calls:
                if cs.name not in EXECUTORS:
                    continue
                if cs.tok + 1 >= len(code) or \
                        code[cs.tok + 1].text != "(":
                    continue
                close = tlsa._match_forward(code, cs.tok + 1,
                                            "(", ")")
                names = {code[m].text
                         for m in range(cs.tok + 2, close)}
                caught = sorted(names & set(handles))
                if caught:
                    report(Diagnostic(
                        fn.relpath, cs.line, "P3",
                        f"`{cs.name}` task in `{fn.qual}` captures "
                        f"the pooled handle `{caught[0]}`: the "
                        "task may run after the object returns to "
                        "the pool; pass indices/copies into tasks, "
                        "never pooled borrows"))


# --- P4: reference invalidation ------------------------------------------

def check_p4(prog, report):
    resolved = {id(fn): [prog.resolve(c, fn) for c in fn.calls]
                for fn in prog.funcs}
    # Direct growth vocabulary per function: receivers of grower
    # calls plus swap() arguments; then a same-class fixpoint so
    # `findOrInsert()` carries grow()'s invalidation set.
    direct = {}
    for fn in prog.funcs:
        g = {cs.recv for cs in fn.calls
             if cs.name in GROWERS and cs.recv}
        if fn.body is not None and fn.body[1] is not None:
            code = prog.files[fn.relpath].code
            g |= {name for name, _, _ in
                  swap_growths(code, *fn.body)}
        direct[id(fn)] = g
    trans = {k: set(v) for k, v in direct.items()}
    changed = True
    while changed:
        changed = False
        for fn in prog.funcs:
            for callee in resolved[id(fn)]:
                if callee is None or not fn.cls or \
                        callee.cls != fn.cls:
                    continue
                extra = trans[id(callee)] - trans[id(fn)]
                if extra:
                    trans[id(fn)] |= extra
                    changed = True

    for fn in prog.funcs:
        if fn.body is None or fn.body[1] is None:
            continue
        lo, hi = fn.body
        code = prog.files[fn.relpath].code
        events = []  # (idx, order, payload...)
        k = lo
        while k < hi:
            tok = code[k]
            if (tok.kind == "id" and tok.text not in tlsa.KEYWORDS
                    and k >= 2
                    and code[k - 1].text in ("&", "*")
                    and (code[k - 2].kind == "id"
                         or code[k - 2].text in (">", ">>"))
                    and k + 1 < hi and code[k + 1].text == "="
                    and (k + 2 >= hi
                         or code[k + 2].text != "=")):
                j = k + 2
                conts = set()
                while j < hi and code[j].text != ";":
                    if code[j].kind == "id" and j + 1 < hi:
                        nx = code[j + 1].text
                        if nx == "[":
                            conts.add(code[j].text)
                        elif nx in (".", "->") and j + 2 < hi and \
                                code[j + 2].text in INTO_STORAGE:
                            conts.add(code[j].text)
                    j += 1
                if conts:
                    events.append((k, 0, "bind", tok.text, conts,
                                   tok.line))
                k = j
                continue
            k += 1
        if not events:
            continue
        bind_names = {e[3] for e in events}
        for ci, cs in enumerate(fn.calls):
            if cs.tok < lo or cs.tok >= hi:
                continue
            if cs.name in GROWERS and cs.recv:
                if cs.name in RESERVED_SAFE and \
                        cs.recv in prog.reserved:
                    continue  # A3's reserve discipline holds here
                events.append((cs.tok, 1, "grow", {cs.recv},
                               f"`{cs.recv}.{cs.name}()`",
                               cs.line))
            else:
                callee = resolved[id(fn)][ci]
                if callee is not None and fn.cls and \
                        callee.cls == fn.cls:
                    g = trans[id(callee)]
                    if g:
                        events.append((cs.tok, 1, "grow", set(g),
                                       f"`{cs.name}()`", cs.line))
        for name, _, line2 in swap_growths(code, lo, hi):
            pass  # swap sites already feed `direct` above; a local
            # swap invalidates via the grow events of its callees
        for k in range(lo, hi):
            if code[k].kind == "id" and code[k].text in bind_names:
                events.append((k, 2, "use", code[k].text,
                               code[k].line))
        events.sort(key=lambda e: (e[0], e[1]))
        live = {}
        reported = set()
        for ev in events:
            kind = ev[2]
            if kind == "bind":
                live[ev[3]] = {"conts": ev[4], "stale": None}
            elif kind == "grow":
                for st in live.values():
                    if st["stale"] is None and \
                            st["conts"] & ev[3]:
                        st["stale"] = (ev[4], ev[5])
            else:
                st = live.get(ev[3])
                if st is not None and st["stale"] is not None \
                        and ev[3] not in reported:
                    reported.add(ev[3])
                    via, gline = st["stale"]
                    conts = "/".join(sorted(st["conts"]))
                    report(Diagnostic(
                        fn.relpath, ev[4], "P4",
                        f"`{ev[3]}` binds into `{conts}` but "
                        f"{via} at line {gline} may reallocate or "
                        "destroy the element; re-take the "
                        "reference after the growth (the "
                        "recordLoad idiom) or hold an index"))


# --- family entry point --------------------------------------------------

def run(an, enabled, report):
    """Runs the enabled P passes; returns the manifest census for the
    staticanalysis block."""
    prog = an.prog
    man = load_poolreset(os.path.join(an.root, MANIFEST_REL))
    if man is None and an.require_manifests:
        report(Diagnostic(
            MANIFEST_REL, 0, "P2",
            "missing manifest: declare the pooled/recycled types "
            "(or none) explicitly (--require-manifests)"))

    if "P1" in enabled:
        check_p1(prog, report)
    if man is not None:
        if "P2" in enabled:
            check_p2(prog, man, report)
        if "P3" in enabled:
            check_p3(prog, man, report)
    if "P4" in enabled:
        check_p4(prog, report)
    return {
        "pooled_types": len(man.pooled) if man else 0,
        "persistent_fields": len(man.persist) if man else 0,
        "views": len(man.views) if man else 0,
    }
