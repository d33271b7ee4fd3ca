#!/usr/bin/env python3
"""gaia-lint: repo-specific invariant enforcement for the gaia tree.

The general-purpose static analyzers CI runs (clang-tidy, the
sanitizers) cannot see gaia's *domain* invariants -- the contracts the
frozen shared-cache tiers, the derived-cache epoch scheme and the
scratch-buffer discipline rest on. This linter encodes them as checks
over the real sources:

  freeze-fields            every data member of a Frozen*Tier type must
                           be const: tiers are shared by unsynchronized
                           concurrent readers that never write to them,
                           so a writable field (atomics included) is
                           worker-written state a tier may not hold.
  freeze-methods           Frozen*Tier types must not declare non-const
                           member functions (constructors/destructors
                           exempt): a mutating entry point on a frozen
                           tier defeats the compiler-checked half of the
                           never-written-after-freeze contract.
  epoch-invalidate         every non-const member function of TypeGraph
                           must call invalidateDerived(): a mutator that
                           forgets the hook leaves stale certificates /
                           canonical ids behind, which the interner then
                           trusts (wrong analysis results, not a crash).
  scratch-local-container  functions taking a *Scratch& parameter exist
                           to reuse buffers across the hot loop; a local
                           std::vector/std::unordered_map/std::map
                           declaration inside one reintroduces exactly
                           the per-call allocation the scratch removes.
  banned-container         std::map/std::multimap anywhere in the hot
                           directories (src/typegraph/, src/gaia/):
                           node-based ordered maps are never the right
                           container on these paths, and their iteration
                           order invites accidental ordering dependence.
  banned-rand              rand()/srand() in the hot directories: the
                           analysis must be bit-reproducible; anything
                           stochastic must use a seeded local RNG.
  relocation-remap         a function that builds a FrozenInternTier or
                           FrozenPfTier from an existing tier (the
                           stacking freeze paths in src/support and
                           src/runtime) must route ids through the
                           RelocationTable API: raw id arithmetic across
                           tier boundaries silently breaks the moment a
                           rebuild renumbers the dense id spaces.
  worker-noexcept          the serving runtime (src/runtime/) contains
                           every per-job failure behind noexcept worker
                           entry points; a naked `throw` or a
                           process-killing call (abort/exit/_exit/_Exit/
                           quick_exit/terminate) there either terminates
                           the process at the noexcept boundary or takes
                           all in-flight jobs down with it. Failures must
                           be returned as structured AnalysisResults.
  no-detached-thread       .detach() calls and never-joined std::thread
                           data members in the serving runtime: a
                           detached thread outlives every owner that
                           could observe it (shutdown races, use-after-
                           free of captured state), and a thread member
                           nobody joins is a detach spelled differently
                           (std::terminate at destruction, or a leak via
                           suppressed destructors). Threads must be
                           joined on a drain/shutdown path; the one
                           argued exception is the AnalysisService
                           watchdog's poisoned-slot replacement, where
                           joining would block the watchdog on the very
                           thread it is declaring stuck (suppressed with
                           that justification).

plus two meta-rules over the suppression file itself:

  suppression-syntax       every suppression must carry a justification
                           (`-- why`); an unexplained suppression is a
                           finding, not an escape hatch.
  unused-suppression       suppressions that no longer match anything
                           must be deleted, so the file stays an honest
                           inventory of known exceptions.

The frontend is a self-contained C++ tokenizer (comments, strings, raw
strings and preprocessor lines stripped; token/line stream with brace
scoping). The file list comes from a compile_commands.json produced by
CMAKE_EXPORT_COMPILE_COMMANDS, restricted to the repo's src/ tree, plus
the headers next to those sources; fixture/test runs may instead pass
explicit file arguments. The command-line surface (compdb in,
findings + JSON report out) matches the clang tools so a libclang
backend can replace the tokenizer without touching CI.

Exit codes: 0 clean, 1 findings, 2 usage/configuration error.
"""

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

TIER_CLASS_RE = re.compile(r"^Frozen\w*Tier$")
EPOCH_CLASS = "TypeGraph"
EPOCH_HOOK = "invalidateDerived"
SCRATCH_PARAM_RE = re.compile(r"^\w*Scratch$")
LOCAL_CONTAINER_BAN = ("vector", "unordered_map", "map")
HOT_CONTAINER_BAN = ("map", "multimap")
DEFAULT_HOT_PATHS = ("src/typegraph", "src/gaia")
# Directories where tier-from-tier rebuilds live; the relocation-remap
# rule runs only there (a Builder constructed from nothing needs no
# relocation table).
DEFAULT_RELOC_PATHS = ("src/support", "src/runtime")
RELOC_BUILDER_CLASSES = ("FrozenInternTier", "FrozenPfTier")
# Identifiers that mark "this build reads an existing tier": the shared
# tier member (Shared) or a previous-tier parameter (Prev).
RELOC_TIER_REFS = ("Shared", "Prev")
# Directories whose code runs under the service workers' noexcept
# containment boundary; the worker-noexcept rule runs only there.
DEFAULT_WORKER_PATHS = ("src/runtime",)
WORKER_BANNED_CALLS = ("abort", "exit", "_exit", "_Exit", "quick_exit",
                       "terminate")
# `void exit() {}` is a declaration, not a call; an id-followed-by-paren
# preceded by one of these is a declarator shape and is exempt.
WORKER_DECL_PRECEDERS = ("void", "int", "auto", "bool", "char", "unsigned",
                         "signed", "long", "short", "float", "double")


@dataclass
class Finding:
    rule: str
    file: str
    line: int
    symbol: str
    message: str

    def key(self):
        return (self.rule, os.path.basename(self.file), self.symbol)


@dataclass
class Suppression:
    rule: str
    file_pat: str
    symbol: str
    justification: str
    line: int
    used: bool = False

    def matches(self, f: Finding) -> bool:
        return (
            self.rule == f.rule
            and f.file.endswith(self.file_pat)
            and self.symbol == f.symbol
        )


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass
class Tok:
    kind: str  # 'id' | 'num' | 'punct' | 'str' | 'char'
    text: str
    line: int


_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_ID_CONT = _ID_START | set("0123456789")


def tokenize(src: str):
    """C++ token stream with comments, literals' contents and preprocessor
    directives removed. String/char literals survive as single opaque
    tokens so declaration shapes stay parseable."""
    toks = []
    i, n, line = 0, len(src), 1
    at_line_start = True
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\v\f":
            i += 1
            continue
        if at_line_start and c == "#":
            # Preprocessor directive: skip to end of line, honoring
            # backslash continuations.
            while i < n:
                if src[i] == "\\" and i + 1 < n and src[i + 1] == "\n":
                    line += 1
                    i += 2
                    continue
                if src[i] == "\n":
                    break
                i += 1
            continue
        at_line_start = False
        if c == "/" and i + 1 < n and src[i + 1] == "/":
            while i < n and src[i] != "\n":
                i += 1
            continue
        if c == "/" and i + 1 < n and src[i + 1] == "*":
            i += 2
            while i + 1 < n and not (src[i] == "*" and src[i + 1] == "/"):
                if src[i] == "\n":
                    line += 1
                i += 1
            i = min(i + 2, n)
            continue
        if c == "R" and src[i : i + 2] == 'R"':
            m = re.match(r'R"([^()\\ ]*)\(', src[i:])
            if m:
                end = src.find(")" + m.group(1) + '"', i + m.end())
                end = n if end < 0 else end + len(m.group(1)) + 2
                line += src.count("\n", i, end)
                toks.append(Tok("str", '""', line))
                i = end
                continue
        if c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and src[j] != quote:
                if src[j] == "\\":
                    j += 1
                elif src[j] == "\n":
                    line += 1
                j += 1
            toks.append(Tok("str" if quote == '"' else "char", quote * 2, line))
            i = j + 1
            continue
        if c in _ID_START:
            j = i + 1
            while j < n and src[j] in _ID_CONT:
                j += 1
            toks.append(Tok("id", src[i:j], line))
            i = j
            continue
        if c.isdigit():
            j = i + 1
            while j < n and (src[j] in _ID_CONT or src[j] in ".'+-"):
                if src[j] in "+-" and src[j - 1] not in "eEpP":
                    break
                j += 1
            toks.append(Tok("num", src[i:j], line))
            i = j
            continue
        toks.append(Tok("punct", c, line))
        i += 1
    return toks


def skip_template_args(toks, i):
    """toks[i] == '<': index just past the matching '>'. Returns i + 1 on
    a non-template '<' (comparison) -- callers only use this where a
    template argument list is the grammatical reading."""
    depth = 0
    j = i
    while j < len(toks):
        t = toks[j].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif t in ";{}":
            return i + 1  # not a template argument list after all
        j += 1
    return i + 1


def match_paren(toks, i):
    """toks[i] == '(': index of the matching ')' (len(toks) if unbalanced)."""
    depth = 0
    for j in range(i, len(toks)):
        if toks[j].text == "(":
            depth += 1
        elif toks[j].text == ")":
            depth -= 1
            if depth == 0:
                return j
    return len(toks)


def match_brace(toks, i):
    """toks[i] == '{': index of the matching '}' (len(toks) if unbalanced)."""
    depth = 0
    for j in range(i, len(toks)):
        if toks[j].text == "{":
            depth += 1
        elif toks[j].text == "}":
            depth -= 1
            if depth == 0:
                return j
    return len(toks)


# ---------------------------------------------------------------------------
# Class-body model
# ---------------------------------------------------------------------------

@dataclass
class Member:
    """One member declaration: the token slice from the start of the
    declaration up to (not including) its terminator, plus the body
    slice when the member is a function with an in-class body."""
    toks: list
    body: tuple | None  # (start, end) token indices into the file stream
    line: int


@dataclass
class ClassInfo:
    name: str
    file: str
    line: int
    members: list = field(default_factory=list)
    nested: list = field(default_factory=list)


def parse_class_bodies(toks, file):
    """All class/struct definitions (including nested ones) with their
    direct member declarations split out."""
    classes = []

    def scan(lo, hi, out):
        i = lo
        while i < hi:
            t = toks[i]
            if t.kind == "id" and t.text == "namespace":
                # Step *inside* the namespace: class definitions there
                # must be found (the whole tree lives in namespace gaia).
                while i < hi and toks[i].text not in "{;":
                    i += 1
                i += 1
                continue
            if t.kind == "id" and t.text == "enum":
                # `enum class X : base { ... };` must not be misread as a
                # class definition.
                while i < hi and toks[i].text not in "{;":
                    i += 1
                if i < hi and toks[i].text == "{":
                    i = match_brace(toks, i)
                i += 1
                continue
            if t.kind == "id" and t.text in ("class", "struct"):
                info = try_class(i, hi, out)
                if info is not None:
                    i = info
                    continue
            if t.text == "{":
                i = match_brace(toks, i) + 1
                continue
            i += 1

    def try_class(i, hi, out):
        """Parse a class-head at i; returns index past the body, or None
        if this `class`/`struct` is not a definition (fwd decl, elaborated
        type specifier)."""
        j = i + 1
        # Optional attributes / API macros before the name.
        while j < hi and toks[j].text == "[":
            while j < hi and toks[j].text != "]":
                j += 1
            j += 1
        if j >= hi or toks[j].kind != "id":
            return None
        name = toks[j].text
        j += 1
        if j < hi and toks[j].kind == "id" and toks[j].text == "final":
            j += 1
        if j < hi and toks[j].text == ":":  # base clause
            while j < hi and toks[j].text != "{":
                if toks[j].text == "<":
                    j = skip_template_args(toks, j)
                    continue
                if toks[j].text == ";":
                    return None
                j += 1
        if j >= hi or toks[j].text != "{":
            return None
        body_end = match_brace(toks, j)
        info = ClassInfo(name=name, file=file, line=toks[i].line)
        parse_members(j + 1, body_end, info)
        out.append(info)
        return body_end + 1

    def parse_members(lo, hi, info):
        i = lo
        decl_start = lo
        while i < hi:
            t = toks[i]
            if t.kind == "id" and t.text in ("class", "struct", "enum", "union"):
                # Possibly a nested definition.
                k = i
                if t.text == "enum" and i + 1 < hi and toks[i + 1].text == "class":
                    k = i + 1
                nxt = try_class(k if t.text != "enum" else i, hi, info.nested) \
                    if t.text in ("class", "struct") else None
                if nxt is not None:
                    i = nxt
                    decl_start = i
                    continue
                if t.text in ("enum", "union"):
                    # Skip enum/union body wholesale.
                    j = i
                    while j < hi and toks[j].text not in "{;":
                        j += 1
                    if j < hi and toks[j].text == "{":
                        j = match_brace(toks, j)
                        while j < hi and toks[j].text != ";":
                            j += 1
                    i = j + 1
                    decl_start = i
                    continue
            if t.text == ":" and i > decl_start and toks[i - 1].kind == "id" \
                    and toks[i - 1].text in ("public", "private", "protected"):
                decl_start = i + 1
                i += 1
                continue
            if t.text == "<":
                i = skip_template_args(toks, i)
                continue
            if t.text == "(":
                i = match_paren(toks, i) + 1
                continue
            if t.text == "{":
                body_end = match_brace(toks, i)
                info.members.append(
                    Member(toks[decl_start:i], (i + 1, body_end),
                           toks[decl_start].line if decl_start < i else t.line))
                i = body_end + 1
                # Function bodies need no ';'.
                if i < hi and toks[i].text == ";":
                    i += 1
                decl_start = i
                continue
            if t.text == ";":
                if i > decl_start:
                    info.members.append(
                        Member(toks[decl_start:i], None, toks[decl_start].line))
                i += 1
                decl_start = i
                continue
            i += 1

    scan(0, len(toks), classes)
    # Flatten nested classes into the result (they are also checked).
    flat = []

    def walk(cs):
        for c in cs:
            flat.append(c)
            walk(c.nested)

    walk(classes)
    return flat


def member_texts(m: Member):
    return [t.text for t in m.toks]


def is_function_member(m: Member):
    """True if the declaration slice contains a parameter list."""
    return "(" in member_texts(m)


def is_static(m: Member):
    return "static" in member_texts(m)


def is_using_or_friend(m: Member):
    txts = member_texts(m)
    return txts and txts[0] in ("using", "typedef", "friend")


def function_name(m: Member):
    """Name token immediately before the first top-level '(' -- good
    enough for the declaration shapes in this tree."""
    depth = 0
    for i, t in enumerate(m.toks):
        if t.text == "<":
            depth += 1
        elif t.text == ">":
            depth = max(0, depth - 1)
        elif t.text == "(" and depth == 0:
            j = i - 1
            if j >= 0 and m.toks[j].kind == "id":
                if j >= 1 and m.toks[j - 1].text == "~":
                    return "~" + m.toks[j].text
                return m.toks[j].text
            if j >= 0 and m.toks[j].text == "]":  # operator[]
                return "operator[]"
            # operator foo
            k = j
            while k >= 0 and m.toks[k].kind != "id":
                k -= 1
            if k >= 0 and m.toks[k].text == "operator":
                return "operator" + "".join(t.text for t in m.toks[k + 1 : j + 1])
            return m.toks[j].text if j >= 0 else "?"
    return "?"


def is_const_member_fn(m: Member):
    """True if a cv-qualifier follows the parameter list."""
    depth = 0
    seen_params = False
    for t in m.toks:
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth -= 1
            if depth == 0:
                seen_params = True
                continue
        elif seen_params and depth == 0:
            if t.text == "const":
                return True
            if t.text in ("{", ";", "=", "->"):
                return False
    return False


def field_is_immutable(m: Member):
    txts = member_texts(m)
    return "const" in txts or "constexpr" in txts


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def check_tier_classes(classes, findings):
    for c in classes:
        if not TIER_CLASS_RE.match(c.name):
            continue
        for m in c.members:
            if is_using_or_friend(m) or not m.toks:
                continue
            if is_function_member(m):
                name = function_name(m)
                if name == c.name or name.startswith("~"):
                    continue  # constructors/destructors
                if is_static(m):
                    continue
                txts = member_texts(m)
                if "=" in txts and "delete" in txts:
                    continue
                if not is_const_member_fn(m):
                    findings.append(Finding(
                        "freeze-methods", c.file, m.line, name,
                        f"{c.name}::{name} is a non-const member function on a "
                        "frozen tier type; tiers are shared by unsynchronized "
                        "concurrent readers and must expose no mutating entry "
                        "point"))
            else:
                # Data member: last identifier before any '=' / '{' init.
                txts = member_texts(m)
                name = None
                for t in reversed(m.toks):
                    if t.text in ("=",):
                        continue
                    if t.kind == "id":
                        name = t.text
                        break
                if name is None:
                    continue
                if not field_is_immutable(m):
                    findings.append(Finding(
                        "freeze-fields", c.file, m.line, name,
                        f"{c.name}::{name} is a mutable field of a frozen tier "
                        "type; every tier field must be const so the "
                        "never-written-after-freeze contract is "
                        "compiler-checked"))


def check_epoch_class(classes, toks, findings):
    """In-class bodies of TypeGraph's non-const member functions, plus
    out-of-class `TypeGraph::name` definitions, must call the
    derived-cache invalidation hook."""
    for c in classes:
        if c.name != EPOCH_CLASS:
            continue
        for m in c.members:
            if not is_function_member(m) or is_using_or_friend(m):
                continue
            if is_static(m) or is_const_member_fn(m):
                continue
            name = function_name(m)
            if name == c.name or name.startswith("~") or name.startswith("operator"):
                continue
            if m.body is None:
                continue  # checked at the out-of-class definition
            lo, hi = m.body
            if not any(t.text == EPOCH_HOOK for t in toks[c.file][lo:hi]):
                findings.append(Finding(
                    "epoch-invalidate", c.file, m.line, name,
                    f"{EPOCH_CLASS}::{name} mutates the graph without calling "
                    f"{EPOCH_HOOK}(); stale certificates/canonical ids are "
                    "silent wrong-result bugs"))


def epoch_class_static_members(classes):
    """Names declared static inside TypeGraph: out-of-class definitions
    do not repeat `static`, so the definition checker needs the roster."""
    names = set()
    for c in classes:
        if c.name != EPOCH_CLASS:
            continue
        for m in c.members:
            if is_function_member(m) and is_static(m):
                names.add(function_name(m))
    return names


def check_epoch_definitions(file, toks, findings, static_names):
    """Out-of-class `TypeGraph::name(...) ... { body }` definitions."""
    i = 0
    n = len(toks)
    while i + 4 < n:
        if (toks[i].kind == "id" and toks[i].text == EPOCH_CLASS
                and toks[i + 1].text == ":" and toks[i + 2].text == ":"
                and toks[i + 3].kind == "id"):
            name = toks[i + 3].text
            j = i + 4
            if j < n and toks[j].text == "<":
                j = skip_template_args(toks, j)
            if j < n and toks[j].text == "(":
                close = match_paren(toks, j)
                k = close + 1
                is_const = False
                while k < n and toks[k].text not in "{;":
                    if toks[k].text == "const":
                        is_const = True
                    k += 1
                if k < n and toks[k].text == "{" and not is_const \
                        and name != EPOCH_CLASS and not name.startswith("~") \
                        and name not in static_names:
                    # Qualified return types (TypeGraph::Topology
                    # TypeGraph::computeTopology() ...) put a second
                    # qualified id earlier on the line; only the id
                    # directly before '(' is the function.
                    body_end = match_brace(toks, k)
                    if not any(t.text == EPOCH_HOOK
                               for t in toks[k + 1 : body_end]):
                        findings.append(Finding(
                            "epoch-invalidate", file, toks[i].line, name,
                            f"{EPOCH_CLASS}::{name} mutates the graph without "
                            f"calling {EPOCH_HOOK}(); stale certificates/"
                            "canonical ids are silent wrong-result bugs"))
                    i = body_end + 1
                    continue
        i += 1


def iter_function_defs(toks):
    """(name, params_slice, body_range) for every function definition,
    top-level or member, found by paren+brace shape."""
    i = 0
    n = len(toks)
    while i < n:
        if toks[i].text == "(":
            close = match_paren(toks, i)
            j = close + 1
            # Allow cv/ref/noexcept/trailing-return between ')' and '{'.
            guard = 0
            while j < n and toks[j].text not in "{;=" and guard < 24:
                if toks[j].text == "(":  # noexcept(...)
                    j = match_paren(toks, j) + 1
                    guard += 1
                    continue
                j += 1
                guard += 1
            if j < n and toks[j].text == "{" and guard < 24:
                name_tok = toks[i - 1] if i > 0 else None
                if name_tok is not None and name_tok.kind == "id" and \
                        name_tok.text not in ("if", "for", "while", "switch",
                                              "return", "catch", "sizeof",
                                              "alignof", "decltype"):
                    body_end = match_brace(toks, j)
                    yield (name_tok.text, toks[i : close + 1],
                           (j + 1, body_end), name_tok.line)
                    # Do not skip the body: nested lambdas/locals also
                    # parse as defs, which is harmless for our rules.
        i += 1


def params_have_scratch_ref(params):
    for i, t in enumerate(params):
        if t.kind == "id" and SCRATCH_PARAM_RE.match(t.text) and t.text != "":
            j = i + 1
            while j < len(params) and params[j].text in ("const",):
                j += 1
            if j < len(params) and params[j].text == "&":
                return True
    return False


def body_container_decls(toks, lo, hi, names):
    """Occurrences of std::NAME<...> in [lo,hi) that declare an object
    (not a reference/pointer binding or nested-type access)."""
    out = []
    i = lo
    while i < hi - 3:
        if (toks[i].text == "std" and toks[i + 1].text == ":"
                and toks[i + 2].text == ":" and toks[i + 3].kind == "id"
                and toks[i + 3].text in names):
            name = toks[i + 3].text
            line = toks[i].line
            j = i + 4
            if j < hi and toks[j].text == "<":
                j = skip_template_args(toks, j)
            if j < hi and toks[j].text in ("&", "*"):
                i = j  # reference/pointer: binds existing storage
                continue
            if j + 1 < hi and toks[j].text == ":" and toks[j + 1].text == ":":
                i = j  # nested type / static member access
                continue
            out.append((name, line))
            i = j
            continue
        i += 1
    return out


def check_scratch_functions(file, toks, findings):
    for name, params, (lo, hi), line in iter_function_defs(toks):
        if not params_have_scratch_ref(params):
            continue
        for cont, cline in body_container_decls(toks, lo, hi,
                                                LOCAL_CONTAINER_BAN):
            findings.append(Finding(
                "scratch-local-container", file, cline, f"{name}:{cont}",
                f"{name} takes a *Scratch& precisely to avoid per-call "
                f"allocation, but declares a local std::{cont}; route the "
                "buffer through the scratch struct instead"))


def check_relocation_remap(file, toks, findings):
    """Functions that construct a FrozenInternTier/FrozenPfTier Builder
    while reading an existing tier must use the RelocationTable API --
    the only sanctioned way to carry ids across a tier boundary."""
    for name, _params, (lo, hi), line in iter_function_defs(toks):
        body = toks[lo:hi]
        builds_tier = any(
            body[i].text in RELOC_BUILDER_CLASSES
            and i + 3 < len(body)
            and body[i + 1].text == ":" and body[i + 2].text == ":"
            and body[i + 3].text == "Builder"
            for i in range(len(body)))
        if not builds_tier:
            continue
        reads_tier = any(t.kind == "id" and t.text in RELOC_TIER_REFS
                         for t in body)
        if not reads_tier:
            continue  # fresh build: ids are born here, nothing to remap
        if any(t.text == "RelocationTable" for t in body):
            continue
        findings.append(Finding(
            "relocation-remap", file, line, name,
            f"{name} builds a frozen tier from an existing tier without a "
            "RelocationTable; raw id arithmetic across tier boundaries "
            "breaks silently when a rebuild renumbers the dense id "
            "spaces"))


def check_worker_noexcept(file, toks, findings):
    """The serving runtime's workers are noexcept at the job boundary
    (runContainedJob, which AnalysisService's worker loop runs): a
    `throw` that reaches them terminates the process, and abort()/exit()
    kill it outright — along with every in-flight job of every other
    worker. Failures in src/runtime/ must be structured AnalysisResults,
    never control-flow escapes."""
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        if t.text == "throw":
            findings.append(Finding(
                "worker-noexcept", file, t.line, "throw",
                "naked `throw` in the serving runtime: the service workers are "
                "noexcept at the job boundary, so an escaping exception "
                "terminates the whole process; return a structured "
                "AnalysisResult failure instead"))
            continue
        if t.text in WORKER_BANNED_CALLS and i + 1 < n \
                and toks[i + 1].text == "(":
            qualified_std = (i >= 2 and toks[i - 1].text == ":"
                             and toks[i - 2].text == ":")
            prev_member = i >= 1 and toks[i - 1].text in (".", "->")
            prev_decl = (i >= 1 and toks[i - 1].kind == "id"
                         and toks[i - 1].text in WORKER_DECL_PRECEDERS)
            if (not prev_member and not prev_decl) or qualified_std:
                findings.append(Finding(
                    "worker-noexcept", file, t.line, t.text,
                    f"{t.text}() in the serving runtime kills the process "
                    "and every in-flight job with it; per-job failures "
                    "must be contained as structured AnalysisResults"))


def check_detach_calls(file, toks, findings):
    """Member calls of .detach() / ->detach() in the serving runtime."""
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text != "detach":
            continue
        if i + 1 >= n or toks[i + 1].text != "(":
            continue
        prev_dot = i >= 1 and toks[i - 1].text == "."
        prev_arrow = (i >= 2 and toks[i - 1].text == ">"
                      and toks[i - 2].text == "-")
        if prev_dot or prev_arrow:
            findings.append(Finding(
                "no-detached-thread", file, t.line, "detach",
                "detach() in the serving runtime: a detached thread "
                "outlives every owner that could observe it (shutdown "
                "races, use-after-free of captured state); join on a "
                "drain/shutdown path instead, or argue the exception in "
                "the suppressions file"))


def class_thread_members(classes):
    """(class, member-name, line) for every std::thread (or
    container-of-std::thread) data member."""
    out = []
    for c in classes:
        for m in c.members:
            if is_function_member(m) or is_using_or_friend(m) or is_static(m):
                continue
            txts = member_texts(m)
            if "thread" not in txts:
                continue
            name = None
            for t in reversed(m.toks):
                if t.kind == "id":
                    name = t.text
                    break
            if name and name != "thread":
                out.append((c, name, m.line))
    return out


def check_unjoined_thread_members(worker_files, toks_by_file, classes_by_file,
                                  findings):
    """A std::thread data member in the serving runtime must be joined
    somewhere: in the declaring file or in its same-stem .cpp/.h
    counterpart (headers declare, the TU drains). A member nobody joins
    is a detach spelled differently — std::terminate at destruction, or
    a leak behind a suppressed destructor."""
    def counterpart(f):
        base, ext = os.path.splitext(f)
        if ext in (".h", ".hpp"):
            return base + ".cpp"
        return base + ".h"

    def has_join(f):
        return f in toks_by_file and any(
            t.kind == "id" and t.text == "join" for t in toks_by_file[f])

    for f in worker_files:
        for c, name, line in class_thread_members(classes_by_file[f]):
            if has_join(f) or has_join(counterpart(f)):
                continue
            findings.append(Finding(
                "no-detached-thread", f, line, name,
                f"{c.name}::{name} is a std::thread member that is never "
                "joined in this file or its header/source counterpart; an "
                "un-joined thread member is a detach spelled differently "
                "(std::terminate at destruction) — join it on the "
                "drain/shutdown path"))


def check_banned_tokens(file, toks, findings):
    i = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if (t.text == "std" and i + 3 < n and toks[i + 1].text == ":"
                and toks[i + 2].text == ":"
                and toks[i + 3].text in HOT_CONTAINER_BAN):
            # std::map<...> usage (not std::map<...>::iterator of some
            # already-flagged decl -- each textual use is one finding).
            j = i + 4
            if j < n and toks[j].text == "<":
                findings.append(Finding(
                    "banned-container", file, t.line, f"std::{toks[i+3].text}",
                    f"std::{toks[i+3].text} on a hot path: node-based ordered "
                    "maps are banned in src/typegraph/ and src/gaia/ "
                    "(allocation-heavy, and ordered iteration invites "
                    "accidental ordering dependence)"))
                i = j
                continue
        if t.kind == "id" and t.text in ("rand", "srand") and i + 1 < n \
                and toks[i + 1].text == "(":
            qualified_std = (i >= 2 and toks[i - 1].text == ":"
                             and toks[i - 2].text == ":")
            prev_member = i >= 1 and toks[i - 1].text in (".", "->")
            if not prev_member or qualified_std:
                findings.append(Finding(
                    "banned-rand", file, t.line, t.text,
                    f"{t.text}() on a hot path: the analysis must be "
                    "bit-reproducible; use a seeded std::mt19937 local to "
                    "the caller instead"))
        i += 1


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

def load_suppressions(path, findings):
    sups = []
    if path is None:
        return sups
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as e:
        print(f"gaia-lint: cannot read suppressions file: {e}",
              file=sys.stderr)
        sys.exit(2)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if " -- " not in line:
            findings.append(Finding(
                "suppression-syntax", path, lineno, line.split()[0],
                "suppression without a justification (`<rule> "
                "<file>:<symbol> -- <why>`); an unexplained suppression "
                "is a finding, not an escape hatch"))
            continue
        head, justification = line.split(" -- ", 1)
        parts = head.split(None, 1)
        if len(parts) != 2 or ":" not in parts[1]:
            findings.append(Finding(
                "suppression-syntax", path, lineno, head,
                "malformed suppression; expected `<rule> <file>:<symbol> "
                "-- <why>`"))
            continue
        rule = parts[0]
        file_pat, symbol = parts[1].rsplit(":", 1)
        if not justification.strip():
            findings.append(Finding(
                "suppression-syntax", path, lineno, symbol,
                "suppression with an empty justification"))
            continue
        sups.append(Suppression(rule, file_pat, symbol,
                                justification.strip(), lineno))
    return sups


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def files_from_compdb(compdb_path):
    try:
        entries = json.load(open(compdb_path, encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        print(f"gaia-lint: cannot read compilation database "
              f"{compdb_path}: {e}", file=sys.stderr)
        sys.exit(2)
    files = set()
    src_roots = set()
    for e in entries:
        f = e.get("file")
        if not f:
            continue
        if not os.path.isabs(f):
            f = os.path.join(e.get("directory", "."), f)
        f = os.path.normpath(f)
        parts = f.replace(os.sep, "/").split("/")
        if "src" in parts:
            files.add(f)
            src_roots.add("/".join(parts[: parts.index("src") + 1]))
    # Headers are not TUs; pull in every header under the src roots the
    # database references, so header-only invariants are linted too.
    for root in src_roots:
        for dirpath, _, names in os.walk(root):
            for name in names:
                if name.endswith(".h") or name.endswith(".hpp"):
                    files.add(os.path.normpath(os.path.join(dirpath, name)))
    return sorted(files)


def in_hot_path(file, hot_paths):
    norm = file.replace(os.sep, "/")
    return any(("/" + hp.strip("/") + "/") in norm or
               norm.startswith(hp.strip("/") + "/")
               for hp in hot_paths)


def lint_files(files, hot_paths, reloc_paths, worker_paths):
    findings = []
    toks_by_file = {}
    classes_by_file = {}
    for f in files:
        try:
            src = open(f, encoding="utf-8", errors="replace").read()
        except OSError as e:
            print(f"gaia-lint: cannot read {f}: {e}", file=sys.stderr)
            sys.exit(2)
        toks = tokenize(src)
        toks_by_file[f] = toks
        classes_by_file[f] = parse_class_bodies(toks, f)
    static_names = set()
    for classes in classes_by_file.values():
        static_names |= epoch_class_static_members(classes)
    for f in files:
        toks = toks_by_file[f]
        classes = classes_by_file[f]
        check_tier_classes(classes, findings)
        check_epoch_class(classes, toks_by_file, findings)
        check_epoch_definitions(f, toks, findings, static_names)
        if in_hot_path(f, hot_paths):
            check_scratch_functions(f, toks, findings)
            check_banned_tokens(f, toks, findings)
        if in_hot_path(f, reloc_paths):
            check_relocation_remap(f, toks, findings)
        if in_hot_path(f, worker_paths):
            check_worker_noexcept(f, toks, findings)
            check_detach_calls(f, toks, findings)
    worker_files = [f for f in files if in_hot_path(f, worker_paths)]
    check_unjoined_thread_members(worker_files, toks_by_file,
                                  classes_by_file, findings)
    return findings


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="gaia-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*",
                    help="explicit files to lint (fixture/test mode); "
                         "omit and pass --compdb for a tree run")
    ap.add_argument("--compdb", metavar="JSON",
                    help="compile_commands.json to derive the file list from")
    ap.add_argument("--suppressions", metavar="FILE",
                    help="suppression file (one `<rule> <file>:<symbol> -- "
                         "<why>` per line)")
    ap.add_argument("--hot-path", action="append", default=[],
                    metavar="DIR",
                    help="directory (repo-relative) treated as a hot path "
                         "for the scratch/banned rules; default: "
                         + ", ".join(DEFAULT_HOT_PATHS))
    ap.add_argument("--reloc-path", action="append", default=[],
                    metavar="DIR",
                    help="directory (repo-relative) where the "
                         "relocation-remap rule applies; default: "
                         + ", ".join(DEFAULT_RELOC_PATHS))
    ap.add_argument("--worker-path", action="append", default=[],
                    metavar="DIR",
                    help="directory (repo-relative) where the "
                         "worker-noexcept rule applies; default: "
                         + ", ".join(DEFAULT_WORKER_PATHS))
    ap.add_argument("--json", metavar="OUT",
                    help="write a JSON report to OUT")
    args = ap.parse_args(argv)

    if bool(args.files) == bool(args.compdb):
        print("gaia-lint: pass either explicit files or --compdb, not both "
              "or neither", file=sys.stderr)
        return 2

    hot_paths = args.hot_path or list(DEFAULT_HOT_PATHS)
    reloc_paths = args.reloc_path or list(DEFAULT_RELOC_PATHS)
    worker_paths = args.worker_path or list(DEFAULT_WORKER_PATHS)
    files = args.files if args.files else files_from_compdb(args.compdb)
    if not files:
        print("gaia-lint: no files to lint", file=sys.stderr)
        return 2

    findings = lint_files(files, hot_paths, reloc_paths, worker_paths)

    meta_findings = []
    sups = load_suppressions(args.suppressions, meta_findings)
    kept = []
    for f in findings:
        sup = next((s for s in sups if s.matches(f)), None)
        if sup is not None:
            sup.used = True
        else:
            kept.append(f)
    for s in sups:
        if not s.used:
            meta_findings.append(Finding(
                "unused-suppression", args.suppressions, s.line,
                f"{s.rule}:{s.symbol}",
                f"suppression `{s.rule} {s.file_pat}:{s.symbol}` matches "
                "nothing; delete it so the file stays an honest inventory"))
    kept.extend(meta_findings)
    kept.sort(key=lambda f: (f.file, f.line, f.rule))

    for f in kept:
        print(f"{f.file}:{f.line}: [{f.rule}] {f.message}")

    if args.json:
        report = {
            "tool": "gaia-lint",
            "files_scanned": len(files),
            "suppressions_used": sum(1 for s in sups if s.used),
            "findings": [
                {"rule": f.rule, "file": f.file, "line": f.line,
                 "symbol": f.symbol, "message": f.message}
                for f in kept
            ],
        }
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump(report, out, indent=2)
            out.write("\n")

    if kept:
        print(f"gaia-lint: {len(kept)} finding(s) across {len(files)} "
              "file(s)", file=sys.stderr)
        return 1
    print(f"gaia-lint: clean ({len(files)} files, "
          f"{sum(1 for s in sups if s.used)} suppression(s) in use)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
