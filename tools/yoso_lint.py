#!/usr/bin/env python3
"""yoso-lint v4: determinism, thread-safety, architecture and perf checker.

Machine-enforces the rules DESIGN.md states in prose (§9 threading model,
§10/§11 correctness tooling).  The search loop is multithreaded and results
must be bit-identical at any thread count, so the classic sources of silent
nondeterminism are banned outright:

  global-rng        std::rand / srand / random_device / time()-seeded RNG
                    anywhere outside src/util/rng.* — every draw must go
                    through the seedable yoso::Rng.
  static-state      mutable function-local or global `static` data in src/
                    outside the two bottom infrastructure layers (src/util/,
                    src/obs/ — the RNG and the process-wide metrics/trace
                    registries are singletons by design) — hidden state
                    breaks reproducibility and is a data race under the
                    parallel evaluator.
  unordered-iter    iteration over std::unordered_map / std::unordered_set —
                    iteration order is implementation-defined, so anything it
                    feeds (rewards, finalist pools, reports) varies run to
                    run.  Use std::map or sort the keys first.
  naked-new         raw `new` / `delete` — ownership must be expressed with
                    containers or smart pointers (make_unique/make_shared).
  parallel-purity   writes to namespace-scope mutable state reachable from a
                    parallel_for body, inline or a named lambda (directly or
                    through the call graph) — a data race and a determinism
                    leak at once.
  header-self-contained (with --check-headers)
                    every header under src/ must compile standalone, so any
                    TU can include it first without hidden include-order
                    dependencies.

v3 adds three architecture rule families on top (DESIGN.md §14,
docs/STATIC_ANALYSIS.md):

  layer-dag         the module layering is a committed, machine-readable DAG
                    (tools/yoso_layers.json: base → obs → util →
                    {linalg, arch} → {accel, nn, surrogate, rl} →
                    predictor → core).  Every cross-module `#include` in
                    src/ must be a declared edge — an upward or lateral
                    include (say util/ → core/) is a violation, the declared
                    DAG is cycle-checked, a declared-but-never-included
                    dependency is flagged as drift, and each
                    src/<mod>/CMakeLists.txt target_link_libraries set must
                    agree with the JSON exactly.
  include-hygiene   IWYU-lite over the project include graph: (a) a direct
                    include none of whose exported symbols the file uses is
                    dead weight; (b) a file that uses a symbol owned by a
                    header it only reaches transitively must include that
                    header directly; (c) a TU that includes its paired
                    header must include it FIRST, which machine-proves the
                    header self-contained on every build; (d) duplicate
                    includes.
  contract-coverage public entry points (named, non-static functions and
                    methods outside detail/anonymous namespaces in src/)
                    whose raw pointer or integral size/index parameters
                    reach array indexing or a resize/reserve anywhere in the
                    function body without a YOSO_REQUIRE / YOSO_CHECK /
                    YOSO_DCHECK guard naming the parameter.

v4 adds the profile-guided perf-lint family (DESIGN.md §15).  A hot-set
builder derives the set of hot functions from (a) the committed span-cost
profile tools/yoso_hot_profile.json — regenerated by `bench_throughput
--emit-profile` from the obs trace aggregates — and (b) static reachability
from YOSO_TRACE_SPAN-instrumented entry points through the project call
graph.  Against that hot set:

  hot-alloc         heap allocation inside a hot loop body or inside a
                    parallel_for worker lambda: `new`,
                    make_unique/make_shared, `std::function` construction,
                    a std::vector constructed per iteration, or
                    push_back/emplace_back growth with no dominating
                    reserve() before the loop.
  hot-heavy-copy    pass-by-value of Matrix/Tensor/std::vector/std::string
                    in a hot function signature, range-for over heavy
                    elements without `&`, and heavy copy-initialisation
                    from a plain identifier inside a hot loop.
  hot-virtual       dispatch through an unambiguously-virtual method inside
                    a hot inner loop — devirtualise or hoist the call.
  hot-mutex         lock acquisition (MutexLock, std::lock_guard/unique_
                    lock/scoped_lock, .lock(), Synchronized<T>::with_lock)
                    inside worker-role code (parallel_for bodies and
                    everything they reach).  The bottom infrastructure
                    layers (src/base, src/obs, src/util) are exempt: the
                    pool's own handshake and the registry ARE the locks.
  hot-noexcept-move a type named inside hot code whose user-declared move
                    ctor / move assignment is neither `= default` nor
                    `noexcept` — std::vector growth copies such types.

Each finding carries a `rank`: the observed self-time (ns) of the innermost
enclosing spanned function per the profile, so report output is sorted by
measured cost.  `--profile PATH` points the hot-set builder at any
span-aggregate or Chrome-trace JSON (default: the committed
tools/yoso_hot_profile.json); `--rule NAME` filters the report to one rule.

The analysis is pure Python with no dependencies: it resolves typedef/using
aliases and function return types, tracks scopes with a brace classifier,
builds a per-file call graph, and walks it from parallel_for bodies for the
purity rule.  `--self-test` checks every rule against the seeded fixtures
under tools/lint_fixtures/ (`// expect-lint: <rule>` marks each line that
must be reported).

Escape hatch: append `// yoso-lint: allow(<rule>)` to the offending line (or
the line directly above it) to suppress one rule there.  Allows are counted
and capped (--max-allows, default 3) so the hatch stays an exception, not a
policy.  The tree currently carries ZERO allows; keep it that way.

Exit status (scripts/check.sh and CI branch on the distinction):
  0  clean — no violations and the allow budget holds
  1  violations found (or allow budget exceeded)
  2  configuration error — the lint could not run: tools/yoso_layers.json is
     missing or broken (unparseable, unknown module, or a cycle in the
     declared DAG).

`--json PATH` additionally writes a machine-readable report (violations,
per-rule counts, allows, exit code); CI archives it.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

RULES = (
    "global-rng",
    "static-state",
    "unordered-iter",
    "naked-new",
    "parallel-purity",
    "header-self-contained",
    "layer-dag",
    "include-hygiene",
    "contract-coverage",
    "hot-alloc",
    "hot-heavy-copy",
    "hot-virtual",
    "hot-mutex",
    "hot-noexcept-move",
)

#: The v4 perf-lint family (profile-guided; DESIGN.md §15).
PERF_RULES = ("hot-alloc", "hot-heavy-copy", "hot-virtual", "hot-mutex",
              "hot-noexcept-move")

#: Default committed profile; regenerate with `bench_throughput
#: --emit-profile`.
DEFAULT_PROFILE = os.path.join("tools", "yoso_hot_profile.json")

SCAN_DIRS = ("src", "tests", "bench", "examples")
CPP_EXTENSIONS = (".cpp", ".cc", ".cxx", ".h", ".hpp")

ALLOW_RE = re.compile(r"//\s*yoso-lint:\s*allow\(([a-z-]+)\)")
EXPECT_RE = re.compile(r"//\s*expect-lint:\s*([a-z-]+)")

UNORDERED_NAME_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\b")


class Violation:
    def __init__(self, path, line, rule, message, rank=0, span=None):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.rank = rank    # profiled self-time (ns) of the enclosing span
        self.span = span    # name of the innermost enclosing profiled span

    def __str__(self):
        cost = f" (span {self.span}, self {self.rank} ns)" if self.span \
            else ""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}{cost}"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line
    structure so reported line numbers stay meaningful."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            elif c == "\n":  # unterminated (macro line continuation etc.)
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def collect_allows(raw_lines):
    """Maps line number -> set of allowed rules.  An allow comment applies to
    its own line and, when it is the only thing on the line, to the next."""
    allows = {}
    for idx, line in enumerate(raw_lines, start=1):
        for m in ALLOW_RE.finditer(line):
            rule = m.group(1)
            allows.setdefault(idx, set()).add(rule)
            if line.strip().startswith("//"):
                allows.setdefault(idx + 1, set()).add(rule)
    return allows


# ---------------------------------------------------------------------------
# Per-line rules (global-rng, static-state, naked-new) and the unordered-iter
# scan over a known set of container names.
# ---------------------------------------------------------------------------

GLOBAL_RNG_RE = re.compile(
    r"(?:(?<![\w:])(?:std::)?s?rand\s*\(|\brandom_device\b"
    r"|(?<![\w:])(?:std::)?time\s*\(\s*(?:nullptr|NULL|0)?\s*\))"
)

STATIC_DECL_RE = re.compile(r"^\s*(?:\[\[[^\]]*\]\]\s*)*(static|thread_local)\b")
STATIC_EXEMPT_RE = re.compile(
    r"\b(?:const\b|constexpr\b|consteval\b|constinit\b|static_assert|static_cast)"
)

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s*[&*]?\s*(\w+)"
)
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*[^;]*?(?<!:):(?!:)\s*(.+)\)\s*\{?\s*$")
IDENT_RE = re.compile(r"\b(\w+)\b")

NAKED_NEW_RE = re.compile(r"(?<![\w_])new\b(?!\s*\()")
NAKED_DELETE_RE = re.compile(r"(?<![\w_])delete\b(\s*\[\s*\])?\s")


def path_scopes(rel):
    # static-state exempts the two infrastructure layers at the bottom of
    # the DAG: util/ (the seedable RNG, pool internals) and obs/ (the
    # process-wide metrics/trace registries are singletons BY DESIGN —
    # DESIGN.md §13 — and their statics are atomics/mutex-guarded).
    # Everything above them stays banned from hidden static state.
    norm = rel.replace(os.sep, "/")
    return {
        "in_exempt_layer": norm.startswith(("src/util/", "src/obs/")),
        "is_rng_impl": bool(re.match(r"src/util/rng\.(h|cpp)$", norm)),
        "in_src": norm.startswith("src/"),
    }


def is_function_decl(line, m_end):
    """After `static <type...>`, decide whether the declared entity is a
    function (first declarator identifier followed by '(') or data."""
    rest = line[m_end:]
    # Walk identifiers; the declarator is the last identifier before one of
    # '=', ';', '{', '[' or '('.  Template args may contain commas; strip
    # angle-bracket contents first to keep the walk simple.
    depth = 0
    flat = []
    for ch in rest:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif depth == 0:
            flat.append(ch)
    flat = "".join(flat)
    m = re.search(r"(\w+)\s*([(=;{\[])", flat)
    if not m:
        return True  # no declarator on this line (e.g. `static` + linebreak)
    return m.group(2) == "("


def scan_lines_shared(rel, clean_lines, scopes):
    """global-rng / static-state / naked-new, line by line."""
    violations = []
    for idx, line in enumerate(clean_lines, start=1):
        # global-rng: everywhere except the seedable RNG's own implementation.
        if not scopes["is_rng_impl"]:
            m = GLOBAL_RNG_RE.search(line)
            if m:
                violations.append(Violation(
                    rel, idx, "global-rng",
                    f"forbidden nondeterministic source `{m.group(0).strip()}`"
                    " — route randomness through util/rng (yoso::Rng)"))

        # static-state: src/ outside util/ only.
        if scopes["in_src"] and not scopes["in_exempt_layer"]:
            m = STATIC_DECL_RE.search(line)
            if m and not STATIC_EXEMPT_RE.search(line):
                if not is_function_decl(line, m.end()):
                    violations.append(Violation(
                        rel, idx, "static-state",
                        "mutable static/thread_local state — hidden state "
                        "breaks run-to-run reproducibility and races under "
                        "the parallel evaluator"))

        # naked-new / naked-delete.
        if NAKED_NEW_RE.search(line):
            violations.append(Violation(
                rel, idx, "naked-new",
                "raw `new` — use std::make_unique/make_shared or a container"))
        if NAKED_DELETE_RE.search(line) and not re.search(
                r"=\s*delete|delete\s*;", line):
            violations.append(Violation(
                rel, idx, "naked-new",
                "raw `delete` — ownership belongs in a smart pointer"))
    return violations


def unordered_iter_violations(rel, clean_lines, unordered_vars,
                              unordered_fns):
    """Range-for / iterator-walk findings over a known set of container
    variable names and functions returning unordered containers."""
    violations = []
    for idx, line in enumerate(clean_lines, start=1):
        mfor = RANGE_FOR_RE.search(line)
        if mfor:
            range_expr = mfor.group(1)
            idents = set(IDENT_RE.findall(range_expr))
            hit = idents & set(unordered_vars)
            if hit:
                violations.append(Violation(
                    rel, idx, "unordered-iter",
                    f"range-for over unordered container `{sorted(hit)[0]}` "
                    "— iteration order is implementation-defined"))
            else:
                called = {m.group(1) for m in
                          re.finditer(r"\b(\w+)\s*\(", range_expr)}
                fn_hit = called & set(unordered_fns)
                if fn_hit:
                    violations.append(Violation(
                        rel, idx, "unordered-iter",
                        f"range-for over `{sorted(fn_hit)[0]}()` which "
                        "returns an unordered container — iteration order is "
                        "implementation-defined"))
        for var in unordered_vars:
            if re.search(rf"\b{re.escape(var)}\s*\.\s*(begin|cbegin)\s*\(",
                         line):
                violations.append(Violation(
                    rel, idx, "unordered-iter",
                    f"iterator walk over unordered container `{var}` — "
                    "iteration order is implementation-defined"))
    return violations


# ---------------------------------------------------------------------------
# v3 architecture analysis: ProjectContext + layer-dag / include-hygiene /
# contract-coverage rule families.
# ---------------------------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
DEFINE_RE = re.compile(r"^\s*#\s*define\s+(\w+)", re.MULTILINE)
TYPE_DECL_RE = re.compile(
    r"\b(?:class|struct|union|enum(?:\s+class|\s+struct)?)\s+([A-Za-z_]\w*)")
ENUM_BODY_RE = re.compile(
    r"\benum\s+(?:class\s+|struct\s+)?\w*\s*(?::[^{;]*)?\{([^}]*)\}")
FUNC_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*\(")
LINK_LIBS_RE = re.compile(
    r"target_link_libraries\s*\(\s*(\w+)\s+(?:PUBLIC|PRIVATE|INTERFACE)?"
    r"([^)]*)\)", re.S)

#: Integral parameter types the contract-coverage rule treats as potential
#: sizes/indices/dimensions when they reach a subscript or resize.
INT_PARAM_TYPES = frozenset((
    "size_t", "std::size_t", "int", "long", "unsigned", "unsigned int",
    "unsigned long", "long long", "unsigned long long", "short",
    "ptrdiff_t", "std::ptrdiff_t",
    "int32_t", "std::int32_t", "uint32_t", "std::uint32_t",
    "int64_t", "std::int64_t", "uint64_t", "std::uint64_t",
))

GUARD_MACROS = ("YOSO_REQUIRE", "YOSO_CHECK", "YOSO_DCHECK")


def extract_header_symbols(clean):
    """Returns (broad, confident) identifier sets exported by a header.

    `broad` over-collects (types, macros, aliases, enumerators, functions,
    namespace-scope variables) and drives the unused-include check — a
    direct include is dead only when NONE of these appear in the file, so
    over-collection only makes the check more conservative.  `confident`
    under-collects (types, macros, aliases, enumerators — names that are
    unmistakably owned by their declaring header) and drives the
    transitive-only check, where a wrong ownership claim would be a false
    positive."""
    broad, confident = set(), set()
    for m in DEFINE_RE.finditer(clean):
        broad.add(m.group(1))
        confident.add(m.group(1))
    for m in TYPE_DECL_RE.finditer(clean):
        broad.add(m.group(1))
        confident.add(m.group(1))
    for m in ALIAS_USING_RE.finditer(clean):
        broad.add(m.group(1))
        confident.add(m.group(1))
    for m in ALIAS_TYPEDEF_RE.finditer(clean):
        broad.add(m.group(2))
        confident.add(m.group(2))
    for m in ENUM_BODY_RE.finditer(clean):
        for piece in m.group(1).split(","):
            mm = re.match(r"\s*([A-Za-z_]\w*)", piece)
            if mm:
                broad.add(mm.group(1))
                confident.add(mm.group(1))
    # Function/method names: collected from the DECLARATION skeleton (inline
    # bodies blanked out), otherwise every call inside an inline body would
    # count as an exported symbol and the unused-include check would never
    # fire.
    skeleton = _blank_function_bodies(clean)
    for m in FUNC_NAME_RE.finditer(skeleton):
        if m.group(1) not in CALL_KEYWORDS:
            broad.add(m.group(1))
    for line in skeleton.splitlines():
        m = NS_VAR_DECL_RE.match(line)
        if m:
            broad.add(m.group(1))
    return broad, confident


def _blank_function_bodies(clean):
    """Replaces the contents of every function-like body with spaces,
    preserving offsets/line structure."""
    _, spans = classify_braces(clean)
    out = list(clean)
    for _, start, end in spans:
        for i in range(start + 1, min(end, len(out))):
            if out[i] != "\n":
                out[i] = " "
    return "".join(out)


def file_module(rel):
    """src/<mod>/... -> <mod>, else None (tests/bench/examples/tools)."""
    parts = rel.replace(os.sep, "/").split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


class ProjectContext:
    """Whole-tree state shared by the v3 rules: the declared layer DAG, the
    project include graph, and per-header exported-symbol indexes.  Built
    once per run; per-file scans and fixtures both consult it."""

    def __init__(self, root, profile_path=None):
        self.root = root
        self.src = os.path.join(root, "src")
        self.layers_path = os.path.join(root, "tools", "yoso_layers.json")
        self.layers = None          # {module: set(direct deps)}
        self.config_errors = []     # fatal tool-level problems (exit 2)
        self.header_clean = {}      # "mod/f.h" -> comment-stripped text
        self.header_includes = {}   # "mod/f.h" -> [(path, line)]
        self.header_broad = {}      # "mod/f.h" -> broad symbol set
        self.header_confident = {}  # "mod/f.h" -> confident symbol set
        self.owner = {}             # symbol -> unique owning header key
        self._closure = {}
        self._load_layers()
        self._index_headers()
        if profile_path is None:
            profile_path = os.path.join(root, DEFAULT_PROFILE)
        self._index_perf(profile_path)

    # -- v4 perf index ------------------------------------------------------

    def _index_perf(self, profile_path):
        """Whole-tree hot set (DESIGN.md §15): span names and the name-based
        call graph over all of src/, observed span costs propagated from
        profiled roots, the worker-role function set, the unambiguously-
        virtual method names, and throwing-move types used from hot code."""
        self.hot_profile = HotProfile.load(profile_path)
        self.hot_cost, self.hot_span = {}, {}
        self.worker_fns = set()
        self.virtual_only = set()
        self.nonvirtual_names = set()
        self.hot_used_types = set()
        if not os.path.isdir(self.src):
            return
        spans_of, calls = {}, {}
        virtuals = set()
        worker_seed = set()
        throwing = set()
        per_file = []
        for path in iter_cpp_files(self.root, dirs=("src",)):
            with open(path, encoding="utf-8", errors="replace") as f:
                raw = f.read()
            clean = strip_comments_and_strings(raw)
            info = PerfFileInfo(raw, clean)
            for fn, names in info.spans_of.items():
                spans_of.setdefault(fn, set()).update(names)
            for fn, cs in info.calls.items():
                calls.setdefault(fn, set()).update(cs)
            worker_seed |= info.worker_callee_seed()
            virtuals |= info.virtual_names
            self.nonvirtual_names |= info.nonvirtual_names
            throwing.update(t for t, _ in info.throwing_moves)
            per_file.append((clean, info.function_spans))
        self.virtual_only = virtuals - self.nonvirtual_names
        self.hot_cost, self.hot_span = propagate_hot_costs(
            spans_of, calls, self.hot_profile)
        self.worker_fns = transitive_callees(worker_seed, calls)
        for clean, fspans in per_file:
            for fn, s, e in fspans:
                if hot_lookup(self.hot_cost, fn) is None:
                    continue
                body = clean[s:e]
                for t in throwing:
                    if t not in self.hot_used_types and \
                            re.search(rf"\b{re.escape(t)}\b", body):
                        self.hot_used_types.add(t)

    # -- layers DAG ---------------------------------------------------------

    def _load_layers(self):
        if not os.path.isfile(self.layers_path):
            self.config_errors.append(
                f"{os.path.relpath(self.layers_path, self.root)} is missing "
                "— the layer DAG is committed infrastructure; restore it")
            return
        try:
            with open(self.layers_path, encoding="utf-8") as f:
                data = json.load(f)
            modules = data["modules"]
            layers = {mod: set(spec["deps"]) for mod, spec in modules.items()}
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            self.config_errors.append(
                f"tools/yoso_layers.json is unparseable: {e}")
            return
        for mod, deps in layers.items():
            for dep in deps:
                if dep not in layers:
                    self.config_errors.append(
                        f"tools/yoso_layers.json: module `{mod}` depends on "
                        f"undeclared module `{dep}`")
        cycle = self._find_cycle(layers)
        if cycle:
            self.config_errors.append(
                "tools/yoso_layers.json: dependency cycle "
                + " -> ".join(cycle))
        if not self.config_errors:
            self.layers = layers

    @staticmethod
    def _find_cycle(graph):
        WHITE, GREY, BLACK = 0, 1, 2
        color = {n: WHITE for n in graph}
        trail = []

        def dfs(n):
            color[n] = GREY
            trail.append(n)
            for dep in sorted(graph.get(n, ())):
                if dep not in color:
                    continue
                if color[dep] == GREY:
                    return trail[trail.index(dep):] + [dep]
                if color[dep] == WHITE:
                    found = dfs(dep)
                    if found:
                        return found
            trail.pop()
            color[n] = BLACK
            return None

        for n in sorted(graph):
            if color[n] == WHITE:
                found = dfs(n)
                if found:
                    return found
        return None

    # -- header index -------------------------------------------------------

    def _index_headers(self):
        if not os.path.isdir(self.src):
            return
        for dirpath, dirnames, filenames in os.walk(self.src):
            dirnames[:] = [d for d in dirnames if not d.startswith("build")]
            for name in sorted(filenames):
                if not name.endswith((".h", ".hpp")):
                    continue
                path = os.path.join(dirpath, name)
                key = os.path.relpath(path, self.src).replace(os.sep, "/")
                with open(path, encoding="utf-8", errors="replace") as f:
                    raw = f.read()
                clean = strip_comments_and_strings(raw)
                self.header_clean[key] = clean
                self.header_includes[key] = self.parse_includes(
                    raw.splitlines(), clean.splitlines())
                broad, confident = extract_header_symbols(clean)
                self.header_broad[key] = broad
                self.header_confident[key] = confident
        # Unique-ownership map over the confident sets.
        counts = {}
        for key, syms in self.header_confident.items():
            for s in syms:
                counts.setdefault(s, []).append(key)
        self.owner = {s: keys[0] for s, keys in counts.items()
                      if len(keys) == 1}

    def closure_of(self, header_key):
        """Transitive project includes reachable from a header (inclusive)."""
        if header_key in self._closure:
            return self._closure[header_key]
        seen = set()
        stack = [header_key]
        while stack:
            k = stack.pop()
            if k in seen or k not in self.header_clean:
                continue
            seen.add(k)
            stack.extend(inc for inc, _ in self.header_includes.get(k, ()))
        self._closure[header_key] = seen
        return seen

    def parse_includes(self, raw_lines, clean_lines):
        """[(header_key, line)] of a file's direct project includes.
        Include paths are string literals, which the comment/string stripper
        blanks, so the PATH comes from the raw line; the comment-stripped
        line gates out commented-out directives."""
        out = []
        for idx, (raw, clean) in enumerate(zip(raw_lines, clean_lines),
                                           start=1):
            m = INCLUDE_RE.match(raw)
            if not m or not INCLUDE_RE.match(clean):
                continue
            inc = m.group(1)
            if inc in self.header_clean or \
                    os.path.isfile(os.path.join(self.src, inc)):
                out.append((inc, idx))
        return out


# -- rule: layer-dag --------------------------------------------------------

def layer_dag_violations(rel, raw_lines, clean_lines, ctx):
    """Per-file half of layer-dag: every cross-module include must be a
    declared edge of tools/yoso_layers.json."""
    if ctx is None or ctx.layers is None:
        return []
    mod = file_module(rel)
    if mod is None or mod not in ctx.layers:
        return []
    deps = ctx.layers[mod]
    violations = []
    for inc, idx in ctx.parse_includes(raw_lines, clean_lines):
        inc_mod = inc.split("/")[0]
        if inc_mod == mod or inc_mod not in ctx.layers:
            continue
        if inc_mod not in deps:
            violations.append(Violation(
                rel, idx, "layer-dag",
                f"`{mod}` may not include `{inc_mod}` — not a declared "
                "dependency in tools/yoso_layers.json (no upward or lateral "
                "includes)"))
    return violations


def layer_dag_tree_violations(root, ctx, observed_includes):
    """Tree-level half of layer-dag: declared-but-unused edges, include
    cycles among headers, and CMake link-dependency agreement.
    `observed_includes` maps module -> set of modules it actually includes,
    accumulated by the driver while scanning src/."""
    if ctx is None or ctx.layers is None:
        return []
    violations = []
    rel_json = "tools/yoso_layers.json"

    # Declared dependencies that no include uses are drift: the JSON must
    # describe the tree as it is, not as it once was.
    for mod in sorted(ctx.layers):
        observed = observed_includes.get(mod, set())
        for dep in sorted(ctx.layers[mod] - observed):
            violations.append(Violation(
                rel_json, 1, "layer-dag",
                f"declared dependency `{mod}` -> `{dep}` is never used by "
                "any include — remove it (or the code that should use it)"))

    # Include cycles among src/ headers (the file-level graph, finer than
    # the module DAG).
    state = {}

    def dfs(key, trail):
        state[key] = 1
        trail.append(key)
        for inc, _ in ctx.header_includes.get(key, ()):
            if inc not in ctx.header_clean:
                continue
            if state.get(inc) == 1:
                return trail[trail.index(inc):] + [inc]
            if state.get(inc, 0) == 0:
                found = dfs(inc, trail)
                if found:
                    return found
        trail.pop()
        state[key] = 2
        return None

    for key in sorted(ctx.header_clean):
        if state.get(key, 0) == 0:
            cycle = dfs(key, [])
            if cycle:
                violations.append(Violation(
                    "src/" + cycle[0], 1, "layer-dag",
                    "header include cycle: " + " -> ".join(cycle)))
                break

    # CMake agreement: each src/<mod>/CMakeLists.txt must link exactly
    # yoso_<dep> for the declared deps (Threads:: etc. are ignored).
    for mod in sorted(ctx.layers):
        cmk = os.path.join(root, "src", mod, "CMakeLists.txt")
        if not os.path.isfile(cmk):
            violations.append(Violation(
                f"src/{mod}/CMakeLists.txt", 1, "layer-dag",
                f"module `{mod}` declared in {rel_json} has no "
                "CMakeLists.txt"))
            continue
        with open(cmk, encoding="utf-8") as f:
            text = f.read()
        linked = set()
        for m in LINK_LIBS_RE.finditer(text):
            if m.group(1) != f"yoso_{mod}":
                continue
            linked.update(re.findall(r"\byoso_(\w+)", m.group(2)))
        declared = ctx.layers[mod]
        for extra in sorted(linked - declared):
            violations.append(Violation(
                f"src/{mod}/CMakeLists.txt", 1, "layer-dag",
                f"links yoso_{extra} but `{extra}` is not a declared "
                f"dependency of `{mod}` in {rel_json}"))
        for missing in sorted(declared - linked):
            violations.append(Violation(
                f"src/{mod}/CMakeLists.txt", 1, "layer-dag",
                f"declared dependency `{mod}` -> `{missing}` is not linked "
                f"(add yoso_{missing} to target_link_libraries)"))
    return violations


# -- rule: include-hygiene --------------------------------------------------

def paired_header(rel):
    """src/<mod>/<name>.cpp -> "<mod>/<name>.h" (the include key)."""
    norm = rel.replace(os.sep, "/")
    if not norm.endswith(".cpp"):
        return None
    parts = norm.split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return "/".join(parts[1:])[:-4] + ".h"
    return None


def include_hygiene_violations(rel, raw_lines, clean, clean_lines, ctx):
    if ctx is None:
        return []
    violations = []
    includes = ctx.parse_includes(raw_lines, clean_lines)
    pair = paired_header(rel)

    # (c) paired header first.  A TU that includes its own header behind
    # other includes hides missing includes in that header.
    pair_entries = [e for e in includes if e[0] == pair]
    if pair_entries and includes and includes[0][0] != pair:
        violations.append(Violation(
            rel, pair_entries[0][1], "include-hygiene",
            f'paired header "{pair}" must be the first include — including '
            "it first proves it self-contained on every build"))

    # (d) duplicate includes.
    seen = {}
    for inc, idx in includes:
        if inc in seen:
            violations.append(Violation(
                rel, idx, "include-hygiene",
                f'duplicate include "{inc}" (first at line {seen[inc]})'))
        else:
            seen[inc] = idx

    # Token set of the file minus its include lines.
    body_lines = [("" if INCLUDE_RE.match(raw) else clean_line)
                  for raw, clean_line in zip(raw_lines, clean_lines)]
    body_tokens = set(IDENT_RE.findall("\n".join(body_lines)))

    own_key = None
    norm = rel.replace(os.sep, "/")
    if norm.startswith("src/") and norm.endswith((".h", ".hpp")):
        own_key = norm[len("src/"):]

    # (a) unused direct includes.
    for inc, idx in includes:
        if inc == pair or inc == own_key:
            continue
        syms = ctx.header_broad.get(inc)
        if not syms:
            continue  # unindexed or symbol-free header: cannot judge
        if syms & body_tokens:
            continue
        violations.append(Violation(
            rel, idx, "include-hygiene",
            f'unused include "{inc}" — no symbol it exports is referenced '
            "here"))

    # (b) transitive-only dependencies that must become direct.
    direct = {inc for inc, _ in includes}
    reachable = set()
    for inc in direct:
        reachable |= ctx.closure_of(inc)
    own_syms, _ = extract_header_symbols(clean)
    direct_syms = set()
    for inc in direct:
        direct_syms |= ctx.header_broad.get(inc, set())
    flagged = set()
    for tok in sorted(body_tokens):
        h = ctx.owner.get(tok)
        if h is None or h in direct or h == own_key or h == pair:
            continue
        if h not in reachable or h in flagged:
            continue
        if tok in direct_syms or tok in own_syms:
            continue  # some direct include (or the file itself) declares it
        flagged.add(h)
        line = next((i for i, ln in enumerate(clean_lines, start=1)
                     if re.search(rf"\b{re.escape(tok)}\b", ln)
                     and not INCLUDE_RE.match(ln)), 1)
        violations.append(Violation(
            rel, line, "include-hygiene",
            f"`{tok}` is owned by \"{h}\" which is only included "
            "transitively — include it directly"))
    return violations


# -- rule: contract-coverage ------------------------------------------------

def _split_params(param_text):
    """Splits a parameter list at top-level commas, honouring (), [] and {}
    nesting (angle brackets were stripped by the caller)."""
    parts, depth, cur = [], 0, []
    for ch in param_text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _classify_param(piece):
    """Returns (kind, name) for one parameter: kind is "pointer",
    "integral" or None."""
    if "(" in piece or "[" in piece or "..." in piece:
        return None, None  # function pointers / lambdas / packs: skip
    piece = piece.split("=")[0].strip()  # drop default argument
    m = re.match(r"^(.*?)([A-Za-z_]\w*)$", piece)
    if not m:
        return None, None
    type_part, name = m.group(1).strip(), m.group(2)
    if not type_part:
        return None, None  # unnamed or type-only parameter
    if "*" in type_part:
        return "pointer", name
    base = re.sub(r"\b(?:const|volatile)\b", "", type_part)
    base = base.replace("&", " ").strip()
    base = re.sub(r"\s+", " ", base)
    if base in INT_PARAM_TYPES:
        return "integral", name
    return None, None


def _risky_use(body, kind, name):
    """Offset of the first use of the parameter that indexes/sizes memory,
    or None."""
    pats = []
    esc = re.escape(name)
    # `new T[n]` is an allocation sized by the parameter, not an access
    # into existing storage — outside this rule's charter.
    body = re.sub(r"\bnew\b[^;({\[]*\[[^\][]*\]", lambda m: " " * len(m.group(0)), body)
    if kind == "integral":
        pats.append(rf"\[[^\][]*\b{esc}\b[^\][]*\]")
        pats.append(rf"\.\s*(?:resize|reserve)\s*\([^()]*\b{esc}\b")
    else:  # pointer
        pats.append(rf"\b{esc}\s*\[")
        pats.append(rf"(?<![\w)\]])\*\s*{esc}\b")
    best = None
    for pat in pats:
        m = re.search(pat, body)
        if m and (best is None or m.start() < best):
            best = m.start()
    return best


def _guarded(body, name, kind="index"):
    esc = re.escape(name)
    if re.search(rf"(?:{'|'.join(GUARD_MACROS)})\s*\([^;]*\b{esc}\b", body):
        return True
    if kind == "pointer":
        # The optional-out-parameter idiom: a pointer the function
        # explicitly compares against nullptr is handled, not assumed —
        # the nullability test IS its contract.  Index parameters get no
        # such escape; a bare `if (i < n)` is a silent wrong-answer path,
        # not a contract.
        return bool(
            re.search(rf"\b{esc}\s*[!=]=\s*nullptr\b", body) or
            re.search(rf"\bnullptr\s*[!=]=\s*{esc}\b", body))
    return False


def _shadowed(body, name):
    esc = re.escape(name)
    return re.search(
        rf"\b(?:auto|size_t|int|long|unsigned|std::size_t)\s*[&*]?\s*"
        rf"{esc}\b\s*[=;:)]", body)


def _ns_spans(clean, names=("detail",), anonymous=True):
    """Character spans of `namespace detail { ... }` / anonymous-namespace
    bodies (entry points never live there)."""
    spans = []
    for m in re.finditer(r"\bnamespace\s+(\w*)\s*\{", clean):
        nm = m.group(1)
        if (nm in names) or (anonymous and nm == ""):
            open_pos = m.end() - 1
            close = match_close(clean, open_pos)
            spans.append((open_pos, close))
    for m in re.finditer(r"\bnamespace\s*\{", clean):
        open_pos = m.end() - 1
        close = match_close(clean, open_pos)
        if anonymous:
            spans.append((open_pos, close))
    return spans


def contract_coverage_violations(rel, clean):
    norm = rel.replace(os.sep, "/")
    if not norm.startswith("src/"):
        return []

    hidden = _ns_spans(clean)
    _, function_spans = classify_braces(clean)
    violations = []
    reported = set()
    for fn_name, bstart, bend in function_spans:
        if fn_name == "main" or any(a <= bstart < b for a, b in hidden):
            continue
        sig = _signature_before(clean, bstart)
        if sig is None:
            continue
        name, params, preamble = sig
        if name == "main":
            continue
        if re.search(r"\bstatic\b", preamble):
            continue  # file-local helper, not a public entry point
        body = clean[bstart:bend]
        for piece in params:
            kind, pname = _classify_param(piece)
            if kind is None:
                continue
            off = _risky_use(body, kind, pname)
            if off is None:
                continue
            if _guarded(body, pname, kind) or _shadowed(body, pname):
                continue
            line = line_of(clean, bstart + off)
            key = (line, pname)
            if key in reported:
                continue
            reported.add(key)
            what = ("raw pointer" if kind == "pointer"
                    else "size/index parameter")
            violations.append(Violation(
                rel, line, "contract-coverage",
                f"public entry point `{name}` lets {what} `{pname}` reach "
                "indexing/resize with no YOSO_REQUIRE/YOSO_CHECK/YOSO_DCHECK "
                "guard naming it"))
    return violations


def _signature_before(clean, brace_pos):
    """Parses the function signature whose body opens at `brace_pos`.
    Returns (name, [param pieces], preamble) or None.  Works on the
    angle-stripped preamble so template arguments cannot confuse the
    parameter-list match; lambdas (introducer `]` before the parameter
    list) and control statements yield None."""
    boundary = max(clean.rfind(";", 0, brace_pos),
                   clean.rfind("{", 0, brace_pos),
                   clean.rfind("}", 0, brace_pos))
    preamble = clean[boundary + 1:brace_pos]
    flat = preamble
    for _ in range(4):
        new = re.sub(r"<[^<>]*>", "", flat)
        if new == flat:
            break
        flat = new
    first = None
    for m in re.finditer(r"(~?[A-Za-z_]\w*)\s*\(", flat):
        if m.group(1) in CALL_KEYWORDS or m.group(1) in GUARD_MACROS:
            continue
        before = flat[:m.start()].rstrip()
        if before.endswith("]"):
            continue  # lambda introducer
        first = m
        break
    if first is None:
        return None
    open_pos = flat.index("(", first.end() - 1)
    depth, close_pos = 0, None
    for i in range(open_pos, len(flat)):
        if flat[i] == "(":
            depth += 1
        elif flat[i] == ")":
            depth -= 1
            if depth == 0:
                close_pos = i
                break
    if close_pos is None:
        return None
    params = _split_params(flat[open_pos + 1:close_pos])
    return first.group(1).lstrip("~"), params, flat[:first.start()]


# ---------------------------------------------------------------------------
# v4 perf-lint: profile-guided hot-path rules (DESIGN.md §15).
#
# Hot-set construction: a function is HOT when it opens a YOSO_TRACE_SPAN
# itself, or when it is a transitive callee (name-based call graph over all
# of src/) of a spanned function whose span appears in the profile with
# nonzero observed self-time.  A spanned-but-unprofiled function is hot in
# its own body (rank 0) but does not propagate — the profile, not the
# instrumentation, decides which subtrees burn time.  Each finding is ranked
# by the self-time of the innermost enclosing spanned function: a callee
# that opens its own profiled span keeps its own cost; otherwise it
# inherits the maximum cost over its spanned callers.
# ---------------------------------------------------------------------------

SPAN_MACRO_RE = re.compile(r'YOSO_TRACE_SPAN\s*\(\s*"([^"]+)"')
LOOP_HEAD_RE = re.compile(r"\b(?:for|while)\s*\(")
ALLOC_CALL_RE = re.compile(
    r"\b(?:std\s*::\s*)?make_(?:unique|shared)\s*<|(?<![\w_])new\b(?!\s*\()")
STD_FUNCTION_RE = re.compile(r"\bstd\s*::\s*function\s*<")
VECTOR_LOOP_DECL_RE = re.compile(
    r"\b(?:const\s+)?std\s*::\s*vector\s*<[^;={}]*>\s+(\w+)\s*[({=]")
GROW_RE = re.compile(
    r"\b(\w+)\s*\.\s*(?:push_back|emplace_back)\s*\(")
LOCK_RE = re.compile(
    r"\bMutexLock\b|\bstd\s*::\s*(?:lock_guard|unique_lock|scoped_lock)\b"
    r"|\.\s*lock\s*\(\s*\)|\bwith_lock\s*\(")
MEMBER_CALL_RE = re.compile(r"(?:->|\.)\s*(\w+)\s*\(")
RANGE_FOR_DECL_RE = re.compile(  # `(?<!:):(?!:)`: the range `:`, not `::`
    r"\bfor\s*\(\s*([^;()]*?)\s*(\w+)\s*(?<!:):(?!:)\s*([^)]+)\)")
HEAVY_TYPE_RE = re.compile(  # no `<`: callers may have stripped <args>
    r"\b(?:Matrix|Tensor|std\s*::\s*vector\b|std\s*::\s*string\b)")
HEAVY_ELEM_DECL_RE = re.compile(
    r"\bstd\s*::\s*vector\s*<\s*(?:std\s*::\s*vector|std\s*::\s*string"
    r"|Matrix|Tensor)\b[^;]*?[\s>]\s*(\w+)\s*[;({=]")
#: hot-mutex does not apply to the bottom infrastructure layers: the pool's
#: own queue handshake and the obs registries ARE the locks.
MUTEX_EXEMPT_PREFIXES = ("src/base/", "src/obs/", "src/util/")

#: the serve control plane is exempt from the whole hot-* family.  It runs
#: on daemon threads (accept loop, connection handlers, the single job
#: worker) that sit outside the evaluation pipeline — queue locks and
#: per-request string building ARE its job — and the name-based call graph
#: would otherwise pull it into the hot set through pure name collisions
#: (`submit`, `run`, `stop` collide with SearchLoop/SearchDriver names).
#: The eval-side code serve drives is still checked in its own files.
PERF_EXEMPT_PREFIXES = ("src/serve/",)


class HotProfile:
    """Tolerant span-cost profile loader.  Accepts the `bench_throughput
    --emit-profile` format ({"spans": [{name, count, total_ns, self_ns}]}),
    a bare list of such records, or a Chrome trace ({"traceEvents": [...]},
    microsecond durations)."""

    def __init__(self):
        self.self_ns = {}
        self.path = None

    @classmethod
    def load(cls, path):
        prof = cls()
        prof.path = path
        if not path or not os.path.isfile(path):
            return prof
        try:
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError):
            return prof
        if isinstance(data, dict) and isinstance(data.get("spans"), list):
            entries = data["spans"]
        elif isinstance(data, dict) and \
                isinstance(data.get("traceEvents"), list):
            entries = [{"name": e.get("name"),
                        "self_ns": int(e.get("dur", 0)) * 1000}
                       for e in data["traceEvents"] if isinstance(e, dict)]
        elif isinstance(data, list):
            entries = data
        else:
            entries = []
        for e in entries:
            if not isinstance(e, dict) or not e.get("name"):
                continue
            try:
                ns = int(e.get("self_ns", e.get("total_ns", 0)))
            except (TypeError, ValueError):
                continue
            name = str(e["name"])
            prof.self_ns[name] = prof.self_ns.get(name, 0) + max(ns, 0)
        return prof


def bare_name(fn):
    """`Class::method` -> `method`; a bare name is returned as is."""
    return fn.rsplit("::", 1)[-1]


def hot_lookup(table, fn, default=None):
    """A function's entry in a propagate_hot_costs map: under its own
    qualified key when it opens spans, else under the bare name its
    callers reach it by."""
    if fn in table:
        return table[fn]
    return table.get(bare_name(fn), default)


def propagate_hot_costs(spans_of, calls, profile):
    """(cost, span) maps; read them with hot_lookup().  A function that
    opens spans seeds the hot set under its qualified definition name
    (`Class::method`) with the best observed self-time of its own spans,
    so a same-named method of another class is not hot by its name alone.
    Costs > 0 propagate to transitive callees along name-based edges,
    keyed by the callee's bare name, where a callee's OWN span always wins
    (the innermost enclosing span is the one the profiler charged)."""
    cost, span = {}, {}
    for fn, names in spans_of.items():
        best = max(sorted(names), key=lambda s: profile.self_ns.get(s, 0))
        cost[fn] = profile.self_ns.get(best, 0)
        span[fn] = best
    for _ in range(len(calls) + 1):
        grew = False
        for fn, callees in calls.items():
            inherited = hot_lookup(cost, fn, 0)
            if inherited <= 0:
                continue
            for c in callees:
                if c in spans_of:
                    continue  # its own span wins
                if cost.get(c, -1) < inherited:
                    cost[c] = inherited
                    span[c] = hot_lookup(span, fn)
                    grew = True
        if not grew:
            break
    return cost, span


def transitive_callees(seed, calls):
    """Bare names reachable from the bare names in `seed`: a call edge
    reaches every function of that name, whatever its class."""
    by_name = {}
    for fn, cs in calls.items():
        by_name.setdefault(bare_name(fn), set()).update(cs)
    out = set(seed)
    stack = list(seed)
    while stack:
        fn = stack.pop()
        for c in by_name.get(fn, ()):
            if c not in out:
                out.add(c)
                stack.append(c)
    return out


class PerfFileInfo:
    """Per-file perf facts: function char-spans, the YOSO_TRACE_SPAN names
    each function opens, the local call graph, worker lambda regions
    (parallel_for bodies, inline or via a named `auto fn = [...]`),
    virtual-vs-plain method names, and throwing-move types."""

    def __init__(self, text, clean):
        self.clean = clean
        self.scopes_at, self.function_spans = classify_braces(clean)
        self.spans_of = {}        # fn -> set of span names it opens
        self.calls = {}           # fn -> set of called names
        self.worker_regions = []  # [(start, end)] worker-body char spans
        self.virtual_names = set()
        self.nonvirtual_names = set()
        self.throwing_moves = []  # [(type name, line of the move decl)]
        self._index(text, clean)

    def _index(self, text, clean):
        for fn, start, end in self.function_spans:
            names = set(SPAN_MACRO_RE.findall(text[start:end]))
            if names:
                self.spans_of.setdefault(fn, set()).update(names)
            body = clean[start:end]
            self.calls.setdefault(fn, set()).update(
                m.group(1) for m in CALL_RE.finditer(body)
                if m.group(1) not in CALL_KEYWORDS)

        # Named lambdas: `auto name = [caps](args) { ... }`.
        lambda_spans = {}
        for m in re.finditer(r"\bauto\s+(\w+)\s*=\s*\[", clean):
            j = match_close(clean, m.end() - 1, "[", "]") + 1
            while j < len(clean) and clean[j] in " \t\n":
                j += 1
            if j < len(clean) and clean[j] == "(":
                j = match_close(clean, j, "(", ")") + 1
            mm = re.match(r"[\s]*(?:mutable|noexcept)?[\s]*"
                          r"(?:->\s*[\w:<>,\s&*]+?)?[\s]*\{", clean[j:])
            if mm:
                open_pos = j + mm.end() - 1
                lambda_spans[m.group(1)] = (
                    open_pos, match_close(clean, open_pos))

        # Worker regions: lambda bodies handed to parallel_for — inline, or
        # by naming a lambda declared above.
        for m in re.finditer(r"\bparallel_for\s*\(", clean):
            args_open = m.end() - 1
            args_close = match_close(clean, args_open,
                                                     "(", ")")
            body_open = clean.find("{", args_open, args_close)
            if body_open != -1:
                self.worker_regions.append(
                    (body_open, match_close(clean,
                                                            body_open)))
            for ident in IDENT_RE.findall(clean[args_open:args_close + 1]):
                if ident in lambda_spans:
                    self.worker_regions.append(lambda_spans[ident])

        # Virtual-vs-plain declared names: a name is "unambiguously virtual"
        # only when NO plain declaration of it exists anywhere (the caller
        # subtracts across the whole project index too).
        skeleton = _blank_function_bodies(clean)
        for line in skeleton.splitlines():
            tagged = re.search(r"\bvirtual\b|\boverride\b", line)
            for m in FUNC_NAME_RE.finditer(line):
                nm = m.group(1)
                if nm in CALL_KEYWORDS or nm in GUARD_MACROS:
                    continue
                (self.virtual_names if tagged
                 else self.nonvirtual_names).add(nm)

        # Throwing-move types: a class whose user-declared move ctor or move
        # assignment is neither defaulted/deleted nor noexcept.
        for m in re.finditer(r"\b(?:class|struct)\s+([A-Za-z_]\w*)"
                             r"[^;{()]*\{", clean):
            cname = m.group(1)
            body_open = m.end() - 1
            body_close = match_close(clean, body_open)
            body = clean[body_open:body_close]
            esc = re.escape(cname)
            for dm in re.finditer(
                    rf"\b{esc}\s*\(\s*{esc}\s*&&|\boperator=\s*\(\s*{esc}"
                    rf"\s*&&", body):
                ends = [x for x in (body.find(";", dm.start()),
                                    body.find("{", dm.start())) if x != -1]
                decl = body[dm.start():min(ends)] if ends \
                    else body[dm.start():]
                if re.search(r"\bnoexcept\b|=\s*(?:default|delete)\b", decl):
                    continue
                self.throwing_moves.append(
                    (cname,
                     line_of(clean, body_open + dm.start())))

    def worker_callee_seed(self):
        seed = set()
        for a, b in self.worker_regions:
            seed.update(m.group(1)
                        for m in CALL_RE.finditer(self.clean[a:b])
                        if m.group(1) not in CALL_KEYWORDS)
        return seed


def _loop_regions(clean, start, end):
    """[(head_offset, body_start, body_end, depth)] for every braced
    for/while loop inside [start, end); depth counts loop nesting."""
    regions = []
    for m in LOOP_HEAD_RE.finditer(clean, start, end):
        head_open = clean.find("(", m.start(), end)
        if head_open == -1:
            continue
        head_close = match_close(clean, head_open, "(", ")")
        body_open = clean.find("{", head_close, end)
        if body_open == -1 or clean[head_close + 1:body_open].strip():
            continue  # braceless or `while (...);`
        body_close = min(match_close(clean, body_open), end)
        regions.append([m.start(), body_open, body_close, 1])
    for r in regions:
        r[3] += sum(1 for o in regions
                    if o is not r and o[1] < r[0] < o[2])
    return [(a, b, c, d) for a, b, c, d in regions]


def _enclosing_fn(function_spans, off):
    best = None
    for fn, s, e in function_spans:
        if s <= off < e and (best is None or (e - s) < (best[2] - best[1])):
            best = (fn, s, e)
    return best[0] if best else None


def scan_perf(rel, clean, info, ctx):
    """The v4 perf-rule family.  Applies to src/ only (fixtures map there);
    fixtures outside the project index classify themselves through their
    own YOSO_TRACE_SPAN roots, merged with the project-wide hot set."""
    norm = rel.replace(os.sep, "/")
    if not norm.startswith("src/") or norm.startswith(PERF_EXEMPT_PREFIXES):
        return []

    profile = ctx.hot_profile if ctx is not None else HotProfile()
    local_cost, local_span = propagate_hot_costs(info.spans_of, info.calls,
                                                 profile)
    cost = dict(ctx.hot_cost) if ctx is not None else {}
    span = dict(ctx.hot_span) if ctx is not None else {}
    for fn, c in local_cost.items():
        if c >= cost.get(fn, -1):
            cost[fn] = c
            span[fn] = local_span[fn]

    worker = set(ctx.worker_fns) if ctx is not None else set()
    worker |= transitive_callees(info.worker_callee_seed(), info.calls)

    virtual_only = set(ctx.virtual_only) if ctx is not None else set()
    virtual_only |= info.virtual_names
    virtual_only -= info.nonvirtual_names
    if ctx is not None:
        virtual_only -= ctx.nonvirtual_names

    violations = []

    def emit(off, rule, message):
        fn = _enclosing_fn(info.function_spans, off) or ""
        violations.append(Violation(
            rel, line_of(clean, off), rule, message,
            rank=hot_lookup(cost, fn, 0), span=hot_lookup(span, fn)))

    hot_fn_spans = [(fn, s, e) for fn, s, e in info.function_spans
                    if hot_lookup(cost, fn) is not None]

    # Regions where per-iteration allocation is banned: loop bodies of hot
    # functions plus worker lambda bodies.
    alloc_regions = [(b, c) for fn, s, e in hot_fn_spans
                     for _, b, c, _ in _loop_regions(clean, s, e)]
    alloc_regions += info.worker_regions
    seen_alloc = set()
    for a, b in alloc_regions:
        fn_start = next((s for fn, s, e in info.function_spans
                         if s <= a < e), 0)
        for m in ALLOC_CALL_RE.finditer(clean, a, b):
            if m.start() in seen_alloc:
                continue
            seen_alloc.add(m.start())
            emit(m.start(), "hot-alloc",
                 "heap allocation per iteration on a hot path — hoist it "
                 "out of the loop")
        for m in STD_FUNCTION_RE.finditer(clean, a, b):
            if m.start() in seen_alloc:
                continue
            seen_alloc.add(m.start())
            emit(m.start(), "hot-alloc",
                 "std::function constructed per iteration on a hot path — "
                 "it may heap-allocate; hoist it or use a template/auto "
                 "callable")
        for m in VECTOR_LOOP_DECL_RE.finditer(clean, a, b):
            if m.start() in seen_alloc:
                continue
            seen_alloc.add(m.start())
            emit(m.start(), "hot-alloc",
                 f"std::vector `{m.group(1)}` constructed per iteration on "
                 "a hot path — hoist the buffer out and reuse its capacity")
        for m in GROW_RE.finditer(clean, a, b):
            var = m.group(1)
            if re.search(rf"\b{re.escape(var)}\s*\.\s*(?:reserve|resize)"
                         rf"\s*\(", clean[fn_start:a]):
                continue  # a dominating reserve/resize caps reallocation
            if m.start() in seen_alloc:
                continue
            seen_alloc.add(m.start())
            emit(m.start(), "hot-alloc",
                 f"`{var}` grows per iteration on a hot path with no "
                 "dominating reserve() before the loop")

    # hot-heavy-copy: by-value heavy parameters of hot functions, heavy
    # range-for without `&`, and heavy copy-init from an lvalue in hot
    # loops.
    heavy_elem_vars = {m.group(1)
                       for m in HEAVY_ELEM_DECL_RE.finditer(clean)}
    reported_sig = set()
    for fn, s, e in hot_fn_spans:
        sig = _signature_before(clean, s)
        if sig is not None and (fn, s) not in reported_sig:
            reported_sig.add((fn, s))
            sig_name, params, _ = sig
            # Search from the start of the declaration so member-init lists
            # (`: m_(std::move(p))`) count as well as the body.
            decl_start = max(clean.rfind(";", 0, s),
                             clean.rfind("{", 0, s),
                             clean.rfind("}", 0, s), 0)
            moved_from = set(re.findall(r"\bmove\s*\(\s*(\w+)\s*\)",
                                        clean[decl_start:e]))
            for piece in params:
                if not (HEAVY_TYPE_RE.search(piece) and "&" not in piece
                        and "*" not in piece and "span" not in piece):
                    continue
                pm = re.match(r"^(.*?)([A-Za-z_]\w*)\s*(?:=.*)?$",
                              piece.strip())
                pname = pm.group(2) if pm else None
                if pname and pname in moved_from:
                    continue  # by-value + move is the sink idiom, not a copy
                emit(s, "hot-heavy-copy",
                     f"hot function `{sig_name}` takes a heavy argument by "
                     f"value (`{piece.strip()}`) — pass by const "
                     "reference or std::span")
        for m in RANGE_FOR_DECL_RE.finditer(clean, s, e):
            decl, _, range_expr = m.group(1), m.group(2), m.group(3)
            if "&" in decl or "*" in decl:
                continue
            heavy = bool(HEAVY_TYPE_RE.search(decl))
            if not heavy and re.fullmatch(r"(?:const\s+)?auto", decl.strip()):
                idents = set(IDENT_RE.findall(range_expr))
                heavy = bool(idents & heavy_elem_vars)
            if heavy:
                emit(m.start(), "hot-heavy-copy",
                     "range-for copies a heavy element per iteration on a "
                     "hot path — take `const auto&`")
        for _, b, c, _ in _loop_regions(clean, s, e):
            for m in re.finditer(
                    r"\b(?:const\s+)?(?:Matrix|Tensor)\s+\w+\s*=\s*"
                    r"(\w+)\s*;", clean[b:c]):
                emit(b + m.start(), "hot-heavy-copy",
                     f"heavy copy-initialisation from `{m.group(1)}` "
                     "inside a hot loop — bind a const reference instead")

    # hot-virtual: virtual dispatch inside hot INNER loops (nesting >= 2) —
    # a per-batch virtual call amortises, a per-element one does not.
    for fn, s, e in hot_fn_spans:
        for _, b, c, depth in _loop_regions(clean, s, e):
            if depth < 2:
                continue
            for m in MEMBER_CALL_RE.finditer(clean, b, c):
                if m.group(1) in virtual_only:
                    emit(m.start(), "hot-virtual",
                         f"virtual dispatch through `{m.group(1)}` inside "
                         "a hot inner loop — devirtualise or hoist the "
                         "call out of the loop")

    # hot-mutex: lock acquisition in worker-role code outside the exempt
    # infrastructure layers.
    if not norm.startswith(MUTEX_EXEMPT_PREFIXES):
        mutex_regions = list(info.worker_regions)
        mutex_regions += [(s, e) for fn, s, e in info.function_spans
                          if bare_name(fn) in worker]
        seen_lock = set()
        for a, b in mutex_regions:
            for m in LOCK_RE.finditer(clean, a, b):
                if m.start() in seen_lock:
                    continue
                seen_lock.add(m.start())
                emit(m.start(), "hot-mutex",
                     "lock acquired in worker-role code — workers must "
                     "stay lock-free; move the synchronisation to the "
                     "coordinator")

    # hot-noexcept-move: a throwing-move type referenced from hot code —
    # vector growth will copy it.
    hot_used = set(ctx.hot_used_types) if ctx is not None else set()
    for fn, s, e in hot_fn_spans:
        body = clean[s:e]
        for t, _ in info.throwing_moves:
            if re.search(rf"\b{re.escape(t)}\b", body):
                hot_used.add(t)
    for t, line in info.throwing_moves:
        if t in hot_used:
            violations.append(Violation(
                rel, line, "hot-noexcept-move",
                f"`{t}` is used on hot paths but its move operation is not "
                "`noexcept` — std::vector growth falls back to copying; "
                "mark it `noexcept` (or `= default`)"))
    return violations


# ---------------------------------------------------------------------------
# Scope, alias and call-graph analysis
# ---------------------------------------------------------------------------

ALIAS_USING_RE = re.compile(r"\busing\s+(\w+)\s*=\s*([^;]+);")
ALIAS_TYPEDEF_RE = re.compile(r"\btypedef\s+([^;]+?)\s+(\w+)\s*;")

WRITE_RE = re.compile(
    r"\b(\w+)\s*(?:\+\+|--|(?<![=!<>+\-*/%&|^])=(?!=)"
    r"|\+=|-=|\*=|/=|%=|&=|\|=|\^=|<<=|>>=)"
    r"|(?:\+\+|--)\s*(\w+)")

CALL_RE = re.compile(r"\b(\w+)\s*\(")
CALL_KEYWORDS = frozenset((
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "decltype", "catch", "assert", "defined", "static_cast", "const_cast",
    "reinterpret_cast", "dynamic_cast", "noexcept",
))

NS_VAR_DECL_RE = re.compile(
    r"^\s*(?:inline\s+|static\s+|thread_local\s+)*"
    r"(?!const\b|constexpr\b|constinit\b|using\b|typedef\b|namespace\b"
    r"|class\b|struct\b|enum\b|union\b|template\b|extern\b|friend\b"
    r"|return\b|static_assert\b)"
    r"[A-Za-z_][\w:<>,\s*&]*?[\s*&](\w+)\s*(?:=[^;]*|\{[^;()]*\})?;\s*$")


class _Scope:
    __slots__ = ("kind", "name", "start", "resume")

    def __init__(self, kind, name, start, resume=None):
        self.kind = kind    # namespace | class | function | block
        self.name = name
        self.start = start  # offset of the opening brace
        self.resume = resume  # preamble start to restore on close, if any


def collect_aliases(clean):
    """{alias: resolved right-hand side} of a file's typedef/using
    aliases."""
    aliases = {}
    for m in ALIAS_USING_RE.finditer(clean):
        aliases[m.group(1)] = m.group(2)
    for m in ALIAS_TYPEDEF_RE.finditer(clean):
        aliases[m.group(2)] = m.group(1)
    # Resolve transitively (aliases of aliases), bounded to avoid cycles.
    for _ in range(4):
        changed = False
        for name, rhs in list(aliases.items()):
            def sub(mm):
                return aliases[mm.group(0)]
            new = re.sub(
                r"\b(" + "|".join(map(re.escape, aliases)) + r")\b",
                sub, rhs) if aliases else rhs
            if new != rhs and name not in IDENT_RE.findall(new):
                aliases[name] = new
                changed = True
        if not changed:
            break
    return aliases


def classify_braces(clean):
    """Returns (scopes_at, function_spans): for every opening-brace
    offset its scope kind, and [(name, start, end)] for function-like
    bodies, named as defined: `Class::method` for a qualified definition
    or one inside a class body, else the bare name.  Classification looks
    at the preamble between the previous ';' / '{' / '}' and the brace.  A
    brace opened inside a statement (a lambda, a braced argument or member
    initializer) does not end it: once it closes, the next preamble starts
    where its own did."""
    stack = []
    scopes_at = {}
    function_spans = []
    boundary = 0
    i, n = 0, len(clean)
    while i < n:
        c = clean[i]
        if c in ";":
            boundary = i + 1
        elif c == "{":
            kind, name, inside = classify_preamble(clean[boundary:i])
            if kind == "function" and "::" not in name and stack and \
                    stack[-1].kind == "class" and stack[-1].name:
                name = f"{stack[-1].name}::{name}"
            # A brace directly inside a class with no '(' is usually a
            # member initializer — treat as block; close enough.
            scopes_at[i] = kind
            stack.append(_Scope(kind, name, i, boundary if inside else None))
            boundary = i + 1
        elif c == "}":
            boundary = i + 1
            if stack:
                scope = stack.pop()
                if scope.kind == "function" and scope.name:
                    function_spans.append((scope.name, scope.start, i))
                if scope.resume is not None:
                    boundary = scope.resume
        i += 1
    return scopes_at, function_spans


#: keywords whose parenthesised head opens a block, not a function
CONTROL_KEYWORDS = frozenset(("if", "for", "while", "switch", "catch"))
#: words that end a function declarator just before its body
SPECIFIER_TAIL_RE = r"\b(?:const|override|final|noexcept|mutable|try)$"


def _open_parens(text):
    return text.count("(") - text.count(")")


def _inside_statement(p):
    """True for a brace that opens inside an unfinished statement: in an
    argument list (a lambda, a braced argument), or as a constructor's
    braced member initializer (`Ctor(...) : member_{`)."""
    return _open_parens(p) > 0 or bool(
        re.search(r"\)\s*:(?!:)", p) and re.search(r"\w$", p) and
        not re.search(SPECIFIER_TAIL_RE, p))


def _drop_balanced(text, head_re):
    """Removes every match of `head_re` together with the balanced
    parenthesised group that follows it: `__attribute__((...))`,
    `alignas(...)`, `decltype(...)`."""
    while True:
        m = re.search(head_re, text)
        if not m:
            return text
        j = m.end()
        while j < len(text) and text[j] in " \t\n":
            j += 1
        if j >= len(text) or text[j] != "(":
            return text[:m.start()] + text[m.end():]
        text = text[:m.start()] + text[match_close(text, j, "(", ")") + 1:]


def classify_preamble(preamble):
    """(kind, name, inside): the scope a brace opens, its function name,
    and whether the brace opens inside an unfinished statement — an
    argument list (a lambda, a braced argument) or a constructor's braced
    member initializer."""
    p = re.sub(r"(?m)^[ \t]*#.*$", "", preamble).strip()  # preprocessor
    if re.search(r"\bnamespace\b", p):
        return "namespace", None, False
    if re.search(r'\bextern\s*$', p):
        return "namespace", None, False
    m_class = re.match(r"^(?:template\s*<[^{]*>\s*)?"
                       r"(?:class|struct|union|enum)\b", p)
    if m_class:
        m_name = re.search(r"\b(?:class|struct|union)\s+"
                           r"(?:(?:alignas\s*\([^)]*\)|[A-Z][A-Z0-9_]*"
                           r"(?:\s*\([^)]*\))?)\s*)?(\w+(?:::\w+)*)", p)
        return "class", m_name.group(1) if m_name else None, False
    if _inside_statement(p):
        return "block", None, True
    if "(" not in p or _open_parens(p) != 0:
        return "block", None, False  # initializer, else/do/try, for head
    # Function-ish: a parameter list.  The name is the (possibly qualified)
    # identifier before the first '(' once attributes, decltype and
    # template arguments are dropped, so a constructor is not named after
    # its last member initializer, nor a function after a trailing macro;
    # a control keyword heads a block.
    flat = re.sub(r"\[\[.*?\]\]", "", p, flags=re.S)
    flat = _drop_balanced(flat, r"\b(?:__attribute__|alignas|decltype)\b")
    prev = None
    while prev != flat:
        prev, flat = flat, re.sub(r"<[^<>]*>", "", flat)
    m = re.search(r"((?:\w+\s*::\s*)*~?\w+)\s*\(", flat)
    if m is None or bare_name(m.group(1)) in CONTROL_KEYWORDS:
        return "block", None, False
    name = "::".join(part.strip().lstrip("~")
                     for part in m.group(1).split("::"))
    return "function", name, False


def line_of(clean, offset):
    return clean.count("\n", 0, offset) + 1


def match_close(clean, open_pos, open_ch="{", close_ch="}"):
    depth = 0
    for i in range(open_pos, len(clean)):
        if clean[i] == open_ch:
            depth += 1
        elif clean[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return len(clean) - 1


def unordered_names(clean, clean_lines):
    """(variables, functions) of unordered-container type, seen through
    typedef/using aliases and `auto`."""
    aliases = collect_aliases(clean)
    unordered_alias_names = {name for name, rhs in aliases.items()
                             if UNORDERED_NAME_RE.search(rhs)}

    # Unordered variables: direct declarations (v1) + alias-typed
    # declarations + `auto` bound to a known unordered variable.
    unordered_vars = set()
    for line in clean_lines:
        for m in UNORDERED_DECL_RE.finditer(line):
            unordered_vars.add(m.group(1))
    for alias in unordered_alias_names:
        for m in re.finditer(
                rf"\b{re.escape(alias)}\b\s*[&*]?\s*(\w+)\s*[;,)({{=]",
                clean):
            unordered_vars.add(m.group(1))
    for m in re.finditer(r"\bauto\s*[&*]?\s*(\w+)\s*=\s*([^;]+);", clean):
        rhs_idents = set(IDENT_RE.findall(m.group(2)))
        if rhs_idents & unordered_vars and not re.search(
                r"\.\s*(find|count|at|size|contains|emplace|insert|"
                r"erase)\b", m.group(2)):
            unordered_vars.add(m.group(1))

    # Functions returning unordered containers: `Ret name(...) {` where
    # Ret resolves (through aliases) to an unordered container.
    unordered_fns = set()
    for m in re.finditer(
            r"^[ \t]*((?:[\w:]+\s*(?:<[^;{}()]*>)?[\s&*]+))(\w+)"
            r"\s*\([^;{}]*\)\s*(?:const\s*)?\{",
            clean, re.MULTILINE):
        ret = m.group(1)
        ret_resolved = ret
        for alias in unordered_alias_names:
            if re.search(rf"\b{re.escape(alias)}\b", ret):
                ret_resolved = aliases[alias]
        if UNORDERED_NAME_RE.search(ret_resolved):
            unordered_fns.add(m.group(2))
    return unordered_vars, unordered_fns


# -- rule: parallel-purity --------------------------------------------------

def parallel_purity_violations(rel, clean, info):
    """Writes to namespace-scope mutable state in, or reachable through the
    call graph from, the file's parallel_for bodies (info.worker_regions:
    inline lambdas and named ones)."""
    scopes_at, function_spans = info.scopes_at, info.function_spans

    # Namespace-scope mutable variables (the shared state the rule
    # protects).  thread_local is exempt here — it is per-thread by
    # construction (and already banned in src/ by static-state).
    global_vars = set()
    offset = 0
    depth_stack = []
    for raw_line in clean.splitlines(keepends=True):
        at_ns_scope = all(k == "namespace" for k in depth_stack)
        if at_ns_scope and "thread_local" not in raw_line:
            m = NS_VAR_DECL_RE.match(raw_line.rstrip("\n"))
            if m and "(" not in raw_line.split("=")[0]:
                global_vars.add(m.group(1))
        for i, ch in enumerate(raw_line):
            if ch == "{":
                depth_stack.append(scopes_at.get(offset + i, "block"))
            elif ch == "}" and depth_stack:
                depth_stack.pop()
        offset += len(raw_line)

    if not global_vars:
        return []

    def writes_in(span_text):
        found = {}
        for m in WRITE_RE.finditer(span_text):
            name = m.group(1) or m.group(2)
            if name in global_vars:
                found.setdefault(name, m.start())
        return found

    def calls_in(span_text):
        return {m.group(1) for m in CALL_RE.finditer(span_text)
                if m.group(1) not in CALL_KEYWORDS}

    # Direct writers, then transitive closure over the call graph.
    body_of = {}
    for fn_name, start, end in function_spans:
        body_of.setdefault(bare_name(fn_name), []).append(clean[start:end])
    impure = {fn for fn, bodies in body_of.items()
              if any(writes_in(b) for b in bodies)}
    for _ in range(len(body_of)):
        grew = False
        for fn, bodies in body_of.items():
            if fn in impure:
                continue
            if any(calls_in(b) & impure for b in bodies):
                impure.add(fn)
                grew = True
        if not grew:
            break

    violations = []
    for body_open, body_close in info.worker_regions:
        body = clean[body_open:body_close]
        for name, rel_off in sorted(writes_in(body).items(),
                                    key=lambda kv: kv[1]):
            violations.append(Violation(
                rel, line_of(clean, body_open + rel_off),
                "parallel-purity",
                f"parallel_for body writes namespace-scope mutable "
                f"`{name}` — a data race and thread-count-dependent "
                "behaviour"))
        for cm in CALL_RE.finditer(body):
            callee = cm.group(1)
            if callee in CALL_KEYWORDS or callee == "parallel_for":
                continue
            if callee in impure:
                violations.append(Violation(
                    rel, line_of(clean, body_open + cm.start()),
                    "parallel-purity",
                    f"parallel_for body calls `{callee}` which "
                    "(transitively) writes namespace-scope mutable "
                    "state — not pure, races under the pool"))
    return violations


def scan_file(rel, text, ctx=None):
    """Every per-file rule over one file.  `ctx` is the whole-tree
    ProjectContext; without it layer-dag and include-hygiene are skipped
    and the perf rules see only the file's own spans."""
    clean = strip_comments_and_strings(text)
    clean_lines = clean.splitlines()
    raw_lines = text.splitlines()
    violations = scan_lines_shared(rel, clean_lines, path_scopes(rel))
    violations.extend(layer_dag_violations(rel, raw_lines, clean_lines, ctx))
    violations.extend(include_hygiene_violations(
        rel, raw_lines, clean, clean_lines, ctx))
    violations.extend(contract_coverage_violations(rel, clean))
    info = PerfFileInfo(text, clean)
    violations.extend(scan_perf(rel, clean, info, ctx))
    unordered_vars, unordered_fns = unordered_names(clean, clean_lines)
    violations.extend(unordered_iter_violations(
        rel, clean_lines, unordered_vars, unordered_fns))
    violations.extend(parallel_purity_violations(rel, clean, info))
    return violations


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def scan_with_allows(rel, text, ctx=None):
    violations = scan_file(rel, text, ctx=ctx)
    allows = collect_allows(text.splitlines())
    kept, used_allows = [], 0
    seen = set()
    for v in violations:
        key = (v.line, v.rule, v.message)
        if key in seen:
            continue  # e.g. a write inside nested parallel_for bodies
        seen.add(key)
        if v.rule in allows.get(v.line, set()):
            used_allows += 1
        else:
            kept.append(v)
    return kept, used_allows


def iter_cpp_files(root, dirs=SCAN_DIRS):
    for d in dirs:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [x for x in dirnames if not x.startswith("build")]
            for name in sorted(filenames):
                if name.endswith(CPP_EXTENSIONS):
                    yield os.path.join(dirpath, name)


def check_headers(root, cxx):
    """Compiles every header under src/ standalone (first include of an empty
    TU); a header that relies on its includer's includes fails here."""
    violations = []
    headers = [p for p in iter_cpp_files(root, dirs=("src",))
               if p.endswith((".h", ".hpp"))]
    for path in headers:
        rel = os.path.relpath(path, root)
        include = os.path.relpath(path, os.path.join(root, "src"))
        with tempfile.NamedTemporaryFile(
                mode="w", suffix=".cpp", delete=False) as tu:
            tu.write(f'#include "{include}"\n')
            tu_path = tu.name
        try:
            proc = subprocess.run(
                [cxx, "-std=c++20", "-fsyntax-only",
                 "-I", os.path.join(root, "src"), tu_path],
                capture_output=True, text=True)
            if proc.returncode != 0:
                first = proc.stderr.strip().splitlines()
                detail = first[0] if first else "compile failed"
                violations.append(Violation(
                    rel, 1, "header-self-contained",
                    f"header does not compile standalone: {detail}"))
        finally:
            os.unlink(tu_path)
    return violations


def collect_observed_includes(root, ctx):
    """module -> set of other modules its files directly include, for the
    declared-but-unused-dependency half of layer-dag."""
    observed = {}
    for path in iter_cpp_files(root, dirs=("src",)):
        rel = os.path.relpath(path, root)
        mod = file_module(rel)
        if mod is None:
            continue
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
        clean_lines = strip_comments_and_strings(raw).splitlines()
        for inc, _ in ctx.parse_includes(raw.splitlines(), clean_lines):
            inc_mod = inc.split("/")[0]
            if inc_mod != mod:
                observed.setdefault(mod, set()).add(inc_mod)
    return observed


def json_report_dict(violations, total_allows, max_allows, exit_code,
                     profile_path=None):
    counts = {}
    for v in violations:
        counts[v.rule] = counts.get(v.rule, 0) + 1
    return {
        "tool": "yoso-lint",
        "schema_version": 5,
        "profile": profile_path,
        "violations": [
            {"path": v.path, "line": v.line, "rule": v.rule,
             "message": v.message, "rank": v.rank, "span": v.span}
            for v in violations
        ],
        "counts": dict(sorted(counts.items())),
        "allows_used": total_allows,
        "allow_budget": max_allows,
        "exit_code": exit_code,
    }


def write_json_report(path, violations, total_allows, max_allows, exit_code,
                      profile_path=None):
    report = json_report_dict(violations, total_allows, max_allows,
                              exit_code, profile_path=profile_path)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=False)
        f.write("\n")


def run_tree(root, check_hdrs, cxx, max_allows, json_out=None, profile=None,
             rule_filter=None):
    ctx = ProjectContext(root, profile_path=profile)
    if ctx.config_errors:
        for err in ctx.config_errors:
            print(f"yoso-lint: {err}", file=sys.stderr)
        if json_out:
            write_json_report(json_out, [], 0, max_allows, 2)
        return 2
    violations, total_allows = [], 0
    for path in iter_cpp_files(root):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        found, used = scan_with_allows(rel, text, ctx=ctx)
        violations.extend(found)
        total_allows += used
    violations.extend(layer_dag_tree_violations(
        root, ctx, collect_observed_includes(root, ctx)))
    if check_hdrs:
        violations.extend(check_headers(root, cxx))
    if rule_filter:
        violations = [v for v in violations if v.rule == rule_filter]

    # Costliest first: observed self-time of the enclosing span, then a
    # stable path/line order so reports diff cleanly run to run.
    violations.sort(key=lambda v: (-v.rank, v.path, v.line, v.rule))
    for v in violations:
        print(v)
    print(f"yoso-lint: {len(violations)} violation(s), "
          f"{total_allows} allow(s) used (budget {max_allows})")
    exit_code = 1 if violations else 0
    if total_allows > max_allows:
        print(f"yoso-lint: allow budget exceeded ({total_allows} > "
              f"{max_allows}); remove suppressions or fix the code")
        exit_code = 1
    if json_out:
        write_json_report(json_out, violations, total_allows, max_allows,
                          exit_code, profile_path=ctx.hot_profile.path)
    return exit_code


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------

def parse_expectations(text):
    """{(line, rule)} seeded by `// expect-lint: <rule>` annotations."""
    return {(idx, m.group(1))
            for idx, line in enumerate(text.splitlines(), start=1)
            for m in EXPECT_RE.finditer(line)}


def run_self_test(script_dir):
    fixtures = os.path.join(script_dir, "lint_fixtures")
    if not os.path.isdir(fixtures):
        print(f"yoso-lint --self-test: fixture dir missing: {fixtures}")
        return 1
    failures = 0

    # Fixtures are scanned against the REAL repository context, so
    # layer-dag expectations exercise the committed tools/yoso_layers.json
    # and include-hygiene expectations exercise the real header index.
    ctx = ProjectContext(os.path.dirname(script_dir))
    for err in ctx.config_errors:
        print(f"SELF-TEST FAIL context: {err}")
        failures += 1

    for name in sorted(os.listdir(fixtures)):
        if not name.endswith(CPP_EXTENSIONS):
            continue
        path = os.path.join(fixtures, name)
        # Fixtures mimic tree layout via their name: src__core__x.cpp maps to
        # src/core/x.cpp so path-scoped rules (static-state) apply.
        rel = name.replace("__", "/")
        with open(path, encoding="utf-8") as f:
            text = f.read()
        expected = parse_expectations(text)
        found_list, _ = scan_with_allows(rel, text, ctx=ctx)
        found = {(v.line, v.rule) for v in found_list}
        missed = expected - found
        spurious = found - expected
        for line, rule in sorted(missed):
            print(f"SELF-TEST FAIL {name}:{line}: seeded [{rule}] not "
                  "detected")
            failures += 1
        for line, rule in sorted(spurious):
            print(f"SELF-TEST FAIL {name}:{line}: spurious [{rule}]")
            failures += 1
        status = "ok" if not (missed or spurious) else "FAIL"
        print(f"self-test {name}: {len(expected)} expected, "
              f"{len(found & expected)} detected — {status}")

    failures += self_test_allow_budget(fixtures)
    failures += self_test_rank_order(fixtures, ctx)
    print(f"yoso-lint --self-test: {failures} failure(s)")
    return 1 if failures else 0


def self_test_allow_budget(fixtures):
    """The allow() escape hatch is budgeted; a fixture with four
    suppressions must trip the default three-allow budget and pass a
    four-allow one."""
    budget_dir = os.path.join(fixtures, "allow_budget")
    if not os.path.isdir(budget_dir):
        print("SELF-TEST FAIL allow_budget/: fixture dir missing")
        return 1
    failures = 0
    total_allows, violations = 0, []
    for name in sorted(os.listdir(budget_dir)):
        if not name.endswith(CPP_EXTENSIONS):
            continue
        rel = name.replace("__", "/")
        with open(os.path.join(budget_dir, name), encoding="utf-8") as f:
            text = f.read()
        found, used = scan_with_allows(rel, text)
        violations.extend(found)
        total_allows += used
    if violations:
        print(f"SELF-TEST FAIL allow_budget/: {len(violations)} unsuppressed"
              " violation(s); every seeded violation should carry an allow()")
        failures += 1
    if total_allows != 4:
        print(f"SELF-TEST FAIL allow_budget/: expected exactly 4 allows, "
              f"counted {total_allows}")
        failures += 1
    over = total_allows > 3   # the default --max-allows budget
    under = total_allows > 4  # a raised budget must accept the same tree
    if not over:
        print("SELF-TEST FAIL allow_budget/: four allows did NOT exceed the "
              "default budget of 3 — the 4th allow() must fail the gate")
        failures += 1
    if under:
        print("SELF-TEST FAIL allow_budget/: four allows exceeded a budget "
              "of 4")
        failures += 1
    if not failures:
        print("self-test allow_budget/: 4 allows counted, budget 3 trips, "
              "budget 4 passes — ok")
    return failures


def self_test_rank_order(fixtures, ctx):
    """Profile-guided ranking, end to end: the rank_order/ fixture seeds two
    hot-alloc violations in ascending span-cost file order; sorted output
    (the `--rule hot-alloc --profile ... --json` path) must reverse them,
    and the JSON report must carry rank/span per finding."""
    rank_dir = os.path.join(fixtures, "rank_order")
    if not os.path.isdir(rank_dir):
        print("SELF-TEST FAIL rank_order/: fixture dir missing")
        return 1
    violations = []
    for name in sorted(os.listdir(rank_dir)):
        if not name.endswith(CPP_EXTENSIONS):
            continue
        rel = name.replace("__", "/")
        with open(os.path.join(rank_dir, name), encoding="utf-8") as f:
            text = f.read()
        found, _ = scan_with_allows(rel, text, ctx=ctx)
        violations.extend(v for v in found if v.rule == "hot-alloc")
    violations.sort(key=lambda v: (-v.rank, v.path, v.line, v.rule))
    failures = 0
    if len(violations) != 2:
        print(f"SELF-TEST FAIL rank_order/: expected exactly 2 hot-alloc "
              f"violations, found {len(violations)}")
        return 1
    first, second = violations
    if not (first.rank > second.rank > 0):
        print(f"SELF-TEST FAIL rank_order/: ranks not strictly descending "
              f"and positive ({first.rank} vs {second.rank}) — is "
              f"tools/yoso_hot_profile.json missing the seeded spans?")
        failures += 1
    if first.line < second.line:
        print("SELF-TEST FAIL rank_order/: output follows file order, not "
              "span cost — the expensive-span violation must sort first")
        failures += 1
    if (first.span, second.span) != ("sim.network", "step1.fit_gp"):
        print(f"SELF-TEST FAIL rank_order/: span attribution wrong "
              f"({first.span!r}, {second.span!r})")
        failures += 1
    report = json_report_dict(violations, 0, 3, 1,
                              profile_path=ctx.hot_profile.path)
    finding = report["violations"][0]
    if report.get("schema_version") != 5 or \
            report.get("counts", {}).get("hot-alloc") != 2 or \
            finding.get("rank") != first.rank or \
            finding.get("span") != "sim.network":
        print("SELF-TEST FAIL rank_order/: JSON schema incomplete "
              f"(schema_version/counts/rank/span): {finding}")
        failures += 1
    if not failures:
        print("self-test rank_order/: 2 seeded violations sorted by span "
              "cost, JSON schema intact — ok")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--check-headers", action="store_true",
                        help="also compile every src/ header standalone")
    parser.add_argument("--cxx", default=os.environ.get("CXX", "c++"),
                        help="compiler for --check-headers")
    parser.add_argument("--max-allows", type=int, default=3,
                        help="budget of yoso-lint: allow() suppressions")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a machine-readable report here (CI "
                             "archives it as an artifact)")
    parser.add_argument("--profile", default=None, metavar="JSON",
                        help="span-cost profile for the perf-rule hot set "
                             "and ranking (default: the committed "
                             "tools/yoso_hot_profile.json; accepts the "
                             "--emit-profile format, a span list, or a "
                             "Chrome trace)")
    parser.add_argument("--rule", default=None, choices=RULES,
                        metavar="NAME",
                        help="report only this rule's findings")
    parser.add_argument("--self-test", action="store_true",
                        help="check every rule against the seeded fixtures "
                             "in tools/lint_fixtures/")
    args = parser.parse_args(argv)

    if args.self_test:
        return run_self_test(os.path.dirname(os.path.abspath(__file__)))
    return run_tree(os.path.abspath(args.root), args.check_headers,
                    args.cxx, args.max_allows, json_out=args.json,
                    profile=args.profile, rule_filter=args.rule)


if __name__ == "__main__":
    sys.exit(main())
