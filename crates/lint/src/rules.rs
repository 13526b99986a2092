//! The invariant rules. Every rule walks the token stream from
//! [`crate::lexer`]; none of them parse Rust fully. Where a rule
//! cannot decide at token level (e.g. "is this `HashMap` iterated?"),
//! the rule is deliberately stricter than the underlying contract and
//! the escape hatch is an inline suppression *with a reason*:
//!
//! ```text
//! // utk-lint: allow(rule-id) -- why this site is sound
//! ```
//!
//! A suppression applies to findings on its own line and the line
//! directly below. A missing reason, an unknown rule id, or a
//! suppression that matches nothing are themselves findings — the
//! suppression inventory stays auditable.

use crate::config::{FileClass, LockOrder};
use crate::lexer::{lex, Lexed, Tok};

/// Every rule id the tool can emit, for `allow(...)` validation.
pub const RULE_IDS: &[&str] = &[
    "float-cmp",
    "hash-iter",
    "wall-clock",
    "panic",
    "index",
    "guard-blocking",
    "lock-order",
    "safety-comment",
    "shared-temp-path",
    "bad-suppression",
    "unused-suppression",
];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id (kebab-case, stable).
    pub rule: &'static str,
    /// Human message.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{} {} {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Lints one file. `rel` is the workspace-relative path used in
/// findings; `class` selects the rule families; `locks` is the
/// lock-order manifest (empty disables that rule).
pub fn run_file(rel: &str, src: &str, class: FileClass, locks: &LockOrder) -> Vec<Finding> {
    let lx = lex(src);
    let in_test = test_spans(&lx);
    let mut raw = Vec::new();
    let ctx = Ctx {
        rel,
        lx: &lx,
        in_test: &in_test,
    };
    if class.float_cmp {
        float_cmp(&ctx, &mut raw);
    }
    if class.hash_iter {
        hash_iter(&ctx, &mut raw);
    }
    if class.wall_clock {
        wall_clock(&ctx, &mut raw);
    }
    if class.panic {
        panic_rule(&ctx, &mut raw);
    }
    if class.index {
        index_rule(&ctx, &mut raw);
    }
    if class.concurrency {
        concurrency(&ctx, locks, &mut raw);
    }
    safety_comment(&ctx, &mut raw);
    shared_temp_path(&ctx, &mut raw);
    apply_suppressions(rel, &lx, raw)
}

struct Ctx<'a> {
    rel: &'a str,
    lx: &'a Lexed,
    in_test: &'a [bool],
}

impl Ctx<'_> {
    fn finding(&self, tok: usize, rule: &'static str, message: String) -> Finding {
        let t = &self.lx.tokens[tok];
        Finding {
            file: self.rel.to_string(),
            line: t.line,
            col: t.col,
            rule,
            message,
        }
    }
}

/// Marks every token under a `#[cfg(test)]`-gated item or a
/// `#[test]`/`#[bench]` function. Rules other than the unsafe audit
/// skip those tokens: panics and ad-hoc float ordering are fine in
/// test code.
fn test_spans(lx: &Lexed) -> Vec<bool> {
    let n = lx.tokens.len();
    let mut marked = vec![false; n];
    let mut i = 0usize;
    while i < n {
        if lx.punct(i, '#') && lx.punct(i + 1, '[') {
            let close = lx.matching(i + 1);
            if attr_gates_test(lx, i + 2, close) {
                let end = item_end(lx, close + 1);
                for m in marked.iter_mut().take(end.min(n)).skip(i) {
                    *m = true;
                }
                i = close + 1;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    marked
}

/// True when the attribute tokens in `[start, close)` gate on test
/// compilation: `cfg(test)`, `cfg(all(test, …))`, `test`, `bench`.
fn attr_gates_test(lx: &Lexed, start: usize, close: usize) -> bool {
    let idents: Vec<&str> = (start..close.min(lx.tokens.len()))
        .filter_map(|i| lx.ident(i))
        .collect();
    match idents.as_slice() {
        ["test"] | ["bench"] => true,
        [first, rest @ ..] if *first == "cfg" => rest.contains(&"test"),
        _ => false,
    }
}

/// Token index one past the item starting at `i` (after its gating
/// attribute): skips further attributes, then ends at the matching
/// `}` of the first top-level `{` (item body), or at a top-level `;`
/// (e.g. `use`, `const … = …;` — an `=` demotes later braces to
/// expression nesting).
fn item_end(lx: &Lexed, mut i: usize) -> usize {
    let n = lx.tokens.len();
    while i < n && lx.punct(i, '#') && lx.punct(i + 1, '[') {
        i = lx.matching(i + 1) + 1;
    }
    let mut depth = 0usize;
    let mut seen_eq = false;
    while i < n {
        match &lx.tokens[i].tok {
            Tok::Punct('{') if depth == 0 && !seen_eq => return lx.matching(i) + 1,
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct(')' | ']' | '}') => depth = depth.saturating_sub(1),
            Tok::Punct('=') if depth == 0 => seen_eq = true,
            Tok::Punct(';') if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    n
}

// ---------------------------------------------------------------- //
// determinism                                                      //
// ---------------------------------------------------------------- //

/// `float-cmp`: bans `partial_cmp` calls (the `fn partial_cmp`
/// definition a `PartialOrd` impl owes is exempt) and requires every
/// `sort_by`/`sort_unstable_by`/`max_by`/`min_by` comparator to
/// contain a total ordering (`total_cmp` or `cmp`). This is the BBS
/// pop-order / ranking determinism contract: one `partial_cmp` sort
/// is one NaN away from a panic and one `-0.0` away from an
/// order-dependent result.
fn float_cmp(ctx: &Ctx, out: &mut Vec<Finding>) {
    let lx = ctx.lx;
    for i in 0..lx.tokens.len() {
        if ctx.in_test[i] {
            continue;
        }
        let Some(name) = lx.ident(i) else { continue };
        match name {
            "partial_cmp" => {
                let is_def = i > 0 && lx.ident(i - 1) == Some("fn");
                if !is_def {
                    out.push(
                        ctx.finding(
                            i,
                            "float-cmp",
                            "call to partial_cmp: use total_cmp (floats) or cmp (Ord) so the \
                         order is total and deterministic"
                                .to_string(),
                        ),
                    );
                }
            }
            "sort_by" | "sort_unstable_by" | "max_by" | "min_by" => {
                if !lx.punct(i + 1, '(') {
                    continue;
                }
                let close = lx.matching(i + 1);
                let mut total = false;
                let mut partial = false;
                for j in (i + 2)..close {
                    match lx.ident(j) {
                        Some("total_cmp") | Some("cmp") => total = true,
                        Some("partial_cmp") => partial = true,
                        _ => {}
                    }
                }
                // A comparator built on partial_cmp is already
                // reported at the partial_cmp token itself.
                if !total && !partial {
                    out.push(ctx.finding(
                        i,
                        "float-cmp",
                        format!(
                            "{name} comparator contains no total ordering \
                             (expected total_cmp or cmp)"
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// `hash-iter`: bans `HashMap`/`HashSet` in wire-feeding modules
/// outright — iteration order there would leak straight into the
/// `server batch ≡ utk batch` byte-identity contract, and token-level
/// analysis cannot prove a map is never iterated.
fn hash_iter(ctx: &Ctx, out: &mut Vec<Finding>) {
    for i in 0..ctx.lx.tokens.len() {
        if ctx.in_test[i] {
            continue;
        }
        if let Some(name @ ("HashMap" | "HashSet")) = ctx.lx.ident(i) {
            out.push(ctx.finding(
                i,
                "hash-iter",
                format!(
                    "{name} in a wire-feeding module: iteration order is \
                     nondeterministic; use BTreeMap/BTreeSet or a Vec"
                ),
            ));
        }
    }
}

/// `wall-clock`: bans `Instant::now()`/`SystemTime::now()` outside
/// benches and tests — ambient time reads are how timings would leak
/// into the deterministic wire format, and how metrics goldens would
/// stop being byte-stable. All timing must flow through the injected
/// `utk_core::obs::Clock`; the blessed ambient read (the
/// `MonotonicClock` implementation itself) carries a reasoned
/// suppression.
fn wall_clock(ctx: &Ctx, out: &mut Vec<Finding>) {
    let lx = ctx.lx;
    for i in 0..lx.tokens.len() {
        if ctx.in_test[i] {
            continue;
        }
        let Some(name @ ("Instant" | "SystemTime")) = lx.ident(i) else {
            continue;
        };
        if lx.punct(i + 1, ':')
            && lx.punct(i + 2, ':')
            && lx.ident(i + 3) == Some("now")
            && lx.punct(i + 4, '(')
        {
            out.push(ctx.finding(
                i,
                "wall-clock",
                format!(
                    "{name}::now() in library code: inject utk_core::obs::Clock \
                     so time is test-controllable and stays off the wire format"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- //
// panic-freedom                                                    //
// ---------------------------------------------------------------- //

/// `panic`: bans `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!`
/// in library code. One allowlisted idiom: `.lock().expect(…)` /
/// `.read().expect(…)` / `.write().expect(…)` — a poisoned lock means
/// another thread already panicked, and propagating is the only sound
/// response.
fn panic_rule(ctx: &Ctx, out: &mut Vec<Finding>) {
    let lx = ctx.lx;
    for i in 0..lx.tokens.len() {
        if ctx.in_test[i] {
            continue;
        }
        let Some(name) = lx.ident(i) else { continue };
        match name {
            // Only the method-call spelling panics; a free function
            // that happens to be named `unwrap`/`expect` (or its
            // definition) is not `Option::unwrap`.
            "unwrap" if lx.punct(i + 1, '(') && i >= 1 && lx.punct(i - 1, '.') => {
                out.push(ctx.finding(
                    i,
                    "panic",
                    "unwrap in library code: return a typed error (?, ok_or) instead".to_string(),
                ));
            }
            "expect"
                if lx.punct(i + 1, '(')
                    && i >= 1
                    && lx.punct(i - 1, '.')
                    && !poison_propagation(lx, i) =>
            {
                out.push(
                    ctx.finding(
                        i,
                        "panic",
                        "expect in library code: only panic propagation from another \
                     thread (.lock()/.read()/.write()/.wait()/.join() chains) may \
                     expect; return a typed error"
                            .to_string(),
                    ),
                );
            }
            "panic" | "todo" | "unimplemented" if lx.punct(i + 1, '!') => {
                out.push(ctx.finding(
                    i,
                    "panic",
                    format!("{name}! in library code: return a typed error instead"),
                ));
            }
            _ => {}
        }
    }
}

/// True when the `expect` at `i` directly follows a call that only
/// fails by propagating another thread's panic: `.lock()`, `.read()`,
/// `.write()` (lock poisoning), `.wait()`/`.wait_timeout()` (condvar
/// poisoning), `.join()` (a panicked child). Expecting there is the
/// only sound response — the process is already broken.
fn poison_propagation(lx: &Lexed, i: usize) -> bool {
    if i < 2 || !lx.punct(i - 1, '.') || !lx.punct(i - 2, ')') {
        return false;
    }
    // Walk back over the preceding call's argument list.
    let mut depth = 0usize;
    let mut j = i - 2;
    loop {
        match &lx.tokens[j].tok {
            Tok::Punct(')') => depth += 1,
            Tok::Punct('(') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if j == 0 {
            return false;
        }
        j -= 1;
    }
    j > 0
        && matches!(
            lx.ident(j - 1),
            Some("lock" | "read" | "write" | "wait" | "wait_timeout" | "join")
        )
}

/// `index`: in server request paths, bans `expr[...]` indexing —
/// an out-of-bounds index there is a remotely reachable panic that
/// kills the connection thread. Use `get`/`get_mut` and map `None`
/// to a protocol error.
fn index_rule(ctx: &Ctx, out: &mut Vec<Finding>) {
    let lx = ctx.lx;
    for i in 1..lx.tokens.len() {
        if ctx.in_test[i] {
            continue;
        }
        if !lx.punct(i, '[') {
            continue;
        }
        let indexes = match &lx.tokens[i - 1].tok {
            // A keyword before `[` starts a slice pattern or an array
            // expression (`let [a, b] = …`, `return [x]`), not an
            // index.
            Tok::Ident(id) => !matches!(
                id.as_str(),
                "let"
                    | "in"
                    | "if"
                    | "while"
                    | "match"
                    | "return"
                    | "break"
                    | "continue"
                    | "else"
                    | "mut"
                    | "ref"
                    | "move"
                    | "as"
                    | "box"
                    | "dyn"
                    | "impl"
            ),
            Tok::Punct(')') | Tok::Punct(']') => true,
            _ => false,
        };
        if indexes {
            out.push(
                ctx.finding(
                    i,
                    "index",
                    "indexing in a server request path: use get()/get_mut() and \
                 handle None as a protocol error"
                        .to_string(),
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- //
// concurrency                                                      //
// ---------------------------------------------------------------- //

/// Calls that block indefinitely only when written with zero
/// arguments (`handle.join()`, `rx.recv()`, `child.wait()` — while
/// `vec.join(",")` and `condvar.wait(guard)` stay legal).
const BLOCKING_ZERO_ARG: &[&str] = &["join", "recv", "wait", "accept", "flush"];
/// Calls that block regardless of arity.
const BLOCKING_ANY_ARG: &[&str] = &[
    "recv_timeout",
    "read_line",
    "read_to_string",
    "read_to_end",
    "read_exact",
    "write_all",
    "sleep",
];

#[derive(Debug)]
struct Guard {
    name: String,
    recv: String,
    rank: Option<u32>,
    brace_depth: usize,
    line: u32,
}

/// `guard-blocking` + `lock-order`: tracks `let`-bound lock guards
/// (`let g = x.lock()/.read()/.write()…;`) through lexical scopes.
/// While a guard is live, a blocking call (`join()`, `recv()`,
/// `write_all(…)`, …) in the same block is a `guard-blocking`
/// finding — the engine/server discipline is "snapshot under the
/// lock, work outside it". Acquiring a manifest-ranked lock below a
/// live higher-ranked one is a `lock-order` finding.
///
/// Scope model: a guard dies when its enclosing brace closes, at
/// `drop(name)`, or at the end of the file. Expression-temporary
/// guards (`*x.lock().expect(…) = v;`) are not tracked — they die at
/// the statement's end — but their acquisition still participates in
/// lock-order checking.
fn concurrency(ctx: &Ctx, locks: &LockOrder, out: &mut Vec<Finding>) {
    let lx = ctx.lx;
    let n = lx.tokens.len();
    let mut live: Vec<Guard> = Vec::new();
    let mut brace = 0usize;
    // Current `let` binding: (name, brace depth, bracket depth at the
    // `=`); cleared at the terminating `;`.
    let mut binding: Option<(String, usize)> = None;
    let mut nest = 0usize; // (), [] and non-statement {} nesting inside a let
    let mut i = 0usize;
    while i < n {
        if ctx.in_test[i] {
            i += 1;
            continue;
        }
        match &lx.tokens[i].tok {
            Tok::Punct('{') => {
                brace += 1;
                if binding.is_some() {
                    nest += 1;
                }
            }
            Tok::Punct('}') => {
                brace = brace.saturating_sub(1);
                if binding.is_some() {
                    nest = nest.saturating_sub(1);
                }
                live.retain(|g| g.brace_depth <= brace);
            }
            Tok::Punct('(' | '[') if binding.is_some() => nest += 1,
            Tok::Punct(')' | ']') if binding.is_some() => nest = nest.saturating_sub(1),
            Tok::Punct(';') if binding.is_some() && nest == 0 => binding = None,
            Tok::Ident(id) if id == "let" => {
                // `let`, optional `mut`, then the bound name.
                // Conditional lets (`if let` / `while let`) bind
                // patterns whose guard lifetime this pass cannot
                // model; skip them rather than leak a stale binding.
                let conditional = i > 0 && matches!(lx.ident(i - 1), Some("if" | "while"));
                let mut j = i + 1;
                if lx.ident(j) == Some("mut") {
                    j += 1;
                }
                if let Some(name) = lx.ident(j) {
                    // `let _ = …` drops immediately; not a binding.
                    if name != "_" && !conditional {
                        binding = Some((name.to_string(), brace));
                        nest = 0;
                    }
                }
            }
            Tok::Ident(id) if id == "drop" && lx.punct(i + 1, '(') => {
                if let Some(name) = lx.ident(i + 2) {
                    if lx.punct(i + 3, ')') {
                        live.retain(|g| g.name != name);
                    }
                }
            }
            Tok::Ident(method)
                if matches!(method.as_str(), "lock" | "read" | "write")
                    && i >= 1
                    && lx.punct(i - 1, '.')
                    && lx.punct(i + 1, '(')
                    && lx.punct(i + 2, ')') =>
            {
                let recv = receiver_name(lx, i - 1);
                let rank = locks.rank(&recv);
                if let Some(new_rank) = rank {
                    for g in &live {
                        if let Some(held) = g.rank {
                            if new_rank < held {
                                out.push(ctx.finding(
                                    i,
                                    "lock-order",
                                    format!(
                                        "acquired lock {recv:?} (rank {new_rank}) while \
                                         holding {:?} (rank {held}, bound line {}): \
                                         inverts lint/lock-order.toml",
                                        g.recv, g.line
                                    ),
                                ));
                            }
                        }
                    }
                }
                // The binding owns this guard only when the lock call
                // is the statement's top-level expression (`nest == 0`
                // — not inside a scoping block or an argument list)
                // and the chain ends after an optional `.expect(…)`.
                // `let v = m.lock().expect("p").clone();` binds a
                // clone, not a guard — the guard dies at the `;`.
                if let Some((name, depth)) = &binding {
                    if nest == 0 && chain_ends_as_guard(lx, i) {
                        live.push(Guard {
                            name: name.clone(),
                            recv,
                            rank,
                            brace_depth: *depth,
                            line: lx.tokens[i].line,
                        });
                    }
                    let _ = method;
                }
            }
            Tok::Ident(id)
                if lx.punct(i + 1, '(')
                    && !live.is_empty()
                    && (BLOCKING_ANY_ARG.contains(&id.as_str())
                        || (BLOCKING_ZERO_ARG.contains(&id.as_str()) && lx.punct(i + 2, ')'))) =>
            {
                let held: Vec<&str> = live.iter().map(|g| g.recv.as_str()).collect();
                out.push(ctx.finding(
                    i,
                    "guard-blocking",
                    format!(
                        "blocking call {id}() while lock guard(s) {held:?} are live: \
                         snapshot under the lock, block outside it"
                    ),
                ));
            }
            _ => {}
        }
        i += 1;
    }
}

/// True when the acquisition chain at the `lock`/`read`/`write`
/// ident `i` ends the expression as a guard: optionally one
/// `.expect(…)`, then anything but another method call.
fn chain_ends_as_guard(lx: &Lexed, i: usize) -> bool {
    let mut j = i + 3; // past `lock ( )`
    if lx.punct(j, '.') && lx.ident(j + 1) == Some("expect") && lx.punct(j + 2, '(') {
        j = lx.matching(j + 2) + 1;
    }
    !lx.punct(j, '.')
}

/// The receiver field of a lock acquisition: the identifier directly
/// before the `.` at `dot` (`self.inner.filter_cache.lock()` →
/// `filter_cache`), looking through one index expression
/// (`deques[i].lock()` → `deques`).
fn receiver_name(lx: &Lexed, dot: usize) -> String {
    if dot == 0 {
        return String::new();
    }
    let before = dot - 1;
    if let Some(name) = lx.ident(before) {
        return name.to_string();
    }
    if lx.punct(before, ']') {
        // Walk back over the index expression to its opening `[`.
        let mut depth = 0usize;
        let mut j = before;
        loop {
            match &lx.tokens[j].tok {
                Tok::Punct(']') => depth += 1,
                Tok::Punct('[') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if j == 0 {
                return String::new();
            }
            j -= 1;
        }
        if j > 0 {
            if let Some(name) = lx.ident(j - 1) {
                return name.to_string();
            }
        }
    }
    String::new()
}

// ---------------------------------------------------------------- //
// unsafe audit                                                     //
// ---------------------------------------------------------------- //

/// `safety-comment`: every `unsafe` keyword (block, fn, impl) must
/// carry a `// SAFETY:` comment on the same line or within the three
/// lines above. Applies everywhere, including tests — an unsound
/// test is still unsound.
fn safety_comment(ctx: &Ctx, out: &mut Vec<Finding>) {
    let lx = ctx.lx;
    for i in 0..lx.tokens.len() {
        if lx.ident(i) != Some("unsafe") {
            continue;
        }
        let line = lx.tokens[i].line;
        let documented = lx
            .comments
            .iter()
            .any(|c| c.text.contains("SAFETY:") && c.end_line + 3 >= line && c.line <= line);
        if !documented {
            out.push(
                ctx.finding(
                    i,
                    "safety-comment",
                    "unsafe without a `// SAFETY:` comment on the same line or \
                 the 3 lines above"
                        .to_string(),
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- //
// test isolation                                                   //
// ---------------------------------------------------------------- //

/// `shared-temp-path`: bans `temp_dir().join("<literal>")` — a temp
/// path with no unique component — including through a local alias
/// (`let dir = std::env::temp_dir(); dir.join("…")`). Tests run
/// concurrently (parallel threads, parallel test binaries), so a fixed
/// name lets one writer truncate a fixture another test is reading.
/// Applies everywhere, tests included: that is where such fixtures
/// live. Add a unique component (`format!("…_{}", std::process::id())`,
/// a per-test tag).
fn shared_temp_path(ctx: &Ctx, out: &mut Vec<Finding>) {
    let lx = ctx.lx;
    let is_temp_dir_call =
        |i: usize| lx.ident(i) == Some("temp_dir") && lx.punct(i + 1, '(') && lx.punct(i + 2, ')');
    // `let <alias> = [path::]temp_dir();`
    let mut aliases: Vec<&str> = Vec::new();
    for i in 0..lx.tokens.len() {
        if lx.ident(i) != Some("let") || !lx.punct(i + 2, '=') {
            continue;
        }
        let Some(alias) = lx.ident(i + 1) else {
            continue;
        };
        let mut j = i + 3;
        while lx.ident(j).is_some() && lx.punct(j + 1, ':') && lx.punct(j + 2, ':') {
            j += 3;
        }
        if is_temp_dir_call(j) && lx.punct(j + 3, ';') {
            aliases.push(alias);
        }
    }
    // `<receiver>.join("<literal>")`
    for i in 1..lx.tokens.len() {
        let fixed_join = lx.punct(i, '.')
            && lx.ident(i + 1) == Some("join")
            && lx.punct(i + 2, '(')
            && matches!(lx.tokens.get(i + 3).map(|t| &t.tok), Some(Tok::Str))
            && lx.punct(i + 4, ')');
        if !fixed_join {
            continue;
        }
        let receiver = if i >= 3 && is_temp_dir_call(i - 3) {
            i - 3
        } else if lx.ident(i - 1).is_some_and(|r| aliases.contains(&r))
            && !(i >= 2 && lx.punct(i - 2, '.'))
        {
            i - 1
        } else {
            continue;
        };
        out.push(
            ctx.finding(
                receiver,
                "shared-temp-path",
                "temp dir joined with a fixed name: concurrent tests share the path; \
             add a unique component (process id, test tag)"
                    .to_string(),
            ),
        );
    }
}

// ---------------------------------------------------------------- //
// suppressions                                                     //
// ---------------------------------------------------------------- //

#[derive(Debug)]
struct Suppression {
    line: u32,
    end_line: u32,
    rules: Vec<String>,
    used: bool,
}

/// Applies `// utk-lint: allow(rule, …) -- reason` suppressions and
/// appends the suppression-hygiene findings (`bad-suppression`,
/// `unused-suppression`).
fn apply_suppressions(rel: &str, lx: &Lexed, raw: Vec<Finding>) -> Vec<Finding> {
    let mut sups: Vec<Suppression> = Vec::new();
    let mut hygiene: Vec<Finding> = Vec::new();
    for c in &lx.comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("utk-lint:") else {
            continue;
        };
        let rest = rest.trim();
        if rest.starts_with("class=") {
            continue; // file-class directive, handled by config
        }
        let bad = |message: String| Finding {
            file: rel.to_string(),
            line: c.line,
            col: 1,
            rule: "bad-suppression",
            message,
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            hygiene.push(bad(format!(
                "unrecognized utk-lint directive {text:?} (expected allow(rule) -- reason \
                 or class=<name>)"
            )));
            continue;
        };
        let Some((ids, tail)) = args.split_once(')') else {
            hygiene.push(bad("unterminated allow( in suppression".to_string()));
            continue;
        };
        let rules: Vec<String> = ids
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let unknown: Vec<&String> = rules
            .iter()
            .filter(|r| !RULE_IDS.contains(&r.as_str()))
            .collect();
        if rules.is_empty() || !unknown.is_empty() {
            hygiene.push(bad(format!(
                "allow() lists unknown rule id(s) {unknown:?} (known: {RULE_IDS:?})"
            )));
            continue;
        }
        let reason = tail.trim().strip_prefix("--").map(str::trim);
        match reason {
            Some(r) if !r.is_empty() => sups.push(Suppression {
                line: c.line,
                end_line: c.end_line,
                rules,
                used: false,
            }),
            _ => hygiene.push(bad(
                "suppression without a reason: write `utk-lint: allow(rule) -- reason`".to_string(),
            )),
        }
    }

    let mut out: Vec<Finding> = Vec::new();
    for f in raw {
        let mut suppressed = false;
        for s in sups.iter_mut() {
            if s.rules.iter().any(|r| r == f.rule)
                && (s.line == f.line || s.end_line == f.line || s.end_line + 1 == f.line)
            {
                s.used = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(f);
        }
    }
    for s in &sups {
        if !s.used {
            hygiene.push(Finding {
                file: rel.to_string(),
                line: s.line,
                col: 1,
                rule: "unused-suppression",
                message: format!(
                    "suppression for {:?} matches no finding: remove it",
                    s.rules
                ),
            });
        }
    }
    out.extend(hygiene);
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FileClass;

    fn lint(src: &str, class: FileClass) -> Vec<Finding> {
        run_file("test.rs", src, class, &LockOrder::default())
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn partial_cmp_call_flagged_definition_exempt() {
        let src = "
            impl PartialOrd for X {
                fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                    Some(self.cmp(other))
                }
            }
            fn f(a: f64, b: f64) { a.partial_cmp(&b); }
        ";
        let f = lint(src, FileClass::LIB);
        assert_eq!(rules_of(&f), vec!["float-cmp"]);
        assert_eq!(f[0].line, 7);
    }

    #[test]
    fn sort_comparator_totality() {
        let ok = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }";
        assert!(lint(ok, FileClass::LIB).is_empty());
        let ok2 = "fn f(v: &mut Vec<u32>) { v.sort_by(|a, b| a.cmp(b)); }";
        assert!(lint(ok2, FileClass::LIB).is_empty());
        let bad = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| if a < b { L } else { G }); }";
        assert_eq!(rules_of(&lint(bad, FileClass::LIB)), vec!["float-cmp"]);
    }

    #[test]
    fn strings_and_tests_are_exempt() {
        let src = "
            fn f() { let s = \"partial_cmp unwrap()\"; }
            #[cfg(test)]
            mod tests {
                fn g(a: f64, b: f64) { a.partial_cmp(&b).unwrap(); }
            }
            #[test]
            fn h() { None::<u32>.unwrap(); }
        ";
        assert!(lint(src, FileClass::LIB).is_empty());
    }

    #[test]
    fn hash_collections_banned_in_wire_class_only() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) {}";
        assert_eq!(
            rules_of(&lint(src, FileClass::WIRE)),
            vec!["hash-iter", "hash-iter"]
        );
        assert!(lint(src, FileClass::LIB).is_empty());
    }

    #[test]
    fn wall_clock_flagged_outside_tests_and_benches() {
        let src = "
            fn f() -> Instant { Instant::now() }
            fn g() -> SystemTime { SystemTime::now() }
        ";
        assert_eq!(
            rules_of(&lint(src, FileClass::LIB)),
            vec!["wall-clock", "wall-clock"]
        );
        assert!(lint(src, FileClass::BENCH).is_empty());
        assert!(lint(src, FileClass::TEST).is_empty());
        // A suppressed blessed site and non-call mentions are clean.
        let ok = "
            fn clock() -> Instant {
                // utk-lint: allow(wall-clock) -- the one blessed ambient read
                Instant::now()
            }
            fn ty(t: Instant, s: SystemTime) {}
            #[test]
            fn t() { let _ = Instant::now(); }
        ";
        assert!(lint(ok, FileClass::LIB).is_empty());
    }

    #[test]
    fn panic_family_and_lock_idiom() {
        let bad = "
            fn f(o: Option<u32>) -> u32 { o.unwrap() }
            fn g(o: Option<u32>) -> u32 { o.expect(\"set\") }
            fn h() { panic!(\"boom\"); }
            fn i() { todo!(); }
        ";
        assert_eq!(
            rules_of(&lint(bad, FileClass::LIB)),
            vec!["panic", "panic", "panic", "panic"]
        );
        let ok = "fn f(m: &Mutex<u32>) -> u32 { *m.lock().expect(\"lock\") }";
        assert!(lint(ok, FileClass::LIB).is_empty());
    }

    #[test]
    fn indexing_flagged_in_request_paths() {
        let src = "fn f(v: &[u32], i: usize) -> u32 { v[i] }";
        assert_eq!(
            rules_of(&lint(src, FileClass::SERVER_REQUEST)),
            vec!["index"]
        );
        assert!(lint(src, FileClass::LIB).is_empty());
        // Attributes and array literals are not indexing.
        let ok = "#[derive(Debug)] struct S;\nfn g() -> [u8; 2] { [0; 2] }";
        assert!(lint(ok, FileClass::SERVER_REQUEST).is_empty());
    }

    #[test]
    fn guard_across_blocking() {
        let bad = "
            fn f(m: &Mutex<u32>, h: JoinHandle<()>) {
                let g = m.lock().expect(\"lock\");
                h.join();
            }
        ";
        assert_eq!(rules_of(&lint(bad, FileClass::LIB)), vec!["guard-blocking"]);
        // Scoped guard released before the join: clean.
        let ok = "
            fn f(m: &Mutex<u32>, h: JoinHandle<()>) {
                { let g = m.lock().expect(\"lock\"); }
                h.join();
            }
            fn g(m: &Mutex<u32>, h: JoinHandle<()>) {
                let g = m.lock().expect(\"lock\");
                drop(g);
                h.join();
            }
            fn h(parts: Vec<String>) -> String { parts.join(\",\") }
            fn cv(c: &Condvar, g: MutexGuard<u32>) { let _g = c.wait(g); }
        ";
        assert!(lint(ok, FileClass::LIB).is_empty());
    }

    #[test]
    fn lock_order_inversion() {
        let locks = LockOrder::parse("a = 10\nb = 20\n").unwrap();
        let bad = "
            fn f(s: &S) {
                let g = s.b.lock().expect(\"b\");
                let h = s.a.lock().expect(\"a\");
            }
        ";
        let f = run_file("t.rs", bad, FileClass::LIB, &locks);
        assert_eq!(rules_of(&f), vec!["lock-order"]);
        let ok = "
            fn f(s: &S) {
                let g = s.a.lock().expect(\"a\");
                let h = s.b.lock().expect(\"b\");
            }
        ";
        assert!(run_file("t.rs", ok, FileClass::LIB, &locks).is_empty());
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        assert_eq!(rules_of(&lint(bad, FileClass::LIB)), vec!["safety-comment"]);
        let ok = "
            fn f(p: *const u8) -> u8 {
                // SAFETY: caller guarantees p is valid.
                unsafe { *p }
            }
        ";
        assert!(lint(ok, FileClass::LIB).is_empty());
        // The audit also runs on test code.
        let bad_test = "#[cfg(test)] mod t { fn f(p: *const u8) -> u8 { unsafe { *p } } }";
        assert_eq!(
            rules_of(&lint(bad_test, FileClass::LIB)),
            vec!["safety-comment"]
        );
    }

    #[test]
    fn suppression_with_reason_works_and_is_tracked() {
        let ok = "
            fn f(o: Option<u32>) -> u32 {
                // utk-lint: allow(panic) -- invariant: caller checked is_some
                o.unwrap()
            }
        ";
        assert!(lint(ok, FileClass::LIB).is_empty());
        let same_line =
            "fn f(o: Option<u32>) -> u32 { o.unwrap() } // utk-lint: allow(panic) -- checked";
        assert!(lint(same_line, FileClass::LIB).is_empty());
    }

    #[test]
    fn reasonless_unknown_and_unused_suppressions_are_findings() {
        let no_reason = "
            fn f(o: Option<u32>) -> u32 {
                // utk-lint: allow(panic)
                o.unwrap()
            }
        ";
        // The invalid suppression does not suppress.
        assert_eq!(
            rules_of(&lint(no_reason, FileClass::LIB)),
            vec!["bad-suppression", "panic"]
        );
        let unknown = "// utk-lint: allow(no-such-rule) -- whatever\nfn f() {}";
        assert_eq!(
            rules_of(&lint(unknown, FileClass::LIB)),
            vec!["bad-suppression"]
        );
        let unused = "// utk-lint: allow(panic) -- nothing here\nfn f() {}";
        assert_eq!(
            rules_of(&lint(unused, FileClass::LIB)),
            vec!["unused-suppression"]
        );
    }

    #[test]
    fn fixed_temp_paths_flagged_everywhere() {
        let bad = "#[cfg(test)] mod t { fn f() { std::env::temp_dir().join(\"x.csv\"); } }";
        assert_eq!(
            rules_of(&lint(bad, FileClass::TEST)),
            vec!["shared-temp-path"]
        );
        let aliased = "fn f() { let dir = std::env::temp_dir(); dir.join(\"x.csv\"); }";
        assert_eq!(
            rules_of(&lint(aliased, FileClass::TEST)),
            vec!["shared-temp-path"]
        );
        let ok = "fn f(pid: u32) { std::env::temp_dir().join(format!(\"x_{pid}.csv\")); }";
        assert!(lint(ok, FileClass::TEST).is_empty());
        let other = "fn f(d: &Path) { let dir = d.to_path_buf(); dir.join(\"x.csv\"); }";
        assert!(lint(other, FileClass::TEST).is_empty());
    }

    #[test]
    fn findings_format_as_file_line_col() {
        let f = lint("fn f(o: Option<u32>) -> u32 { o.unwrap() }", FileClass::LIB);
        assert_eq!(f.len(), 1);
        let line = f[0].to_string();
        assert!(line.starts_with("test.rs:1:"), "{line}");
        assert!(line.contains(" panic "), "{line}");
    }
}
