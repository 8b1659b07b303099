//! The rule set.
//!
//! Each rule is a token-pattern matcher grounded in a failure class
//! this repository has actually hit (see DESIGN.md §10 for the
//! histories). Rules are deliberately heuristic — they match token
//! shapes, not types — so every rule errs toward *flagging* and relies
//! on inline suppressions (with mandatory reasons) for the deliberate
//! cases. That trade is what lets the linter hold invariants the test
//! suite can only sample.

use crate::lexer::{Comment, Token, TokenKind};

/// Rule ids and one-line descriptions, in reporting order.
pub const RULES: &[(&str, &str)] = &[
    (
        "no-raw-sync",
        "std::sync::Mutex/Condvar poison on panic; use the non-poisoning swcc_obs::sync wrappers",
    ),
    (
        "no-panic-in-request-path",
        "unwrap/expect/panic!/indexing in the serve request path; the server must answer an error, never die",
    ),
    (
        "float-eq",
        "==/!= against a float literal; compare bits (to_bits) or suppress with the -0.0/NaN story",
    ),
    (
        "determinism",
        "time/randomness in a numeric kernel whose scalar-vs-batch bit-equality CI gates require pure evaluation",
    ),
    (
        "safety-comment",
        "unsafe without an adjacent // SAFETY: comment",
    ),
    (
        "metric-doc-drift",
        "metric/span names in swcc_core::metrics, swcc_sim::metrics, and swcc_serve::metrics must match OBSERVABILITY.md's tables",
    ),
];

/// Meta-findings emitted by the suppression machinery itself; not
/// valid targets for `allow(...)`.
pub const META_RULES: &[&str] = &["bad-suppression", "stale-suppression"];

/// True iff `rule` names a suppressible rule.
pub fn is_known_rule(rule: &str) -> bool {
    RULES.iter().any(|(id, _)| *id == rule)
}

/// One reported problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule id.
    pub rule: &'static str,
    /// Path relative to the linted root, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable detail naming the offending construct.
    pub message: String,
}

/// Everything a file-scoped rule sees about one source file.
pub struct FileCtx<'a> {
    /// Path relative to the linted root.
    pub rel_path: &'a str,
    /// The code tokens.
    pub tokens: &'a [Token],
    /// Parallel to `tokens`: true for tokens inside `#[cfg(test)]` /
    /// `#[test]` items, which every rule skips.
    pub excluded: &'a [bool],
    /// The comments (for `// SAFETY:` adjacency).
    pub comments: &'a [Comment],
}

impl FileCtx<'_> {
    fn tok(&self, i: usize) -> Option<&Token> {
        self.tokens.get(i)
    }

    fn is_path_sep(&self, i: usize) -> bool {
        self.tok(i).is_some_and(|t| t.is_punct(":"))
            && self.tok(i + 1).is_some_and(|t| t.is_punct(":"))
    }
}

/// Runs every file-scoped rule applicable to `ctx.rel_path`.
pub fn check_file(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    no_raw_sync(ctx, &mut findings);
    no_panic_in_request_path(ctx, &mut findings);
    float_eq(ctx, &mut findings);
    determinism(ctx, &mut findings);
    safety_comment(ctx, &mut findings);
    findings
}

fn finding(rule: &'static str, ctx: &FileCtx<'_>, line: u32, message: String) -> Finding {
    Finding {
        rule,
        file: ctx.rel_path.to_string(),
        line,
        message,
    }
}

// --- no-raw-sync -------------------------------------------------------

/// The one module allowed to touch the raw primitives: the wrapper
/// itself.
const RAW_SYNC_EXEMPT: &str = "crates/obs/src/sync.rs";

fn no_raw_sync(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if ctx.rel_path.ends_with(RAW_SYNC_EXEMPT) {
        return;
    }
    let banned = |t: &Token| t.is_ident("Mutex") || t.is_ident("Condvar") || t.is_ident("RwLock");
    let mut i = 0;
    while i < ctx.tokens.len() {
        // `std :: sync ::` then either one name or a `{...}` group.
        let is_std_sync = ctx.tokens[i].is_ident("std")
            && ctx.is_path_sep(i + 1)
            && ctx.tok(i + 3).is_some_and(|t| t.is_ident("sync"))
            && ctx.is_path_sep(i + 4);
        if !is_std_sync || ctx.excluded[i] {
            i += 1;
            continue;
        }
        let after = i + 6;
        if let Some(t) = ctx.tok(after) {
            if banned(t) {
                findings.push(finding(
                    "no-raw-sync",
                    ctx,
                    t.line,
                    format!(
                        "raw std::sync::{} poisons on panic; use swcc_obs::sync::{} instead",
                        t.text, t.text
                    ),
                ));
            } else if t.is_punct("{") {
                let mut depth = 1usize;
                let mut j = after + 1;
                while j < ctx.tokens.len() && depth > 0 {
                    let t = &ctx.tokens[j];
                    if t.is_punct("{") {
                        depth += 1;
                    } else if t.is_punct("}") {
                        depth -= 1;
                    } else if depth == 1 && banned(t) {
                        findings.push(finding(
                            "no-raw-sync",
                            ctx,
                            t.line,
                            format!(
                                "raw std::sync::{} poisons on panic; use swcc_obs::sync::{} instead",
                                t.text, t.text
                            ),
                        ));
                    }
                    j += 1;
                }
            }
        }
        i = after;
    }
}

// --- no-panic-in-request-path ------------------------------------------

/// The request-handling files: everything between a parsed line and a
/// rendered response line.
const REQUEST_PATH_FILES: &[&str] = &[
    "crates/serve/src/server.rs",
    "crates/serve/src/protocol.rs",
    "crates/serve/src/telemetry.rs",
];

const PANICKING_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
const PANICKING_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Keywords that may directly precede `[` in type or expression
/// position without forming an index expression (`&mut [T]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "dyn", "in", "as", "return", "break", "continue", "move", "ref", "if", "else", "match",
    "where", "impl", "let", "use", "pub", "crate", "super", "fn", "static", "const", "type",
    "enum", "struct", "trait", "mod", "unsafe", "while", "for", "loop", "yield", "box", "await",
];

fn no_panic_in_request_path(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if !REQUEST_PATH_FILES.iter().any(|f| ctx.rel_path.ends_with(f)) {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.excluded[i] {
            continue;
        }
        if t.kind == TokenKind::Ident
            && PANICKING_METHODS.contains(&t.text.as_str())
            && i > 0
            && ctx.tokens[i - 1].is_punct(".")
            && ctx.tok(i + 1).is_some_and(|n| n.is_punct("("))
        {
            findings.push(finding(
                "no-panic-in-request-path",
                ctx,
                t.line,
                format!(
                    ".{}() panics on the request path; return a per-query error response",
                    t.text
                ),
            ));
        }
        if t.kind == TokenKind::Ident
            && PANICKING_MACROS.contains(&t.text.as_str())
            && ctx.tok(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            findings.push(finding(
                "no-panic-in-request-path",
                ctx,
                t.line,
                format!(
                    "{}! panics on the request path; return a per-query error response",
                    t.text
                ),
            ));
        }
        if t.is_punct("[") && i > 0 {
            let prev = &ctx.tokens[i - 1];
            let postfix = match prev.kind {
                TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                TokenKind::Punct => prev.text == ")" || prev.text == "]",
                _ => false,
            };
            if postfix {
                findings.push(finding(
                    "no-panic-in-request-path",
                    ctx,
                    t.line,
                    "slice/array indexing panics out of bounds on the request path; use .get()"
                        .to_string(),
                ));
            }
        }
    }
}

// --- float-eq ----------------------------------------------------------

fn float_operand(t: Option<&Token>) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Float)
}

fn float_eq(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for i in 0..ctx.tokens.len() {
        if ctx.excluded[i] {
            continue;
        }
        let (op, op_line) = if ctx.tokens[i].is_punct("=")
            && ctx.tok(i + 1).is_some_and(|t| t.is_punct("="))
            && (i == 0 || !ctx.tokens[i - 1].is_punct("=") && !ctx.tokens[i - 1].is_punct("!"))
            && !ctx.tok(i + 2).is_some_and(|t| t.is_punct("="))
        {
            ("==", ctx.tokens[i].line)
        } else if ctx.tokens[i].is_punct("!") && ctx.tok(i + 1).is_some_and(|t| t.is_punct("=")) {
            ("!=", ctx.tokens[i].line)
        } else {
            continue;
        };
        let left = if i > 0 { ctx.tok(i - 1) } else { None };
        // Skip one unary sign on the right (`x == -0.0`).
        let mut r = i + 2;
        if ctx
            .tok(r)
            .is_some_and(|t| t.is_punct("-") || t.is_punct("+"))
        {
            r += 1;
        }
        let right = ctx.tok(r);
        if float_operand(left) || float_operand(right) {
            let lit = [left, right]
                .into_iter()
                .flatten()
                .find(|t| t.kind == TokenKind::Float)
                .map(|t| t.text.clone())
                .unwrap_or_default();
            findings.push(finding(
                "float-eq",
                ctx,
                op_line,
                format!(
                    "`{op}` against float literal `{lit}` conflates -0.0/0.0 and NaN; \
                     compare bits via to_bits() or suppress with the reason the \
                     ambiguity is intended"
                ),
            ));
        }
    }
}

// --- determinism -------------------------------------------------------

/// The numeric kernels whose scalar-vs-batch bit-equality gates in CI
/// assume pure, input-only evaluation.
const KERNEL_FILES: &[&str] = &[
    "crates/core/src/batch.rs",
    "crates/core/src/queue.rs",
    "crates/core/src/bus.rs",
    "crates/core/src/network/mod.rs",
    "crates/core/src/network/patel.rs",
    "crates/core/src/network/packet.rs",
];

const NONDETERMINISTIC_IDENTS: &[&str] = &[
    "Instant",
    "SystemTime",
    "UNIX_EPOCH",
    "RandomState",
    "thread_rng",
    "random",
    "rand",
];

fn determinism(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if !KERNEL_FILES.iter().any(|f| ctx.rel_path.ends_with(f)) {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.excluded[i] {
            continue;
        }
        if t.kind == TokenKind::Ident && NONDETERMINISTIC_IDENTS.contains(&t.text.as_str()) {
            findings.push(finding(
                "determinism",
                ctx,
                t.line,
                format!(
                    "`{}` in a numeric kernel; the scalar↔batch bit-equality CI gates \
                     require these paths to depend on their inputs only",
                    t.text
                ),
            ));
        }
    }
}

// --- safety-comment ----------------------------------------------------

/// How many lines above an `unsafe` token a `// SAFETY:` comment may
/// sit and still count as adjacent.
const SAFETY_WINDOW: u32 = 3;

fn safety_comment(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.excluded[i] || !t.is_ident("unsafe") {
            continue;
        }
        let lo = t.line.saturating_sub(SAFETY_WINDOW);
        let documented = ctx
            .comments
            .iter()
            .any(|c| c.line >= lo && c.line <= t.line && c.text.contains("SAFETY:"));
        if !documented {
            findings.push(finding(
                "safety-comment",
                ctx,
                t.line,
                format!(
                    "`unsafe` without a `// SAFETY:` comment within {SAFETY_WINDOW} lines; \
                     state the invariant that makes this sound"
                ),
            ));
        }
    }
}

// --- metric-doc-drift --------------------------------------------------

/// The metric registries whose `pub const NAME: &str = "..."` names
/// must stay in sync with OBSERVABILITY.md.
pub const METRIC_REGISTRY_FILES: &[&str] = &[
    "crates/core/src/metrics.rs",
    "crates/sim/src/metrics.rs",
    "crates/serve/src/metrics.rs",
];

/// One registered metric/span name: the string value and where the
/// const lives.
#[derive(Debug, Clone)]
pub struct MetricConst {
    /// The name string (e.g. `core.solver.solves`).
    pub name: String,
    /// Registry file, relative path.
    pub file: String,
    /// Line of the const declaration.
    pub line: u32,
}

/// Extracts every `pub const NAME: &str = "..."` from a registry file.
pub fn collect_metric_consts(ctx: &FileCtx<'_>) -> Vec<MetricConst> {
    let mut out = Vec::new();
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if ctx.excluded[i] || !toks[i].is_ident("const") {
            continue;
        }
        let pat = [i + 1, i + 2, i + 3, i + 4, i + 5, i + 6];
        let [name_i, colon, amp, str_kw, eq, lit] = pat;
        let shape = toks.get(name_i).is_some_and(|t| t.kind == TokenKind::Ident)
            && toks.get(colon).is_some_and(|t| t.is_punct(":"))
            && toks.get(amp).is_some_and(|t| t.is_punct("&"))
            && toks.get(str_kw).is_some_and(|t| t.is_ident("str"))
            && toks.get(eq).is_some_and(|t| t.is_punct("="))
            && toks.get(lit).is_some_and(|t| t.kind == TokenKind::Str);
        if shape {
            if let Some(value) = toks[lit].str_value() {
                out.push(MetricConst {
                    name: value.to_string(),
                    file: ctx.rel_path.to_string(),
                    line: toks[name_i].line,
                });
            }
        }
    }
    out
}

/// File extensions that disqualify a dotted backticked name from being
/// read as a metric name (it is a file path instead).
const NAME_EXT_DENYLIST: &[&str] = &["json", "jsonl", "rs", "md", "html", "toml", "yml", "txt"];

fn is_metric_name(s: &str) -> bool {
    if !s.contains('.') || s.starts_with('.') || s.ends_with('.') {
        return false;
    }
    if !s
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
    {
        return false;
    }
    match s.rsplit('.').next() {
        Some(last) => !NAME_EXT_DENYLIST.contains(&last),
        None => false,
    }
}

/// Cross-checks registered names against the observability doc.
///
/// Direction one: every registered metric/span name must appear
/// backticked somewhere in the doc. Direction two: every backticked
/// dotted name in a table row (a line starting with `|`) must be
/// registered by one of the metric registry files.
pub fn metric_doc_drift(consts: &[MetricConst], doc_rel_path: &str, doc: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for c in consts {
        if !doc.contains(&format!("`{}`", c.name)) {
            findings.push(Finding {
                rule: "metric-doc-drift",
                file: c.file.clone(),
                line: c.line,
                message: format!(
                    "registered name `{}` is not documented in {doc_rel_path}",
                    c.name
                ),
            });
        }
    }
    for (idx, raw) in doc.lines().enumerate() {
        let line_no = idx as u32 + 1;
        if !raw.trim_start().starts_with('|') {
            continue;
        }
        let mut parts = raw.split('`');
        // Odd-indexed fragments are inside backticks.
        let _ = parts.next();
        while let (Some(code), rest) = (parts.next(), parts.next()) {
            if is_metric_name(code) && !consts.iter().any(|c| c.name == code) {
                findings.push(Finding {
                    rule: "metric-doc-drift",
                    file: doc_rel_path.to_string(),
                    line: line_no,
                    message: format!(
                        "documented name `{code}` is not registered by any metrics module \
                         ({})",
                        METRIC_REGISTRY_FILES.join(", ")
                    ),
                });
            }
            if rest.is_none() {
                break;
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx_findings(rel_path: &str, source: &str) -> Vec<Finding> {
        let lexed = lex(source);
        let excluded = vec![false; lexed.tokens.len()];
        check_file(&FileCtx {
            rel_path,
            tokens: &lexed.tokens,
            excluded: &excluded,
            comments: &lexed.comments,
        })
    }

    #[test]
    fn raw_sync_catches_paths_and_brace_imports() {
        let src = "use std::sync::{Arc, Mutex};\nlet c = std::sync::Condvar::new();\n";
        let f = ctx_findings("crates/serve/src/cache.rs", src);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].rule, "no-raw-sync");
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn raw_sync_ignores_guards_wrappers_and_the_sync_module() {
        let clean = "use std::sync::{Arc, MutexGuard};\nuse swcc_obs::sync::Mutex;\n";
        assert!(ctx_findings("crates/serve/src/cache.rs", clean).is_empty());
        let exempt = "let m = std::sync::Mutex::new(0);";
        assert!(ctx_findings("crates/obs/src/sync.rs", exempt).is_empty());
    }

    #[test]
    fn request_path_rule_is_scoped_to_serve_files() {
        let src = "fn f(xs: &[u32]) -> u32 { xs[0] + xs.first().unwrap() }";
        assert!(ctx_findings("crates/core/src/bus.rs", src).is_empty());
        let f = ctx_findings("crates/serve/src/server.rs", src);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn request_path_rule_skips_macro_and_type_brackets() {
        let src = "fn f(v: &mut [u8]) -> Vec<u8> { vec![1, 2] }\n#[derive(Debug)]\nstruct S;";
        assert!(ctx_findings("crates/serve/src/protocol.rs", src).is_empty());
    }

    #[test]
    fn float_eq_catches_literals_on_either_side_and_unary_minus() {
        let src = "a == 0.0;\n0.5 != b;\nc == -0.0;\nd == e;\nf == 2;\n";
        let f = ctx_findings("crates/core/src/queue.rs", src);
        let lines: Vec<u32> = f
            .iter()
            .filter(|f| f.rule == "float-eq")
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn determinism_is_scoped_to_kernel_files() {
        let src = "let t = Instant::now();";
        assert!(ctx_findings("crates/serve/src/lib.rs", src).is_empty());
        let f = ctx_findings("crates/core/src/batch.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "determinism");
    }

    #[test]
    fn safety_comment_window_is_three_lines() {
        let good = "// SAFETY: ptr is valid for len\nlet x = unsafe { *p };";
        assert!(ctx_findings("crates/core/src/batch.rs", good).is_empty());
        let far = "// SAFETY: too far away\n\n\n\n\nlet x = unsafe { *p };";
        let f = ctx_findings("crates/core/src/batch.rs", far);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "safety-comment");
    }

    #[test]
    fn metric_consts_are_collected_and_cross_checked() {
        let lexed = lex("pub const A: &str = \"core.a.b\";\npub const EV: &str = \"x.span\";\n");
        let excluded = vec![false; lexed.tokens.len()];
        let consts = collect_metric_consts(&FileCtx {
            rel_path: "crates/core/src/metrics.rs",
            tokens: &lexed.tokens,
            excluded: &excluded,
            comments: &lexed.comments,
        });
        assert_eq!(consts.len(), 2);
        let doc = "| `core.a.b` | counter | fine |\n| `core.ghost` | counter | unknown |\n\
                   see `history/runs.jsonl` and `x.span` in prose\n";
        let f = metric_doc_drift(&consts, "OBSERVABILITY.md", doc);
        // `x.span` appears only in prose (fine for direction two) but
        // *is* backticked, so direction one is satisfied; `core.ghost`
        // is a table row with no registration.
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].file, "OBSERVABILITY.md");
        assert!(f[0].message.contains("core.ghost"));
    }

    #[test]
    fn filename_lookalikes_are_not_metric_names() {
        assert!(!is_metric_name("history/runs.jsonl"));
        assert!(!is_metric_name("runs.jsonl"));
        assert!(!is_metric_name("BENCH_sweep.json"));
        assert!(!is_metric_name("plain"));
        assert!(is_metric_name("core.solver.solves"));
        assert!(is_metric_name("serve.request_us"));
    }
}
