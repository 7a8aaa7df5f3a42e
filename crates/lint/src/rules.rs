//! The rule engine: scope-aware checks over the token stream + syntax model.
//!
//! Each rule consumes the [`FileCtx`] (tokens, comments, syntax model, path
//! scope) and pushes [`Violation`]s. Rules are written against *tokens*, so
//! string literals and comments can never trip them, and `#[cfg(test)]`
//! modules inside library files are recognized and exempted from the
//! library-code rules (the old textual linter could do neither).
//!
//! The catalogue (see [`crate::RULES`]):
//!
//! * **R1 std-sync** — `std::sync::Mutex`/`RwLock` banned in library code.
//! * **R2 thread-spawn** — `thread::spawn`/`scope` confined to exec; the
//!   net device runners justify each site with a directive.
//! * **R3 solver-result** — public `solve*`/`fit*`/`train*` return `Result`.
//! * **R4 float-cast** — unrounded `f64 → usize` casts in `crates/sensing`.
//! * **R5 allow-justification** — `#[allow]` needs a comment line above.
//! * **R6 endpoint-recv** — transport waits are timeout-driven + fallible.
//! * **R7 no-stdout** — no `print!`-family macros in library crates.
//! * **R8 ckpt-write** — direct fs writes only in `ckpt`/`obs`.
//! * **R9 fallible-construction** — the retired panicking construction
//!   shims (`<Trainer>::new`, `star`, `with_fault_tolerance`) must not
//!   reappear; use the `try_*` forms.
//! * **D1 map-iteration** — no `HashMap`/`HashSet` iteration in libraries.
//! * **D2 wall-clock** — `Instant::now`/`SystemTime::now` outside net/bench
//!   requires a justification naming the rule.
//! * **D3 float-fold** — ad-hoc `+=` float reductions in loops must route
//!   through `linalg::kernels` fixed-order accumulators.
//! * **C1 lock-order** — consistent lock-acquisition order (engine-level,
//!   cross-file; see [`crate::lint_sources`]).
//! * **C2 narrowing-cast** — no `as` casts to sub-64-bit integers.
//! * **C3 counter-arith** — counters/byte totals use saturating arithmetic.
//! * **U1 unsafe-scope** — `unsafe` only inside `linalg::kernels` SIMD
//!   modules, behind runtime feature detection, with a per-site
//!   justification directive.
//! * **U2 panic-propagation** — `catch_unwind`/`resume_unwind` outside
//!   exec needs a per-site justification saying who observes the payload.

use crate::lexer::{Tok, TokKind};
use crate::syntax::{render, FileModel};

/// One rule violation with a machine-readable ID and a source span.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Machine-readable rule ID (`R1`..`R9`, `D1`..`D3`, `C1`..`C3`, `A1`).
    pub rule: &'static str,
    /// Human-oriented short rule name.
    pub name: &'static str,
    /// What went wrong and what to do instead.
    pub message: String,
}

/// Path-derived scope of one file, computed by [`crate::scope_of`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    /// First-party library code (`crates/*/src/**` or facade `src/`,
    /// excluding `src/main.rs` and `src/bin/`).
    pub is_library: bool,
    /// Inside `crates/net` (transport implementation).
    pub in_net: bool,
    /// Inside `crates/exec` (the sanctioned spawn site).
    pub in_exec: bool,
    /// Inside `crates/sensing` (rule R4's scope).
    pub in_sensing: bool,
    /// Inside `crates/linalg` (home of the fixed-order accumulators).
    pub in_linalg: bool,
    /// Inside `crates/linalg/src/kernels/` — the only modules where
    /// `unsafe` SIMD bodies are sanctioned (rule U1's carve-out).
    pub in_linalg_kernels: bool,
    /// Inside `crates/bench` (figure harness; prints and times by design).
    pub in_bench: bool,
    /// R7 applies: library code that is not a binary and not the bench
    /// harness.
    pub stdout_banned: bool,
    /// R8 applies: library code outside `ckpt`/`obs`/bench/binaries.
    pub fs_write_banned: bool,
}

/// One lock-acquisition ordering fact: `first` was (heuristically) still
/// held when `second` was acquired.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Receiver text of the earlier acquisition.
    pub first: String,
    /// Receiver text of the later acquisition.
    pub second: String,
    /// Workspace-relative path of the acquiring function.
    pub path: String,
    /// 1-based line of the later acquisition.
    pub line: usize,
    /// 1-based column of the later acquisition.
    pub col: usize,
}

/// Everything the per-file pass hands back to the engine.
#[derive(Debug, Default)]
pub struct FileFindings {
    /// Violations found in this file (C1 conflicts are added later by the
    /// cross-file pass).
    pub violations: Vec<Violation>,
    /// Lock-order facts for the cross-file C1 pass.
    pub lock_edges: Vec<LockEdge>,
}

/// Per-file context handed to every rule.
pub struct FileCtx<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    /// Significant tokens.
    pub toks: &'a [Tok],
    /// Comments (for R5's justification lookup).
    pub comments: &'a [crate::lexer::Comment],
    /// Syntax model.
    pub model: &'a FileModel,
    /// Path-derived scope.
    pub scope: Scope,
}

impl FileCtx<'_> {
    fn push(&self, out: &mut Vec<Violation>, tok: &Tok, rule: &'static str, message: String) {
        let name = crate::rule_name(rule);
        out.push(Violation {
            path: self.rel.to_string(),
            line: tok.line,
            col: tok.col,
            rule,
            name,
            message,
        });
    }

    /// Library-scope check for the token at `idx`: inside library code and
    /// outside any `#[cfg(test)]` module.
    fn lib_at(&self, idx: usize) -> bool {
        self.scope.is_library && !self.model.in_test(idx)
    }
}

/// Runs every per-file rule.
pub fn check_file(ctx: &FileCtx) -> FileFindings {
    let mut f = FileFindings::default();
    rule_r1_std_sync(ctx, &mut f.violations);
    rule_r2_thread_spawn(ctx, &mut f.violations);
    rule_r3_solver_result(ctx, &mut f.violations);
    rule_r4_float_cast(ctx, &mut f.violations);
    rule_r5_allow_justification(ctx, &mut f.violations);
    rule_r6_endpoint_recv(ctx, &mut f.violations);
    rule_r7_no_stdout(ctx, &mut f.violations);
    rule_r8_ckpt_write(ctx, &mut f.violations);
    rule_r9_fallible_construction(ctx, &mut f.violations);
    rule_d1_map_iteration(ctx, &mut f.violations);
    rule_d2_wall_clock(ctx, &mut f.violations);
    rule_d3_float_fold(ctx, &mut f.violations);
    rule_c1_collect_locks(ctx, &mut f);
    rule_c2_narrowing_cast(ctx, &mut f.violations);
    rule_c3_counter_arith(ctx, &mut f.violations);
    rule_u1_unsafe_scope(ctx, &mut f.violations);
    rule_u2_panic_propagation(ctx, &mut f.violations);
    f
}

/// The `::`-joined path chain ending at the identifier at `idx`, root first
/// (e.g. for the `now` of `std::time::Instant::now`, returns
/// `["std","time","Instant","now"]`).
fn path_ending_at(toks: &[Tok], idx: usize) -> Vec<String> {
    let mut segments = Vec::new();
    let Some(tail) = toks.get(idx) else { return segments };
    if tail.kind != TokKind::Ident {
        return segments;
    }
    segments.push(tail.text.clone());
    let mut i = idx;
    while i >= 2 {
        let sep = toks.get(i - 1);
        let seg = toks.get(i - 2);
        match (sep, seg) {
            (Some(sep), Some(seg)) if sep.is_punct("::") && seg.kind == TokKind::Ident => {
                segments.push(seg.text.clone());
                i -= 2;
            }
            _ => break,
        }
    }
    segments.reverse();
    segments
}

/// True when `chain` ends with the given suffix of segments.
fn chain_ends_with(chain: &[String], suffix: &[&str]) -> bool {
    chain.len() >= suffix.len() && chain.iter().rev().zip(suffix.iter().rev()).all(|(a, b)| a == b)
}

/// R1: `std::sync::Mutex`/`RwLock` (inline paths and use-tree leaves).
fn rule_r1_std_sync(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !ctx.scope.is_library {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if !(t.is_ident("Mutex") || t.is_ident("RwLock")) || !ctx.lib_at(i) {
            continue;
        }
        let chain = path_ending_at(ctx.toks, i);
        if chain_ends_with(&chain, &["std", "sync", &t.text]) || in_std_sync_use(ctx, &t.text) {
            ctx.push(
                out,
                t,
                "R1",
                format!("std::sync::{} is banned; use parking_lot (no poisoning)", t.text),
            );
        }
    }
}

/// Whether a use-tree leaf imports `std::sync::<name>`.
fn in_std_sync_use(ctx: &FileCtx, name: &str) -> bool {
    ctx.model.uses.iter().any(|u| {
        u.segments.len() == 3
            && u.segments.first().is_some_and(|s| s == "std")
            && u.segments.get(1).is_some_and(|s| s == "sync")
            && u.segments.get(2).is_some_and(|s| s == name)
    })
}

/// R2: `thread::spawn`/`thread::scope` outside exec, including the
/// `use std::thread::spawn` import form the old linter missed. Only the
/// pool crate gets a blanket carve-out; the device runners in crates/net
/// fire per site and must justify each one with a
/// `plos-lint: allow(R2): <reason>` directive, so a new spawn site there
/// is a reviewed decision rather than a free action.
fn rule_r2_thread_spawn(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !ctx.scope.is_library || ctx.scope.in_exec {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if !(t.is_ident("spawn") || t.is_ident("scope")) || !ctx.lib_at(i) {
            continue;
        }
        // Import lines are handled (once) by the use-tree loop below.
        if ctx.model.uses.iter().any(|u| u.line == t.line) {
            continue;
        }
        let chain = path_ending_at(ctx.toks, i);
        if chain_ends_with(&chain, &["thread", &t.text]) {
            ctx.push(
                out,
                t,
                "R2",
                format!(
                    "bare thread::{} outside crates/exec; route solver work through \
                     the plos-exec pool — device runners in crates/net justify each \
                     site with a directive",
                    t.text
                ),
            );
        }
    }
    for u in &ctx.model.uses {
        let leaf = u.segments.last().map(String::as_str).unwrap_or("");
        if (leaf == "spawn" || leaf == "scope")
            && u.segments.first().is_some_and(|s| s == "std")
            && u.segments.get(1).is_some_and(|s| s == "thread")
        {
            if let Some(tok) = ctx.toks.iter().find(|t| t.line == u.line) {
                ctx.push(
                    out,
                    tok,
                    "R2",
                    format!("importing std::thread::{leaf} outside crates/exec"),
                );
            }
        }
    }
}

/// R3: public solver entry points (`solve*`/`fit*`/`train*`) return Result.
fn rule_r3_solver_result(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !ctx.scope.is_library {
        return;
    }
    for f in &ctx.model.fns {
        if !f.is_pub
            || ctx.model.in_test(f.sig.0)
            || !["solve", "fit", "train"].iter().any(|p| f.name.starts_with(p))
        {
            continue;
        }
        let sig = render(ctx.toks, f.sig.0, f.sig.1);
        if !sig.contains("Result") {
            if let Some(tok) = ctx.toks.get(f.sig.0) {
                ctx.push(
                    out,
                    tok,
                    "R3",
                    format!(
                        "public solver entry `{}` must return Result (panicking trainers \
                         poison the distributed protocol)",
                        f.name
                    ),
                );
            }
        }
    }
}

/// R4: float→usize casts in `crates/sensing` must round explicitly. The
/// source expression (back to the nearest statement boundary) must not
/// contain float evidence without a rounding call.
fn rule_r4_float_cast(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !ctx.scope.is_library || !ctx.scope.in_sensing {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if !t.is_ident("as")
            || !ctx.toks.get(i + 1).is_some_and(|t| t.is_ident("usize"))
            || !ctx.lib_at(i)
        {
            continue;
        }
        let window = stmt_window_before(ctx.toks, i);
        let has_float = window.iter().any(|w| {
            ctx.toks
                .get(*w)
                .is_some_and(|t| t.kind == TokKind::Float || t.is_ident("f64") || t.is_ident("f32"))
        });
        let has_rounding = window.iter().any(|w| {
            ctx.toks
                .get(*w)
                .is_some_and(|t| ["round", "floor", "ceil", "trunc"].iter().any(|m| t.is_ident(m)))
                && ctx.toks.get(w + 1).is_some_and(|t| t.is_punct("("))
        });
        if has_float && !has_rounding {
            ctx.push(
                out,
                t,
                "R4",
                "truncating f64→usize cast; round explicitly (.round()/.floor()/.ceil()) \
                 before casting"
                    .to_string(),
            );
        }
    }
}

/// Token indices from the nearest statement boundary before `idx` up to
/// (excluding) `idx`.
fn stmt_window_before(toks: &[Tok], idx: usize) -> Vec<usize> {
    let mut start = idx;
    while start > 0 {
        let Some(t) = toks.get(start - 1) else { break };
        if t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}" | "=" | ",") {
            break;
        }
        if t.is_ident("let") || t.is_ident("return") {
            break;
        }
        start -= 1;
        if idx - start > 48 {
            break;
        }
    }
    (start..idx).collect()
}

/// R5: every `allow` attribute carries a justification comment on the
/// nearest preceding non-empty line. Applies to all first-party code,
/// including tests, benches and examples.
fn rule_r5_allow_justification(ctx: &FileCtx, out: &mut Vec<Violation>) {
    for attr in &ctx.model.attrs {
        let mentions_allow = attr_mentions_allow(ctx.toks, attr.range);
        if !mentions_allow {
            continue;
        }
        // Nearest content strictly above the attribute's first line: the
        // greater of (last token line, last comment end-line) below it.
        let tok_line =
            ctx.toks.iter().take_while(|t| t.line < attr.line).map(|t| t.line).max().unwrap_or(0);
        let comment_line =
            ctx.comments.iter().filter(|c| c.end_line < attr.line).map(|c| c.end_line).max();
        let justified = comment_line.is_some_and(|c| c >= tok_line);
        if !justified {
            if let Some(tok) = ctx.toks.get(attr.range.0) {
                ctx.push(
                    out,
                    tok,
                    "R5",
                    "#[allow] without a justification comment on the line above".to_string(),
                );
            }
        }
    }
}

/// Whether the attribute tokens contain `allow (` (covers `#[allow]`,
/// `#![allow]` and `#[cfg_attr(.., allow(..))]`).
fn attr_mentions_allow(toks: &[Tok], range: (usize, usize)) -> bool {
    (range.0..range.1).any(|i| {
        toks.get(i).is_some_and(|t| t.is_ident("allow"))
            && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
    })
}

/// R6: transport consumers never block without a timeout and never panic on
/// a send/recv.
fn rule_r6_endpoint_recv(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !ctx.scope.is_library || ctx.scope.in_net {
        return;
    }
    let talks = ctx.model.uses.iter().any(|u| u.segments.first().is_some_and(|s| s == "plos_net"))
        || ctx.toks.iter().any(|t| t.is_ident("plos_net"));
    if !talks {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if !ctx.lib_at(i) {
            continue;
        }
        // Bare blocking `.recv()`.
        if t.is_ident("recv")
            && i > 0
            && ctx.toks.get(i - 1).is_some_and(|t| t.is_punct("."))
            && ctx.toks.get(i + 1).is_some_and(|t| t.is_punct("("))
            && ctx.toks.get(i + 2).is_some_and(|t| t.is_punct(")"))
        {
            ctx.push(
                out,
                t,
                "R6",
                "bare blocking recv() on the transport; use recv_timeout under a \
                 RetryPolicy so a dead device cannot hang the trainer"
                    .to_string(),
            );
        }
        // `.expect(` chained onto a send/recv in the same statement.
        if t.is_ident("expect")
            && i > 0
            && ctx.toks.get(i - 1).is_some_and(|t| t.is_punct("."))
            && ctx.toks.get(i + 1).is_some_and(|t| t.is_punct("("))
        {
            let window = stmt_window_before(ctx.toks, i);
            let chained_io = window.iter().any(|w| {
                ctx.toks.get(*w).is_some_and(|t| {
                    t.is_ident("send") || t.is_ident("recv") || t.is_ident("recv_timeout")
                }) && w
                    .checked_sub(1)
                    .and_then(|p| ctx.toks.get(p))
                    .is_some_and(|t| t.is_punct("."))
            });
            if chained_io {
                ctx.push(
                    out,
                    t,
                    "R6",
                    "expect on a transport send/recv; propagate CoreError::Transport \
                     instead of panicking"
                        .to_string(),
                );
            }
        }
    }
}

/// R7: no `print!`-family macros in library crates (diagnostics go through
/// plos-obs). Binaries and the bench harness are exempt.
fn rule_r7_no_stdout(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !ctx.scope.stdout_banned {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        let is_print = ["println", "eprintln", "print", "eprint"].iter().any(|m| t.is_ident(m));
        if is_print && ctx.toks.get(i + 1).is_some_and(|t| t.is_punct("!")) && !ctx.model.in_test(i)
        {
            ctx.push(
                out,
                t,
                "R7",
                format!("{}! in a library crate; emit a plos-obs event or counter instead", t.text),
            );
        }
    }
}

/// R8: direct filesystem writes outside the checkpoint store and trace sink.
fn rule_r8_ckpt_write(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !ctx.scope.fs_write_banned {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.model.in_test(i) || !ctx.toks.get(i + 1).is_some_and(|t| t.is_punct("(")) {
            continue;
        }
        let chain = path_ending_at(ctx.toks, i);
        let banned = (t.is_ident("write") && chain_ends_with(&chain, &["fs", "write"]))
            || (t.is_ident("create") && chain_ends_with(&chain, &["File", "create"]));
        if banned {
            ctx.push(
                out,
                t,
                "R8",
                "direct filesystem write in a library crate; persist state through the \
                 plos-ckpt store (versioned, digest-verified, atomic) instead"
                    .to_string(),
            );
        }
    }
}

/// Trainer types whose panicking `::new` constructors were retired in
/// favor of fallible `try_new`.
const RETIRED_NEW_TYPES: &[&str] =
    &["CentralizedPlos", "DistributedPlos", "AsyncDistributedPlos", "MulticlassPlos"];

/// R9: retired panicking construction APIs. The workspace's fallible
/// construction surface is `try_new` / `try_with_fault_tolerance` /
/// `try_star` / `try_validate`; the panicking shims they replaced were
/// deleted, and this rule keeps new call sites from reappearing anywhere —
/// tests and benches included, since the functions no longer exist and a
/// reintroduced shim would silently re-grow the panic surface.
fn rule_r9_fallible_construction(ctx: &FileCtx, out: &mut Vec<Violation>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if !ctx.toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|p| ctx.toks.get(p));
        // `fn star(`/`fn new(` are definitions, not calls.
        if prev.is_some_and(|p| p.is_ident("fn")) {
            continue;
        }
        let dotted = prev.is_some_and(|p| p.is_punct("."));
        if t.is_ident("new") {
            let chain = path_ending_at(ctx.toks, i);
            if let Some(ty) =
                RETIRED_NEW_TYPES.iter().find(|ty| chain_ends_with(&chain, &[ty, "new"]))
            {
                ctx.push(
                    out,
                    t,
                    "R9",
                    format!(
                        "{ty}::new was retired; construct with {ty}::try_new and handle \
                         the CoreError (invalid configs are typed errors, not panics)"
                    ),
                );
            }
        } else if t.is_ident("with_fault_tolerance") && dotted {
            ctx.push(
                out,
                t,
                "R9",
                "with_fault_tolerance was retired; chain try_with_fault_tolerance \
                 (an invalid policy is a typed CoreError, not a panic)"
                    .to_string(),
            );
        } else if t.is_ident("star") && !dotted {
            ctx.push(
                out,
                t,
                "R9",
                "star was retired; build topologies with try_star \
                 (an empty star is a typed TopologyError, not a panic)"
                    .to_string(),
            );
        }
    }
}

/// Iteration-inducing methods on maps/sets whose order is not defined.
const MAP_ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain", "retain"];

/// D1: no iteration over `HashMap`/`HashSet` in library code — unordered
/// iteration feeding model state breaks the bit-parity gates.
fn rule_d1_map_iteration(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !ctx.scope.is_library {
        return;
    }
    // Identifiers bound to a HashMap/HashSet in this file (type ascription
    // or constructor initializer).
    let map_names: Vec<&str> = ctx
        .model
        .lets
        .iter()
        .filter(|l| {
            l.ty.contains("HashMap")
                || l.ty.contains("HashSet")
                || l.init.starts_with("HashMap")
                || l.init.starts_with("HashSet")
        })
        .map(|l| l.name.as_str())
        .collect();
    let mut flagged_lines: Vec<usize> = Vec::new();
    // (a) for-loops whose iterated expression mentions a map binding or a
    // map constructor inline.
    for l in &ctx.model.loops {
        let (hs, he) = l.header;
        if hs == he || ctx.model.in_test(hs) {
            continue;
        }
        let mentions = (hs..he).any(|i| {
            ctx.toks.get(i).is_some_and(|t| {
                t.is_ident("HashMap")
                    || t.is_ident("HashSet")
                    || map_names.iter().any(|n| t.is_ident(n))
            })
        });
        if mentions {
            if let Some(tok) = ctx.toks.get(hs) {
                if !flagged_lines.contains(&tok.line) {
                    flagged_lines.push(tok.line);
                    ctx.push(
                        out,
                        tok,
                        "D1",
                        "iterating a HashMap/HashSet in library code; unordered iteration \
                         breaks bit-parity — use a Vec/BTreeMap or sort keys first"
                            .to_string(),
                    );
                }
            }
        }
    }
    // (b) iteration methods invoked on a map binding anywhere (covers
    // `.iter().map(..)` chains outside for-headers).
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.model.in_test(i) {
            continue;
        }
        let is_iter_method = MAP_ITER_METHODS.iter().any(|m| t.is_ident(m))
            && i > 0
            && ctx.toks.get(i - 1).is_some_and(|t| t.is_punct("."))
            && ctx.toks.get(i + 1).is_some_and(|t| t.is_punct("("));
        if !is_iter_method {
            continue;
        }
        let receiver_is_map = i
            .checked_sub(2)
            .and_then(|r| ctx.toks.get(r))
            .is_some_and(|r| map_names.iter().any(|n| r.is_ident(n)));
        if receiver_is_map {
            if let Some(tok) = ctx.toks.get(i) {
                if !flagged_lines.contains(&tok.line) {
                    flagged_lines.push(tok.line);
                    ctx.push(
                        out,
                        tok,
                        "D1",
                        format!(
                            "calling .{}() on a HashMap/HashSet in library code; unordered \
                             iteration breaks bit-parity — use a Vec/BTreeMap or sort first",
                            t.text
                        ),
                    );
                }
            }
        }
    }
}

/// D2: wall-clock reads in library code outside net/bench need an audited
/// justification (timeouts are fine; model-affecting decisions are not).
fn rule_d2_wall_clock(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !ctx.scope.is_library || ctx.scope.in_net || ctx.scope.in_bench {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if !t.is_ident("now") || !ctx.lib_at(i) {
            continue;
        }
        let chain = path_ending_at(ctx.toks, i);
        if chain_ends_with(&chain, &["Instant", "now"])
            || chain_ends_with(&chain, &["SystemTime", "now"])
        {
            ctx.push(
                out,
                t,
                "D2",
                "wall-clock read in library code; timeouts are fine but model-affecting \
                 control flow is not — audit the dataflow and justify with \
                 `// plos-lint: allow(D2): <why>`"
                    .to_string(),
            );
        }
    }
}

/// D3: float `+=` reductions inside loops, outside `crates/linalg`: route
/// them through the fixed-order `linalg::kernels` accumulators or justify.
fn rule_d3_float_fold(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !ctx.scope.is_library || ctx.scope.in_linalg {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if !t.is_punct("+=") || !ctx.model.in_loop_body(i) || ctx.model.in_test(i) {
            continue;
        }
        // Plain-identifier LHS only: `acc += ..`, not `xs[i] += ..` or
        // `self.field += ..` (element updates are not reductions).
        let Some(lhs_idx) = i.checked_sub(1) else { continue };
        let Some(lhs) = ctx.toks.get(lhs_idx) else { continue };
        if lhs.kind != TokKind::Ident {
            continue;
        }
        let plain = lhs_idx
            .checked_sub(1)
            .and_then(|p| ctx.toks.get(p))
            .is_none_or(|p| !(p.is_punct(".") || p.is_punct("]") || p.is_punct("::")));
        if !plain {
            continue;
        }
        let float_bound = ctx.model.lets.iter().any(|l| {
            l.name == lhs.text
                && l.idx < i
                && (l.ty.contains("f64")
                    || l.ty.contains("f32")
                    || l.init.split(' ').next().is_some_and(|first| {
                        first.contains('.') && first.chars().next().is_some_and(char::is_numeric)
                    }))
        });
        if float_bound {
            ctx.push(
                out,
                lhs,
                "D3",
                format!(
                    "ad-hoc float reduction `{} +=` inside a loop; route the fold \
                     through the fixed-order linalg::kernels accumulators or justify \
                     the ordering with `// plos-lint: allow(D3): <why>`",
                    lhs.text
                ),
            );
        }
    }
}

/// C1 per-file pass: collect lock-acquisition order facts and flag
/// same-function reentrant acquisition outright.
fn rule_c1_collect_locks(ctx: &FileCtx, f: &mut FileFindings) {
    if !ctx.scope.is_library {
        return;
    }
    for item in &ctx.model.fns {
        let Some((body_start, body_end)) = item.body else { continue };
        if ctx.model.in_test(body_start) {
            continue;
        }
        // Acquisitions: (receiver, acquire idx, release idx).
        let mut held: Vec<(String, usize, usize)> = Vec::new();
        let mut i = body_start;
        while i < body_end {
            let Some(t) = ctx.toks.get(i) else { break };
            if t.is_ident("lock")
                && i > 0
                && ctx.toks.get(i - 1).is_some_and(|t| t.is_punct("."))
                && ctx.toks.get(i + 1).is_some_and(|t| t.is_punct("("))
            {
                let receiver = receiver_before(ctx.toks, i - 1, body_start);
                let guard_name = let_guard_name(ctx.toks, i, body_start);
                let release = match &guard_name {
                    Some(name) => find_drop(ctx.toks, i, body_end, name),
                    None => next_semi(ctx.toks, i, body_end),
                };
                // Overlap with anything still held: ordering fact (or a
                // reentrant acquisition if it is the same receiver).
                for (prev, _acq, rel) in &held {
                    if *rel > i {
                        if *prev == receiver {
                            ctx.push(
                                &mut f.violations,
                                t,
                                "C1",
                                format!(
                                    "re-acquiring `{receiver}.lock()` while its guard is \
                                     still live deadlocks parking_lot"
                                ),
                            );
                        } else {
                            f.lock_edges.push(LockEdge {
                                first: prev.clone(),
                                second: receiver.clone(),
                                path: ctx.rel.to_string(),
                                line: t.line,
                                col: t.col,
                            });
                        }
                    }
                }
                held.push((receiver, i, release));
            }
            i += 1;
        }
    }
}

/// Receiver text of a method call: walks back from the `.` over the path /
/// call chain (`self.slots`, `counter_registry()`, `a.b`).
fn receiver_before(toks: &[Tok], dot_idx: usize, floor: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut i = dot_idx;
    while i > floor {
        let Some(prev) = toks.get(i - 1) else { break };
        match prev.text.as_str() {
            ")" | "]" => {
                // Skip the balanced group; record it as `()` so
                // `counter_registry()` and `counter_registry(x)` coincide.
                let open = if prev.text == ")" { "(" } else { "[" };
                let mut depth = 0isize;
                let mut j = i - 1;
                while j > floor {
                    let Some(tj) = toks.get(j) else { break };
                    if tj.text == prev.text {
                        depth += 1;
                    } else if tj.text == open {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j -= 1;
                }
                parts.push("()".to_string());
                i = j;
            }
            "." | "::" => {
                parts.push(prev.text.clone());
                i -= 1;
            }
            _ if prev.kind == TokKind::Ident => {
                parts.push(prev.text.clone());
                i -= 1;
                // Stop unless the next-left token continues the chain.
                let cont = i
                    .checked_sub(1)
                    .and_then(|p| toks.get(p))
                    .is_some_and(|p| p.is_punct(".") || p.is_punct("::"));
                if !cont {
                    break;
                }
            }
            _ => break,
        }
    }
    parts.reverse();
    parts.concat()
}

/// When the `.lock()` at `lock_idx` is the RHS of `let g = ..`, the guard
/// name `g`; `None` for a temporary.
fn let_guard_name(toks: &[Tok], lock_idx: usize, floor: usize) -> Option<String> {
    // Walk back to the statement start and look for `let [mut] name =`.
    let mut i = lock_idx;
    while i > floor {
        let Some(prev) = toks.get(i - 1) else { break };
        if prev.kind == TokKind::Punct && matches!(prev.text.as_str(), ";" | "{" | "}") {
            break;
        }
        i -= 1;
    }
    if toks.get(i).is_some_and(|t| t.is_ident("let")) {
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let name = toks.get(j).filter(|t| t.kind == TokKind::Ident).map(|t| t.text.clone());
        if toks.get(j + 1).is_some_and(|t| t.is_punct("=") || t.is_punct(":")) {
            return name;
        }
    }
    None
}

/// Index of `drop(name)` after `from` (guard release), or `to` when the
/// guard lives to the end of the function.
fn find_drop(toks: &[Tok], from: usize, to: usize, name: &str) -> usize {
    let mut i = from;
    while i < to {
        if toks.get(i).is_some_and(|t| t.is_ident("drop"))
            && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
            && toks.get(i + 2).is_some_and(|t| t.is_ident(name))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(")"))
        {
            return i;
        }
        i += 1;
    }
    to
}

/// Next `;` after `from` (end of a temporary guard's statement).
fn next_semi(toks: &[Tok], from: usize, to: usize) -> usize {
    let mut i = from;
    while i < to {
        if toks.get(i).is_some_and(|t| t.is_punct(";")) {
            return i;
        }
        i += 1;
    }
    to
}

/// Integer types an `as` cast may silently truncate into.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// C2: `as` casts to sub-64-bit integer types in library code: convert to
/// `try_into` with a typed error or justify the range argument.
fn rule_c2_narrowing_cast(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !ctx.scope.is_library {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if !t.is_ident("as") || !ctx.lib_at(i) {
            continue;
        }
        let Some(target) = ctx.toks.get(i + 1) else { continue };
        if !NARROW_TARGETS.iter().any(|n| target.is_ident(n)) {
            continue;
        }
        // A literal source is compile-time checkable; skip it.
        if ctx.toks.get(i.wrapping_sub(1)).is_some_and(|t| t.kind == TokKind::Int) {
            continue;
        }
        ctx.push(
            out,
            t,
            "C2",
            format!(
                "narrowing `as {}` cast in library code; use try_into with a typed \
                 error or justify the range with `// plos-lint: allow(C2): <why>`",
                target.text
            ),
        );
    }
}

/// Identifier fragments that mark an unbounded counter or byte total.
const COUNTER_FRAGMENTS: &[&str] =
    &["bytes", "total", "errors", "discards", "failures", "evictions", "hits", "misses"];

/// C3: counters and byte totals accumulate with `saturating_*`/`checked_*`,
/// never bare `+=` (multi-day runs must clamp, not wrap or panic).
fn rule_c3_counter_arith(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !ctx.scope.is_library {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if !t.is_punct("+=") || ctx.model.in_test(i) {
            continue;
        }
        let Some(lhs) = i.checked_sub(1).and_then(|p| ctx.toks.get(p)) else { continue };
        if lhs.kind != TokKind::Ident {
            continue;
        }
        let lower = lhs.text.to_lowercase();
        if COUNTER_FRAGMENTS.iter().any(|f| lower.contains(f)) {
            ctx.push(
                out,
                lhs,
                "C3",
                format!(
                    "counter `{}` accumulates with bare `+=`; use saturating_add/\
                     checked_add so long runs clamp instead of wrapping",
                    lhs.text
                ),
            );
        }
    }
}

/// U1: `unsafe` is sanctioned only inside the `linalg::kernels` SIMD
/// modules, and even there every site must sit in a file showing runtime
/// feature detection (`is_x86_feature_detected!` or `#[target_feature]`)
/// and carry a `plos-lint: allow(U1): <reason>` justification (the
/// directive is what suppresses the per-site firing).
fn rule_u1_unsafe_scope(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !ctx.scope.is_library {
        return;
    }
    let detected = ctx
        .toks
        .iter()
        .any(|t| t.is_ident("is_x86_feature_detected") || t.is_ident("target_feature"));
    for (i, t) in ctx.toks.iter().enumerate() {
        if !t.is_ident("unsafe") || !ctx.lib_at(i) {
            continue;
        }
        if !ctx.scope.in_linalg_kernels {
            ctx.push(
                out,
                t,
                "U1",
                "`unsafe` outside crates/linalg/src/kernels/; SIMD bodies live there \
                 behind the runtime dispatcher — safe code everywhere else"
                    .to_string(),
            );
        } else if !detected {
            ctx.push(
                out,
                t,
                "U1",
                "`unsafe` in a kernel module with no runtime feature detection in \
                 sight; gate the SIMD path behind is_x86_feature_detected! and \
                 #[target_feature]"
                    .to_string(),
            );
        } else {
            ctx.push(
                out,
                t,
                "U1",
                "unjustified `unsafe` SIMD site; state the safety argument with \
                 `// plos-lint: allow(U1): <why the accesses are in bounds>`"
                    .to_string(),
            );
        }
    }
}

/// U2: unwind-boundary control (`catch_unwind`/`resume_unwind`) in library
/// code. Swallowing or re-raising panics changes who observes a crash, so
/// every site outside crates/exec must carry a
/// `plos-lint: allow(U2): <reason>` directive saying where the payload
/// goes. The pool crate is carved out wholesale: re-raising worker panics
/// on the submitting caller is its documented contract.
fn rule_u2_panic_propagation(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !ctx.scope.is_library || ctx.scope.in_exec {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if !(t.is_ident("catch_unwind") || t.is_ident("resume_unwind")) || !ctx.lib_at(i) {
            continue;
        }
        // Skip the `use std::panic::{catch_unwind, ...}` import line — the
        // call sites are what need per-site justification.
        if ctx.model.uses.iter().any(|u| u.line == t.line) {
            continue;
        }
        ctx.push(
            out,
            t,
            "U2",
            format!(
                "`{}` in library code decides who observes a panic; justify the \
                 site with `// plos-lint: allow(U2): <where the payload goes>`",
                t.text
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::syntax::build;

    fn run(rel: &str, src: &str) -> Vec<Violation> {
        let lexed = lex(src);
        let model = build(&lexed.toks);
        let ctx = FileCtx {
            rel,
            toks: &lexed.toks,
            comments: &lexed.comments,
            model: &model,
            scope: crate::scope_of(rel),
        };
        check_file(&ctx).violations
    }

    fn rules(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn r1_fires_on_path_and_use_not_on_strings() {
        let fire = run("crates/core/src/a.rs", "use std::sync::Mutex;\nfn f() {}");
        assert_eq!(rules(&fire), vec!["R1"]);
        let clean = run(
            "crates/core/src/a.rs",
            "use parking_lot::Mutex;\nfn f() { let m = Mutex::new(0); }",
        );
        assert!(rules(&clean).is_empty(), "{clean:?}");
        let in_string = run("crates/core/src/a.rs", "fn f() { let s = \"std::sync::Mutex\"; }");
        assert!(rules(&in_string).is_empty());
    }

    #[test]
    fn d2_exempts_net_and_tests() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }";
        assert_eq!(rules(&run("crates/core/src/a.rs", src)), vec!["D2"]);
        assert!(rules(&run("crates/net/src/a.rs", src)).is_empty());
        let test_only = "#[cfg(test)]\nmod tests { use std::time::Instant;\nfn f() { let t = Instant::now(); } }";
        assert!(rules(&run("crates/core/src/a.rs", test_only)).is_empty());
    }

    #[test]
    fn c2_skips_literals_and_tests() {
        assert_eq!(
            rules(&run("crates/core/src/a.rs", "fn f(n: usize) -> u32 { n as u32 }")),
            vec!["C2"]
        );
        assert!(rules(&run("crates/core/src/a.rs", "fn f() -> u32 { 7 as u32 }")).is_empty());
        assert!(rules(&run("tests/a.rs", "fn f(n: usize) -> u32 { n as u32 }")).is_empty());
    }

    #[test]
    fn d3_needs_float_binding_in_loop() {
        let fire = "fn f(xs: &[f64]) -> f64 { let mut acc = 0.0; for x in xs { acc += x; } acc }";
        assert_eq!(rules(&run("crates/opt/src/a.rs", fire)), vec!["D3"]);
        let int = "fn f(xs: &[u64]) -> u64 { let mut n = 0; for _x in xs { n += 1; } n }";
        assert!(rules(&run("crates/opt/src/a.rs", int)).is_empty());
        let linalg = run("crates/linalg/src/kernels.rs", fire);
        assert!(rules(&linalg).is_empty(), "linalg hosts the accumulators");
    }

    #[test]
    fn u1_scopes_unsafe_to_kernel_modules() {
        let body = "fn f(p: *const f64) -> f64 { unsafe { *p } }";
        assert_eq!(rules(&run("crates/core/src/a.rs", body)), vec!["U1"]);
        assert_eq!(rules(&run("crates/linalg/src/matrix.rs", body)), vec!["U1"]);
        // In a kernel module without detection evidence it still fires…
        assert_eq!(rules(&run("crates/linalg/src/kernels/x86.rs", body)), vec!["U1"]);
        // …and with detection it fires pending a justification directive
        // (suppression happens in the engine, not here).
        let detected =
            "#[target_feature(enable = \"avx2\")]\nunsafe fn f(p: *const f64) -> f64 { *p }";
        assert_eq!(rules(&run("crates/linalg/src/kernels/x86.rs", detected)), vec!["U1"]);
        // Tests and non-library scopes are exempt.
        let test_only = "#[cfg(test)]\nmod tests { fn f(p: *const f64) -> f64 { unsafe { *p } } }";
        assert!(rules(&run("crates/linalg/src/kernels/mod.rs", test_only)).is_empty());
        assert!(rules(&run("tests/a.rs", body)).is_empty());
    }

    #[test]
    fn r2_confines_spawn_to_exec_and_fires_per_site_in_net() {
        let body = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
        // Solver crates: banned outright.
        assert_eq!(rules(&run("crates/core/src/a.rs", body)), vec!["R2"]);
        // Net runners: fires per site, pending a justification directive
        // (suppression happens in the engine, not here).
        assert_eq!(rules(&run("crates/net/src/a.rs", body)), vec!["R2"]);
        // The pool crate owns threading.
        assert!(rules(&run("crates/exec/src/a.rs", body)).is_empty());
        // Import form fires too, outside exec.
        let import = "use std::thread::spawn;\nfn f() {}";
        assert_eq!(rules(&run("crates/net/src/a.rs", import)), vec!["R2"]);
    }

    #[test]
    fn u2_gates_unwind_boundaries_outside_exec() {
        let body = "fn f() { let r = std::panic::catch_unwind(|| 1); }";
        assert_eq!(rules(&run("crates/net/src/a.rs", body)), vec!["U2"]);
        assert_eq!(rules(&run("crates/core/src/a.rs", body)), vec!["U2"]);
        // The pool re-raises worker panics by contract.
        let reraise = "fn f(p: P) { std::panic::resume_unwind(p); }";
        assert!(rules(&run("crates/exec/src/a.rs", reraise)).is_empty());
        // The import line itself is not a site.
        let import = "use std::panic::{catch_unwind, AssertUnwindSafe};\nfn f() {}";
        assert!(rules(&run("crates/net/src/a.rs", import)).is_empty());
        // Tests and non-library scopes are exempt.
        assert!(rules(&run("tests/a.rs", body)).is_empty());
        let test_only =
            "#[cfg(test)]\nmod tests { fn f() { let r = std::panic::catch_unwind(|| 1); } }";
        assert!(rules(&run("crates/net/src/a.rs", test_only)).is_empty());
    }

    #[test]
    fn c1_reentrant_lock_fires() {
        let src = "fn f(m: &Mutex<u32>) { let a = m.lock(); let b = m.lock(); }";
        let v = run("crates/core/src/a.rs", src);
        assert_eq!(rules(&v), vec!["C1"]);
    }

    #[test]
    fn c1_edges_collected_for_cross_file_pass() {
        let src = "fn f() { let a = x.lock(); let b = y.lock(); }";
        let lexed = lex(src);
        let model = build(&lexed.toks);
        let ctx = FileCtx {
            rel: "crates/core/src/a.rs",
            toks: &lexed.toks,
            comments: &lexed.comments,
            model: &model,
            scope: crate::scope_of("crates/core/src/a.rs"),
        };
        let f = check_file(&ctx);
        assert_eq!(f.lock_edges.len(), 1);
        assert!(f.lock_edges.first().is_some_and(|e| e.first == "x" && e.second == "y"));
    }
}
