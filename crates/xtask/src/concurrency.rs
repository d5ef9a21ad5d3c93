//! `CC` — the concurrency-correctness pass: an atomic-ordering ledger
//! (`CC01`), a seqlock-protocol verifier (`CC02`), and a
//! lock-acquisition-order lint (`CC03`), in prove-then-sanction style.
//!
//! ## CC01 — atomic-ordering ledger
//!
//! Every `Ordering::Relaxed` and `Ordering::SeqCst` site in lib code
//! must either be **proven benign** or carry a live sanction. The proof
//! is intra-procedural dataflow over the token stream: a relaxed load
//! (or value-returning RMW) is *counter-only* when the loaded value —
//! tracked through `let` bindings — never feeds a branch condition
//! (`if`/`while`/`match`/`for` header) or an index expression (`[…]`,
//! `.get(…)`, `.get_unchecked(…)`) within the enclosing function.
//! Relaxed *stores* are benign on their own: the storing thread cannot
//! mis-order against itself, and cross-thread publication obligations
//! are protocol property checked by `CC02`. A `SeqCst` site is never
//! benign — it is over-strong by default and must be downgraded or
//! sanctioned by a protocol that genuinely needs sequential consistency.
//!
//! A non-benign site carries `// SANCTION(CC01: <protocol>): reason` on
//! its line or the line above, where `<protocol>` names a
//! `// CC-PROTOCOL(<name>): <kind> …` block declared in lib code:
//!
//! ```text
//! // CC-PROTOCOL(seqlock-flight-recorder): seqlock writer=FlightRecorder::record_at reader=FlightRecorder::snapshot_events
//! // CC-PROTOCOL(watchdog-stop-flag): flag
//! ```
//!
//! * kind `seqlock` — verified structurally by `CC02` *this run*; a
//!   sanction referencing a seqlock protocol whose verification failed
//!   is stale.
//! * kind `flag` — a monotonic boolean (stop/enable gate); branches on
//!   it only affect when a loop notices the transition, never which
//!   data it may touch. Must be referenced by at least one sanction or
//!   the block itself is stale.
//!
//! Hard errors: an unsanctioned non-benign site (with the offending
//! flow named), a sanction on a site the proof discharges anyway
//! (stale), a sanction naming an undeclared protocol (forged), and a
//! declared-but-unused protocol block (stale).
//!
//! ## CC02 — seqlock protocol verifier
//!
//! For each `seqlock` protocol block, the named writer must store an
//! **odd** sequence with `Release`, then the payload (relaxed stores,
//! directly or through a single-store helper), then the **even**
//! sequence with `Release`; the named reader must open with an
//! `Acquire` sequence load, skip odd/zero sequences, read the payload
//! relaxed, re-load the sequence with `Acquire`, and discard on
//! mismatch. Each missing edge is reported by name (e.g. "the closing
//! sequence store must be `Ordering::Release`").
//!
//! ## CC03 — lock-acquisition order
//!
//! Token-level guard tracking (`lock_recover(&x)` / `x.lock()`, guard
//! extents from `let` binding to `drop(g)` or end of the declaring
//! block) plus name-resolved call propagation builds the directed
//! lock-order graph. Any cycle (including a self-edge: re-acquiring a
//! held, non-reentrant mutex) is a hard error with the cycle spelled
//! out. Additionally, `Condvar::wait(g)` while holding any *other*
//! lock, and blocking calls (`Engine::submit`, no-arg `JobHandle::wait`
//! style `.wait()`) under any lock, are errors — a sleeping thread must
//! never pin a lock another thread needs to wake it.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use wse_sim::verify::{Diagnostic, Severity};

use crate::lexer::{Tok, TokKind};
use crate::lint::LoadedFile;
use crate::scan::{fn_bodies, FnBody};

/// Outcome of the CC pass over the workspace.
pub struct ConcurrencyReport {
    /// Hard errors from all three rules.
    pub diagnostics: Vec<Diagnostic>,
    /// CC01 sites examined (`Relaxed` + `SeqCst` in lib code).
    pub atomic_sites: usize,
    /// Sites the dataflow proof discharged as counter-only.
    pub benign: usize,
    /// Sites covered by a live protocol sanction.
    pub sanctioned: usize,
    /// Declared `CC-PROTOCOL` blocks.
    pub protocols: usize,
    /// Seqlock protocols CC02 verified end-to-end this run.
    pub seqlocks_verified: usize,
    /// Distinct locks in the CC03 acquisition graph.
    pub locks: usize,
    /// Directed lock-order edges observed.
    pub lock_edges: usize,
    /// `Condvar::wait` sites checked.
    pub wait_sites: usize,
}

/// One declared `// CC-PROTOCOL(<name>): <kind> …` block.
struct Protocol {
    name: String,
    kind: String,
    writer: Option<String>,
    reader: Option<String>,
    file: String,
    line: usize,
}

/// One `// SANCTION(CC01: <protocol>): reason` comment.
struct Cc01Sanction {
    protocol: String,
    file: String,
    line: usize,
}

impl Cc01Sanction {
    /// A sanction covers a site on its own line or the line below.
    fn covers(&self, file: &str, line: usize) -> bool {
        self.file == file && (self.line == line || self.line + 1 == line)
    }
}

/// Run the CC pass over the pre-loaded workspace.
pub fn check(files: &[LoadedFile]) -> ConcurrencyReport {
    let fns = &fn_bodies(files);
    let mut report = ConcurrencyReport {
        diagnostics: Vec::new(),
        atomic_sites: 0,
        benign: 0,
        sanctioned: 0,
        protocols: 0,
        seqlocks_verified: 0,
        locks: 0,
        lock_edges: 0,
        wait_sites: 0,
    };

    let protocols = collect_protocols(files, &mut report.diagnostics);
    report.protocols = protocols.len();

    // CC02 first: CC01 sanction liveness depends on which seqlock
    // protocols verified this run.
    let mut verified: BTreeSet<String> = BTreeSet::new();
    for p in &protocols {
        if p.kind == "seqlock" && verify_seqlock(p, files, fns, &mut report.diagnostics) {
            verified.insert(p.name.clone());
            report.seqlocks_verified += 1;
        }
    }

    cc01_ledger(files, fns, &protocols, &verified, &mut report);
    cc03_lock_order(files, fns, &mut report);
    report
}

// ---------------------------------------------------------------------
// Protocol blocks and sanctions
// ---------------------------------------------------------------------

fn collect_protocols(files: &[LoadedFile], diags: &mut Vec<Diagnostic>) -> Vec<Protocol> {
    let mut out = Vec::new();
    for f in files {
        for t in &f.toks {
            if t.kind != TokKind::LineComment {
                continue;
            }
            let text = t.text(&f.src);
            let Some(rest) = text.split("CC-PROTOCOL(").nth(1) else {
                continue;
            };
            let Some((name, after)) = rest.split_once(')') else {
                continue;
            };
            let body = after.strip_prefix(':').unwrap_or(after).trim();
            let mut kind = String::new();
            let mut writer = None;
            let mut reader = None;
            for word in body.split_whitespace() {
                if let Some(w) = word.strip_prefix("writer=") {
                    writer = Some(w.to_string());
                } else if let Some(r) = word.strip_prefix("reader=") {
                    reader = Some(r.to_string());
                } else if kind.is_empty() {
                    kind = word.to_string();
                }
            }
            if !matches!(kind.as_str(), "seqlock" | "flag") {
                diags.push(Diagnostic {
                    rule: "CC01",
                    severity: Severity::Error,
                    location: format!("{}:{}", f.rel, t.line),
                    message: format!(
                        "malformed CC-PROTOCOL block `{}`: kind must be `seqlock` or `flag`, \
                         got `{kind}`",
                        name.trim()
                    ),
                });
                continue;
            }
            if kind == "seqlock" && (writer.is_none() || reader.is_none()) {
                diags.push(Diagnostic {
                    rule: "CC01",
                    severity: Severity::Error,
                    location: format!("{}:{}", f.rel, t.line),
                    message: format!(
                        "seqlock protocol `{}` must name writer= and reader= functions",
                        name.trim()
                    ),
                });
                continue;
            }
            out.push(Protocol {
                name: name.trim().to_string(),
                kind,
                writer,
                reader,
                file: f.rel.clone(),
                line: t.line,
            });
        }
    }
    out
}

fn collect_cc01_sanctions(files: &[LoadedFile], diags: &mut Vec<Diagnostic>) -> Vec<Cc01Sanction> {
    let mut out = Vec::new();
    for f in files {
        for t in &f.toks {
            if t.kind != TokKind::LineComment {
                continue;
            }
            let text = t.text(&f.src);
            let Some(rest) = text.split("SANCTION(CC01").nth(1) else {
                continue;
            };
            let Some((inner, _)) = rest.split_once(')') else {
                continue;
            };
            let protocol = inner.strip_prefix(':').unwrap_or("").trim().to_string();
            if protocol.is_empty() {
                diags.push(Diagnostic {
                    rule: "CC01",
                    severity: Severity::Error,
                    location: format!("{}:{}", f.rel, t.line),
                    message: "CC01 sanction must name a protocol: \
                              `// SANCTION(CC01: <protocol>): reason`"
                        .to_string(),
                });
                continue;
            }
            out.push(Cc01Sanction {
                protocol,
                file: f.rel.clone(),
                line: t.line,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// CC01 — atomic-ordering ledger
// ---------------------------------------------------------------------

/// Token-index extent of the function (from `fns`) that encloses
/// `line` in `f`, innermost (latest-starting) first.
fn enclosing_fn_toks(
    f: &LoadedFile,
    fns: &[FnBody],
    line: usize,
) -> Option<(usize, usize, String)> {
    let body = fns
        .iter()
        .filter(|b| b.file == f.rel && b.line_start <= line && line <= b.line_end)
        .max_by_key(|b| b.line_start)?;
    let lo = f.toks.partition_point(|t| t.line < body.line_start);
    let hi = f.toks.partition_point(|t| t.line <= body.line_end);
    Some((lo, hi, body.qualified.clone()))
}

/// Atomic methods whose `Ordering` argument orders a *read* the caller
/// can observe (the value flows back into the program).
const VALUE_OPS: &[&str] = &[
    "load",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_update",
];

fn is_punct(t: &Tok, src: &str, p: &str) -> bool {
    t.kind == TokKind::Punct && t.text(src) == p
}

fn is_ident(t: &Tok, src: &str, name: &str) -> bool {
    t.kind == TokKind::Ident && t.text(src) == name
}

/// Skip comment tokens (they carry no syntax).
fn code_toks(f: &LoadedFile, lo: usize, hi: usize) -> Vec<usize> {
    (lo..hi)
        .filter(|&i| !matches!(f.toks[i].kind, TokKind::LineComment | TokKind::BlockComment))
        .collect()
}

/// Walk back from token `site` to the callee ident of the call whose
/// parens enclose it (e.g. `store` in `seq.store(v, Ordering::Release)`).
fn enclosing_callee(f: &LoadedFile, idx: &[usize], pos: usize) -> Option<String> {
    let mut depth = 0i32;
    for k in (0..pos).rev() {
        let t = &f.toks[idx[k]];
        if is_punct(t, &f.src, ")") || is_punct(t, &f.src, "]") {
            depth += 1;
        } else if is_punct(t, &f.src, "(") || is_punct(t, &f.src, "[") {
            depth -= 1;
            if depth < 0 {
                let prev = &f.toks[*idx.get(k.checked_sub(1)?)?];
                if prev.kind == TokKind::Ident {
                    return Some(prev.text(&f.src).to_string());
                }
                return None;
            }
        }
    }
    None
}

/// Condition regions of a fn body: token-index ranges (into `idx`) from
/// an `if`/`while`/`match`/`for` keyword up to its opening `{`.
fn condition_regions(f: &LoadedFile, idx: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (k, &i) in idx.iter().enumerate() {
        let t = &f.toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let kw = t.text(&f.src);
        if !matches!(kw, "if" | "while" | "match" | "for") {
            continue;
        }
        let mut depth = 0i32;
        for (m, &j) in idx.iter().enumerate().skip(k + 1) {
            let u = &f.toks[j];
            if is_punct(u, &f.src, "(") || is_punct(u, &f.src, "[") {
                depth += 1;
            } else if is_punct(u, &f.src, ")") || is_punct(u, &f.src, "]") {
                depth -= 1;
            } else if is_punct(u, &f.src, "{") {
                if depth <= 0 {
                    out.push((k + 1, m));
                    break;
                }
                depth += 1;
            } else if is_punct(u, &f.src, "}") {
                depth -= 1;
            } else if is_punct(u, &f.src, ";") && depth <= 0 {
                break; // malformed / statement boundary — give up
            }
        }
    }
    out
}

/// Index regions: inside `xs[…]`, or the argument list of
/// `.get(…)`/`.get_mut(…)`/`.get_unchecked(…)`/`.get_unchecked_mut(…)`.
fn index_regions(f: &LoadedFile, idx: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (k, &i) in idx.iter().enumerate() {
        let t = &f.toks[i];
        let open_index = is_punct(t, &f.src, "[")
            && k > 0
            && (f.toks[idx[k - 1]].kind == TokKind::Ident
                || is_punct(&f.toks[idx[k - 1]], &f.src, ")")
                || is_punct(&f.toks[idx[k - 1]], &f.src, "]"));
        let open_get = t.kind == TokKind::Ident
            && matches!(
                t.text(&f.src),
                "get" | "get_mut" | "get_unchecked" | "get_unchecked_mut"
            )
            && idx
                .get(k + 1)
                .is_some_and(|&j| is_punct(&f.toks[j], &f.src, "("));
        if !(open_index || open_get) {
            continue;
        }
        let (open_at, open_ch, close_ch) = if open_index {
            (k, "[", "]")
        } else {
            (k + 1, "(", ")")
        };
        let mut depth = 0i32;
        for (m, &j) in idx.iter().enumerate().skip(open_at) {
            let u = &f.toks[j];
            if is_punct(u, &f.src, open_ch) {
                depth += 1;
            } else if is_punct(u, &f.src, close_ch) {
                depth -= 1;
                if depth == 0 {
                    out.push((open_at + 1, m));
                    break;
                }
            }
        }
    }
    out
}

/// Statements of a fn body: `(start, end)` ranges into `idx` split on
/// `;` / `{` / `}` at any depth, plus the `let` binding name when the
/// statement opens with `let [mut] NAME =`.
fn statements(f: &LoadedFile, idx: &[usize]) -> Vec<(usize, usize, Option<String>)> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for (k, &i) in idx.iter().enumerate() {
        let t = &f.toks[i];
        if is_punct(t, &f.src, ";") || is_punct(t, &f.src, "{") || is_punct(t, &f.src, "}") {
            if k > start {
                out.push((start, k, let_binding(f, idx, start)));
            }
            start = k + 1;
        }
    }
    if idx.len() > start {
        out.push((start, idx.len(), let_binding(f, idx, start)));
    }
    out
}

fn let_binding(f: &LoadedFile, idx: &[usize], start: usize) -> Option<String> {
    if !is_ident(&f.toks[*idx.get(start)?], &f.src, "let") {
        return None;
    }
    let mut k = start + 1;
    if idx
        .get(k)
        .is_some_and(|&j| is_ident(&f.toks[j], &f.src, "mut"))
    {
        k += 1;
    }
    let name_tok = &f.toks[*idx.get(k)?];
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    if !is_punct(&f.toks[*idx.get(k + 1)?], &f.src, "=") {
        return None; // pattern binding (`let Some(x) = …`) — not tracked
    }
    Some(name_tok.text(&f.src).to_string())
}

/// The CC01 benign-site proof: taint the site's bound value and check
/// nothing tainted ever reaches a branch condition or index expression.
/// Returns `None` when benign, or `Some(reason)` naming the flow.
fn dataflow_violation(f: &LoadedFile, idx: &[usize], site_pos: usize) -> Option<String> {
    let conds = condition_regions(f, idx);
    let indices = index_regions(f, idx);
    let in_region =
        |regions: &[(usize, usize)], pos: usize| regions.iter().any(|&(a, b)| a <= pos && pos < b);

    if in_region(&conds, site_pos) {
        return Some("the loaded value decides a branch".to_string());
    }
    if in_region(&indices, site_pos) {
        return Some("the loaded value feeds an index expression".to_string());
    }

    // Taint the `let` binding of the site's statement, then propagate
    // through later `let` statements whose right-hand side mentions a
    // tainted name.
    let stmts = statements(f, idx);
    let site_stmt = stmts
        .iter()
        .position(|&(a, b, _)| a <= site_pos && site_pos < b)?;
    let (_, _, binding) = &stmts[site_stmt];
    let first = binding.clone()?; // unbound result: discarded or pure expression use — benign
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    tainted.insert(first);

    // Fixpoint over straight-line `let` propagation (bindings only flow
    // forward, so two passes reach it; loop for safety).
    loop {
        let mut grew = false;
        for &(a, b, ref bind) in stmts.iter().skip(site_stmt + 1) {
            let Some(name) = bind else { continue };
            if tainted.contains(name) {
                continue;
            }
            let rhs_tainted = (a..b).any(|k| {
                let t = &f.toks[idx[k]];
                t.kind == TokKind::Ident && tainted.contains(t.text(&f.src))
            });
            if rhs_tainted {
                tainted.insert(name.clone());
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    for (k, &i) in idx.iter().enumerate().skip(site_pos) {
        let t = &f.toks[i];
        if t.kind != TokKind::Ident || !tainted.contains(t.text(&f.src)) {
            continue;
        }
        if in_region(&conds, k) {
            return Some(format!(
                "tainted value `{}` decides the branch at line {}",
                t.text(&f.src),
                t.line
            ));
        }
        if in_region(&indices, k) {
            return Some(format!(
                "tainted value `{}` feeds the index expression at line {}",
                t.text(&f.src),
                t.line
            ));
        }
    }
    None
}

fn cc01_ledger(
    files: &[LoadedFile],
    fns: &[FnBody],
    protocols: &[Protocol],
    verified_seqlocks: &BTreeSet<String>,
    report: &mut ConcurrencyReport,
) {
    let sanctions = collect_cc01_sanctions(files, &mut report.diagnostics);
    let mut sanction_hits = vec![0usize; sanctions.len()];
    let by_name: BTreeMap<&str, &Protocol> =
        protocols.iter().map(|p| (p.name.as_str(), p)).collect();
    let mut protocol_hits: BTreeMap<String, usize> = BTreeMap::new();

    for f in files {
        for (ti, t) in f.toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let strength = t.text(&f.src);
            if !matches!(strength, "Relaxed" | "SeqCst") {
                continue;
            }
            // Must be `<…Ordering>::Relaxed` / `::SeqCst`.
            let qualified = ti >= 2
                && is_punct(&f.toks[ti - 1], &f.src, "::")
                && f.toks[ti - 2].kind == TokKind::Ident
                && f.toks[ti - 2].text(&f.src).ends_with("Ordering");
            if !qualified || f.line_is_test(t.line) {
                continue;
            }
            report.atomic_sites += 1;
            let location = format!("{}:{}", f.rel, t.line);

            let Some((lo, hi, func)) = enclosing_fn_toks(f, fns, t.line) else {
                report.diagnostics.push(Diagnostic {
                    rule: "CC01",
                    severity: Severity::Error,
                    location,
                    message: format!(
                        "`Ordering::{strength}` outside any analyzable function — \
                         move it into a fn body so the ledger can prove it"
                    ),
                });
                continue;
            };
            let idx = code_toks(f, lo, hi);
            let site_pos = idx.partition_point(|&j| j < ti);
            let callee = enclosing_callee(f, &idx, site_pos).unwrap_or_default();

            // Relaxed stores cannot mis-order the storing thread; their
            // protocol placement is CC02's job.
            let violation = if strength == "SeqCst" {
                Some(
                    "SeqCst is over-strong by default — downgrade to \
                     Acquire/Release/Relaxed or sanction with a protocol that \
                     needs sequential consistency"
                        .to_string(),
                )
            } else if callee == "store" {
                None
            } else if VALUE_OPS.contains(&callee.as_str()) || !callee.is_empty() {
                // Unknown callee = a helper taking the ordering as an
                // argument; treat its result like a load (conservative).
                dataflow_violation(f, &idx, site_pos)
            } else {
                dataflow_violation(f, &idx, site_pos)
            };

            let sanction = sanctions.iter().position(|s| s.covers(&f.rel, t.line));

            match (violation, sanction) {
                (None, None) => report.benign += 1,
                (None, Some(si)) => {
                    sanction_hits[si] += 1;
                    report.diagnostics.push(Diagnostic {
                        rule: "CC01",
                        severity: Severity::Error,
                        location,
                        message: format!(
                            "stale sanction: the dataflow proof shows this \
                             `Ordering::{strength}` site in `{func}` is counter-only — \
                             delete the `// SANCTION(CC01: {})` comment",
                            sanctions[si].protocol
                        ),
                    });
                }
                (Some(why), None) => {
                    report.diagnostics.push(Diagnostic {
                        rule: "CC01",
                        severity: Severity::Error,
                        location,
                        message: format!(
                            "unsanctioned `Ordering::{strength}` in `{func}`: {why}; \
                             prove it counter-only or add \
                             `// SANCTION(CC01: <protocol>): reason`"
                        ),
                    });
                }
                (Some(_), Some(si)) => {
                    sanction_hits[si] += 1;
                    let s = &sanctions[si];
                    match by_name.get(s.protocol.as_str()) {
                        None => report.diagnostics.push(Diagnostic {
                            rule: "CC01",
                            severity: Severity::Error,
                            location,
                            message: format!(
                                "forged sanction: protocol `{}` is not declared by any \
                                 `// CC-PROTOCOL(…)` block",
                                s.protocol
                            ),
                        }),
                        Some(p) if p.kind == "seqlock" && !verified_seqlocks.contains(&p.name) => {
                            report.diagnostics.push(Diagnostic {
                                rule: "CC01",
                                severity: Severity::Error,
                                location,
                                message: format!(
                                    "stale sanction: seqlock protocol `{}` failed CC02 \
                                     verification this run",
                                    p.name
                                ),
                            });
                        }
                        Some(p) => {
                            *protocol_hits.entry(p.name.clone()).or_insert(0) += 1;
                            report.sanctioned += 1;
                        }
                    }
                }
            }
        }
    }

    // Sanction liveness: a CC01 sanction that covers no atomic site is
    // dead weight, exactly like a stale token-rule sanction (LT02).
    for (s, h) in sanctions.iter().zip(&sanction_hits) {
        if *h == 0 {
            report.diagnostics.push(Diagnostic {
                rule: "CC01",
                severity: Severity::Error,
                location: format!("{}:{}", s.file, s.line),
                message: format!(
                    "stale inline sanction `// SANCTION(CC01: {})` covers no \
                     Relaxed/SeqCst site — delete the comment",
                    s.protocol
                ),
            });
        }
    }

    // Protocol liveness: `flag` blocks must be referenced by a sanction;
    // `seqlock` blocks are live through CC02 verification itself.
    for p in protocols {
        if p.kind == "flag" && protocol_hits.get(&p.name).copied().unwrap_or(0) == 0 {
            report.diagnostics.push(Diagnostic {
                rule: "CC01",
                severity: Severity::Error,
                location: format!("{}:{}", p.file, p.line),
                message: format!(
                    "stale protocol block `{}`: no CC01 sanction references it — \
                     delete the CC-PROTOCOL comment",
                    p.name
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// CC02 — seqlock protocol verifier
// ---------------------------------------------------------------------

/// One atomic event in a writer/reader body, in program order.
struct AtomicEvent {
    /// `store`, `load`, or the helper callee name.
    op: String,
    /// `Relaxed` / `Release` / `Acquire` / `SeqCst` / "" (helper with no
    /// ordering argument at the call site).
    ordering: String,
    /// Last integer literal in the stored value expression (parity
    /// witness for sequence stores), if any.
    last_literal: Option<u64>,
    /// `let` binding receiving the result, if any.
    binding: Option<String>,
    /// Position (into the fn's code-token index) of the callee.
    pos: usize,
    line: usize,
}

/// Collect atomic ops (and single-store-helper calls) in body order.
fn atomic_events(f: &LoadedFile, idx: &[usize], helpers: &BTreeSet<String>) -> Vec<AtomicEvent> {
    let stmts = statements(f, idx);
    let binding_at = |pos: usize| {
        stmts
            .iter()
            .find(|&&(a, b, _)| a <= pos && pos < b)
            .and_then(|(_, _, bind)| bind.clone())
    };
    let mut out = Vec::new();
    for (k, &i) in idx.iter().enumerate() {
        let t = &f.toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text(&f.src);
        let is_atomic = matches!(name, "store" | "load") || VALUE_OPS.contains(&name);
        let is_helper = helpers.contains(name);
        if !idx
            .get(k + 1)
            .is_some_and(|&j| is_punct(&f.toks[j], &f.src, "("))
        {
            continue;
        }
        // Scan the argument list for an ordering ident and the last
        // integer literal (the sequence parity witness).
        let mut depth = 0i32;
        let mut ordering = String::new();
        let mut last_literal = None;
        for &j in idx.iter().skip(k + 1) {
            let u = &f.toks[j];
            if is_punct(u, &f.src, "(") {
                depth += 1;
            } else if is_punct(u, &f.src, ")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if u.kind == TokKind::Ident
                && matches!(u.text(&f.src), "Relaxed" | "Release" | "Acquire" | "SeqCst")
            {
                ordering = u.text(&f.src).to_string();
            } else if u.kind == TokKind::Num {
                if let Ok(n) = u.text(&f.src).parse::<u64>() {
                    last_literal = Some(n);
                }
            }
        }
        // An event is a direct atomic op, a relaxed-store helper call,
        // or any ordering-parametric helper (the call-site ordering
        // argument reveals the access, e.g. `load_word(i, Acquire)`).
        if !is_atomic && !is_helper && ordering.is_empty() {
            continue;
        }
        out.push(AtomicEvent {
            op: name.to_string(),
            ordering,
            last_literal,
            binding: binding_at(k),
            pos: k,
            line: t.line,
        });
    }
    out
}

/// Fns in `file` whose bodies are a single relaxed store (payload-store
/// helpers like `store_word`).
fn relaxed_store_helpers(f: &LoadedFile, fns: &[FnBody]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for b in fns.iter().filter(|b| b.file == f.rel) {
        let lo = f.toks.partition_point(|t| t.line < b.line_start);
        let hi = f.toks.partition_point(|t| t.line <= b.line_end);
        let idx = code_toks(f, lo, hi);
        // A helper qualifies when its body performs a `store` with a
        // Relaxed ordering and no Release/Acquire anywhere — the caller
        // owes the publication fences, the helper only writes payload.
        let has_store = idx.iter().any(|&j| is_ident(&f.toks[j], &f.src, "store"));
        let relaxed_only = idx.iter().any(|&j| is_ident(&f.toks[j], &f.src, "Relaxed"))
            && !idx.iter().any(|&j| {
                is_ident(&f.toks[j], &f.src, "Release") || is_ident(&f.toks[j], &f.src, "Acquire")
            });
        if has_store && relaxed_only {
            let short = b.qualified.rsplit("::").next().unwrap_or(&b.qualified);
            out.insert(short.to_string());
        }
    }
    out
}

fn fn_tok_range(f: &LoadedFile, fns: &[FnBody], qualified: &str) -> Option<(usize, usize)> {
    let b = fns
        .iter()
        .find(|b| b.file == f.rel && b.qualified == qualified)?;
    let lo = f.toks.partition_point(|t| t.line < b.line_start);
    let hi = f.toks.partition_point(|t| t.line <= b.line_end);
    Some((lo, hi))
}

/// Structurally verify one seqlock protocol. Emits named-edge errors;
/// returns `true` when every check passed.
fn verify_seqlock(
    p: &Protocol,
    files: &[LoadedFile],
    fns: &[FnBody],
    diags: &mut Vec<Diagnostic>,
) -> bool {
    let f = files.iter().find(|f| f.rel == p.file);
    let (Some(f), Some(writer), Some(reader)) = (f, p.writer.as_ref(), p.reader.as_ref()) else {
        return false;
    };
    let fail = |line: usize, msg: String, diags: &mut Vec<Diagnostic>| {
        diags.push(Diagnostic {
            rule: "CC02",
            severity: Severity::Error,
            location: format!("{}:{line}", p.file),
            message: format!("seqlock `{}`: {msg}", p.name),
        });
    };

    let helpers = relaxed_store_helpers(f, fns);
    let mut ok = true;

    // ---- writer discipline ----
    let Some((wlo, whi)) = fn_tok_range(f, fns, writer) else {
        fail(
            p.line,
            format!("writer fn `{writer}` not found in {}", p.file),
            diags,
        );
        return false;
    };
    let widx = code_toks(f, wlo, whi);
    let wevents = atomic_events(f, &widx, &helpers);
    let seq_stores: Vec<&AtomicEvent> = wevents
        .iter()
        .filter(|e| e.op == "store" && e.last_literal.is_some())
        .collect();
    let odd = seq_stores
        .iter()
        .find(|e| e.last_literal.is_some_and(|n| n % 2 == 1));
    let even = seq_stores
        .iter()
        .find(|e| e.last_literal.is_some_and(|n| n % 2 == 0 && n > 0));
    match odd {
        None => {
            ok = false;
            fail(
                p.line,
                format!(
                    "writer `{writer}` is missing the odd (write-lock) sequence store \
                     before the payload stores"
                ),
                diags,
            );
        }
        Some(e) if e.ordering != "Release" => {
            ok = false;
            fail(
                e.line,
                format!(
                    "the opening (odd) sequence store must be `Ordering::Release`, \
                     found `{}` — payload stores may float above it",
                    if e.ordering.is_empty() {
                        "none"
                    } else {
                        &e.ordering
                    }
                ),
                diags,
            );
        }
        Some(_) => {}
    }
    match even {
        None => {
            ok = false;
            fail(
                p.line,
                format!(
                    "writer `{writer}` is missing the even (publish) sequence store \
                     after the payload stores"
                ),
                diags,
            );
        }
        Some(e) if e.ordering != "Release" => {
            ok = false;
            fail(
                e.line,
                format!(
                    "the closing (even) sequence store must be `Ordering::Release`, \
                     found `{}` — readers may observe the even sequence before the payload",
                    if e.ordering.is_empty() {
                        "none"
                    } else {
                        &e.ordering
                    }
                ),
                diags,
            );
        }
        Some(_) => {}
    }
    if let (Some(o), Some(e)) = (odd, even) {
        let payload: Vec<&AtomicEvent> = wevents
            .iter()
            .filter(|ev| helpers.contains(&ev.op) || (ev.op == "store" && ev.ordering == "Relaxed"))
            .collect();
        if !payload.iter().any(|ev| o.pos < ev.pos && ev.pos < e.pos) {
            ok = false;
            fail(
                o.line,
                format!("writer `{writer}` stores no payload inside the odd/even window"),
                diags,
            );
        }
        if let Some(escape) = payload.iter().find(|ev| ev.pos > e.pos) {
            ok = false;
            fail(
                escape.line,
                "payload store escapes below the publish (even) sequence store".to_string(),
                diags,
            );
        }
    }

    // ---- reader discipline ----
    let Some((rlo, rhi)) = fn_tok_range(f, fns, reader) else {
        fail(
            p.line,
            format!("reader fn `{reader}` not found in {}", p.file),
            diags,
        );
        return false;
    };
    let ridx = code_toks(f, rlo, rhi);
    let revents = atomic_events(f, &ridx, &helpers);
    let acquires: Vec<&AtomicEvent> = revents.iter().filter(|e| e.ordering == "Acquire").collect();
    let payload_loads: Vec<&AtomicEvent> =
        revents.iter().filter(|e| e.ordering == "Relaxed").collect();
    if acquires.len() < 2 {
        ok = false;
        fail(
            p.line,
            format!(
                "reader `{reader}` needs an `Ordering::Acquire` sequence load before \
                 AND after the payload reads ({} found) — without the re-load a torn \
                 read escapes",
                acquires.len()
            ),
            diags,
        );
    } else {
        let s1 = acquires[0];
        let s2 = acquires[acquires.len() - 1];
        if !payload_loads
            .iter()
            .any(|e| s1.pos < e.pos && e.pos < s2.pos)
        {
            ok = false;
            fail(
                s1.line,
                format!(
                    "reader `{reader}` reads no relaxed payload between the two \
                     Acquire sequence loads"
                ),
                diags,
            );
        }
        let conds = condition_regions(f, &ridx);
        let name_in_cond = |name: &Option<String>, lo: usize| {
            let Some(n) = name else { return false };
            conds
                .iter()
                .any(|&(a, b)| b > lo && (a..b).any(|k| is_ident(&f.toks[ridx[k]], &f.src, n)))
        };
        // Odd/zero skip on s1 before the payload reads.
        let odd_check = conds.iter().any(|&(a, b)| {
            b > s1.pos
                && b < s2.pos
                && s1
                    .binding
                    .as_ref()
                    .is_some_and(|n| (a..b).any(|k| is_ident(&f.toks[ridx[k]], &f.src, n)))
                && (a..b).any(|k| is_punct(&f.toks[ridx[k]], &f.src, "%"))
        });
        if !odd_check {
            ok = false;
            fail(
                s1.line,
                format!(
                    "reader `{reader}` is missing the odd-sequence (writer-active) \
                     skip check on the first Acquire load"
                ),
                diags,
            );
        }
        // s1 == s2 validation after the re-load.
        let validated = s1.binding.is_some()
            && s2.binding.is_some()
            && name_in_cond(&s1.binding, s2.pos)
            && name_in_cond(&s2.binding, s2.pos);
        if !validated {
            ok = false;
            fail(
                s2.line,
                format!(
                    "reader `{reader}` is missing the sequence validation compare \
                     (s1 == s2) after the re-load — torn reads can escape"
                ),
                diags,
            );
        }
    }
    ok
}

// ---------------------------------------------------------------------
// CC03 — lock-acquisition order
// ---------------------------------------------------------------------

/// One lock acquisition inside a fn body.
struct Acquire {
    /// Normalized lock name (`shared.state`, `CACHE_F64`, …).
    lock: String,
    /// Position of the acquisition (into the fn's code-token index).
    pos: usize,
    /// One past the last position at which the guard is held.
    until: usize,
    line: usize,
}

/// Per-fn CC03 facts.
struct FnLocks {
    qualified: String,
    file: String,
    acquires: Vec<Acquire>,
    /// `(callee name, first qualifier, method?, position, line)`.
    calls: Vec<(String, Option<String>, bool, usize, usize)>,
    /// `(waited-lock or None for no-arg blocking wait, position, line)`.
    waits: Vec<(Option<String>, usize, usize)>,
}

/// Normalize a lock expression: drop `&`/`&mut`/`self`, keep the last
/// two path segments (`self.shared.state` → `shared.state`).
fn normalize_lock(segs: &[String]) -> String {
    let segs: Vec<&String> = segs.iter().filter(|s| s.as_str() != "self").collect();
    let n = segs.len();
    let keep = &segs[n.saturating_sub(2)..];
    keep.iter()
        .map(|s| s.as_str())
        .collect::<Vec<_>>()
        .join(".")
}

/// Dotted receiver path ending just before `idx[end]` (exclusive),
/// walking `ident (. ident)*` backwards.
fn receiver_path(f: &LoadedFile, idx: &[usize], end: usize) -> Vec<String> {
    let mut segs = Vec::new();
    let mut k = end;
    while let Some(kk) = k.checked_sub(1) {
        let t = &f.toks[idx[kk]];
        if t.kind != TokKind::Ident {
            break;
        }
        segs.push(t.text(&f.src).to_string());
        let Some(kp) = kk.checked_sub(1) else { break };
        if !is_punct(&f.toks[idx[kp]], &f.src, ".") {
            break;
        }
        k = kp;
    }
    segs.reverse();
    segs
}

/// End of the block enclosing `idx[pos]`: the position where brace
/// depth drops below its value at `pos`.
fn block_end(f: &LoadedFile, idx: &[usize], pos: usize) -> usize {
    let mut depth = 0i32;
    for (k, &i) in idx.iter().enumerate().skip(pos) {
        let t = &f.toks[i];
        if is_punct(t, &f.src, "{") {
            depth += 1;
        } else if is_punct(t, &f.src, "}") {
            depth -= 1;
            if depth < 0 {
                return k;
            }
        }
    }
    idx.len()
}

/// End of the statement containing `idx[pos]` (the next `;` at brace
/// depth 0 relative to `pos`).
fn statement_end(f: &LoadedFile, idx: &[usize], pos: usize) -> usize {
    let mut depth = 0i32;
    for (k, &i) in idx.iter().enumerate().skip(pos) {
        let t = &f.toks[i];
        if is_punct(t, &f.src, "{") {
            depth += 1;
        } else if is_punct(t, &f.src, "}") {
            depth -= 1;
        } else if is_punct(t, &f.src, ";") && depth <= 0 {
            return k;
        }
    }
    idx.len()
}

/// Scan one fn body for acquisitions, calls, and waits.
fn scan_fn_locks(f: &LoadedFile, qualified: &str, lo: usize, hi: usize) -> FnLocks {
    let idx = code_toks(f, lo, hi);
    let stmts = statements(f, &idx);
    let binding_of = |pos: usize| -> Option<String> {
        stmts
            .iter()
            .find(|&&(a, b, _)| a <= pos && pos < b)
            .and_then(|(_, _, bind)| bind.clone())
    };

    let mut acquires: Vec<Acquire> = Vec::new();
    let mut guards: Vec<(String, String, usize)> = Vec::new(); // (var, lock, acquire idx)
    let mut calls = Vec::new();
    let mut waits = Vec::new();

    for (k, &i) in idx.iter().enumerate() {
        let t = &f.toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text(&f.src);
        let next_is_paren = idx
            .get(k + 1)
            .is_some_and(|&j| is_punct(&f.toks[j], &f.src, "("));
        if !next_is_paren {
            continue;
        }

        // Acquisition: `lock_recover(&EXPR)` or `EXPR.lock()`.
        let lock = if name == "lock_recover" && qualified != "lock_recover" {
            let close = {
                let mut depth = 0i32;
                let mut end = k + 1;
                for (m, &j) in idx.iter().enumerate().skip(k + 1) {
                    let u = &f.toks[j];
                    if is_punct(u, &f.src, "(") {
                        depth += 1;
                    } else if is_punct(u, &f.src, ")") {
                        depth -= 1;
                        if depth == 0 {
                            end = m;
                            break;
                        }
                    }
                }
                end
            };
            let segs: Vec<String> = (k + 2..close)
                .filter(|&m| f.toks[idx[m]].kind == TokKind::Ident)
                .map(|m| f.toks[idx[m]].text(&f.src).to_string())
                .collect();
            Some(normalize_lock(&segs))
        } else if name == "lock" && k >= 1 && is_punct(&f.toks[idx[k - 1]], &f.src, ".") {
            Some(normalize_lock(&receiver_path(f, &idx, k - 1)))
        } else {
            None
        };
        if let Some(lock) = lock {
            let until = match binding_of(k) {
                Some(var) => {
                    // Held until `drop(var)` or the end of the declaring
                    // block, whichever comes first.
                    let blk = block_end(f, &idx, k);
                    let dropped = (k..blk).find(|&m| {
                        is_ident(&f.toks[idx[m]], &f.src, "drop")
                            && idx
                                .get(m + 1)
                                .is_some_and(|&j| is_punct(&f.toks[j], &f.src, "("))
                            && idx
                                .get(m + 2)
                                .is_some_and(|&j| is_ident(&f.toks[j], &f.src, &var))
                    });
                    let until = dropped.unwrap_or(blk);
                    guards.push((var, lock.clone(), k));
                    until
                }
                None => statement_end(f, &idx, k),
            };
            acquires.push(Acquire {
                lock,
                pos: k,
                until,
                line: t.line,
            });
            continue;
        }

        // Condvar / blocking waits.
        if name == "wait" && k >= 1 && is_punct(&f.toks[idx[k - 1]], &f.src, ".") {
            // `.wait(guard)` releases the guard's lock for the sleep;
            // `.wait()` is a blocking join-style wait.
            let arg = idx
                .get(k + 2)
                .map(|&j| &f.toks[j])
                .filter(|u| u.kind == TokKind::Ident)
                .map(|u| u.text(&f.src).to_string());
            let waited_lock = arg.as_ref().and_then(|a| {
                guards
                    .iter()
                    .rev()
                    .find(|(var, _, _)| var == a)
                    .map(|(_, lock, _)| lock.clone())
            });
            let empty_args = idx
                .get(k + 2)
                .is_some_and(|&j| is_punct(&f.toks[j], &f.src, ")"));
            if empty_args {
                waits.push((None, k, t.line));
            } else if waited_lock.is_some() {
                waits.push((waited_lock, k, t.line));
            }
            continue;
        }

        // Plain call site (for cross-fn lock propagation).
        if crate::lexer::STMT_KEYWORDS.contains(&name) {
            continue;
        }
        let method = k >= 1 && is_punct(&f.toks[idx[k - 1]], &f.src, ".");
        let qual = if !method
            && k >= 2
            && is_punct(&f.toks[idx[k - 1]], &f.src, "::")
            && f.toks[idx[k - 2]].kind == TokKind::Ident
        {
            Some(f.toks[idx[k - 2]].text(&f.src).to_string())
        } else {
            None
        };
        calls.push((name.to_string(), qual, method, k, t.line));
    }

    FnLocks {
        qualified: qualified.to_string(),
        file: f.rel.clone(),
        acquires,
        calls,
        waits,
    }
}

fn cc03_lock_order(files: &[LoadedFile], bodies: &[FnBody], report: &mut ConcurrencyReport) {
    let mut fns: Vec<FnLocks> = Vec::new();
    for f in files {
        for b in bodies.iter().filter(|b| b.file == f.rel) {
            let lo = f.toks.partition_point(|t| t.line < b.line_start);
            let hi = f.toks.partition_point(|t| t.line <= b.line_end);
            fns.push(scan_fn_locks(f, &b.qualified, lo, hi));
        }
    }

    // Name → fn ids, for conservative call resolution: methods match
    // any same-name method, free calls match by qualifier when one is
    // present.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (id, fl) in fns.iter().enumerate() {
        let short = fl.qualified.rsplit("::").next().unwrap_or(&fl.qualified);
        by_name.entry(short).or_default().push(id);
    }
    let resolve = |name: &str, qual: &Option<String>, method: bool| -> Vec<usize> {
        let Some(cands) = by_name.get(name) else {
            return Vec::new();
        };
        match (method, qual) {
            (true, _) => cands
                .iter()
                .copied()
                .filter(|&id| fns[id].qualified.contains("::"))
                .collect(),
            (false, Some(q)) if !matches!(q.as_str(), "crate" | "self" | "super" | "Self") => cands
                .iter()
                .copied()
                .filter(|&id| {
                    fns[id]
                        .qualified
                        .rsplit_once("::")
                        .is_some_and(|(ty, _)| ty == q)
                })
                .collect(),
            _ => cands.clone(),
        }
    };

    // Transitive lock-acquire sets, to fixpoint.
    let mut trans: Vec<BTreeSet<String>> = fns
        .iter()
        .map(|fl| fl.acquires.iter().map(|a| a.lock.clone()).collect())
        .collect();
    loop {
        let mut grew = false;
        for id in 0..fns.len() {
            let mut add: Vec<String> = Vec::new();
            for (name, qual, method, _, _) in &fns[id].calls {
                for callee in resolve(name, qual, *method) {
                    for l in &trans[callee] {
                        if !trans[id].contains(l) {
                            add.push(l.clone());
                        }
                    }
                }
            }
            for l in add {
                grew |= trans[id].insert(l);
            }
        }
        if !grew {
            break;
        }
    }

    // Blocking-call names: fns that wait on a condvar or a no-arg wait,
    // transitively.
    let mut blocking: Vec<bool> = fns.iter().map(|fl| !fl.waits.is_empty()).collect();
    loop {
        let mut grew = false;
        for id in 0..fns.len() {
            if blocking[id] {
                continue;
            }
            let calls_blocking = fns[id].calls.iter().any(|(name, qual, method, _, _)| {
                resolve(name, qual, *method).iter().any(|&c| blocking[c])
            });
            if calls_blocking {
                blocking[id] = true;
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    // Walk each fn with its held set; collect edges and wait violations.
    let mut edges: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut lock_names: BTreeSet<String> = BTreeSet::new();
    for fl in &fns {
        for a in &fl.acquires {
            lock_names.insert(a.lock.clone());
        }
    }
    for fl in &fns {
        let held_at = |pos: usize| -> Vec<&Acquire> {
            fl.acquires
                .iter()
                .filter(|a| a.pos < pos && pos < a.until)
                .collect()
        };
        // Direct nesting edges.
        for a in &fl.acquires {
            for h in held_at(a.pos) {
                if h.lock == a.lock {
                    report.diagnostics.push(Diagnostic {
                        rule: "CC03",
                        severity: Severity::Error,
                        location: format!("{}:{}", fl.file, a.line),
                        message: format!(
                            "lock `{}` re-acquired in `{}` while already held — \
                             std::sync::Mutex is not reentrant (self-deadlock)",
                            a.lock, fl.qualified
                        ),
                    });
                } else {
                    edges
                        .entry((h.lock.clone(), a.lock.clone()))
                        .or_insert_with(|| format!("{}:{}", fl.file, a.line));
                }
            }
        }
        // Call-propagated edges + blocking calls under a lock.
        for (name, qual, method, pos, line) in &fl.calls {
            let held = held_at(*pos);
            if held.is_empty() {
                continue;
            }
            for callee in resolve(name, qual, *method) {
                for l in &trans[callee] {
                    for h in &held {
                        if &h.lock == l {
                            report.diagnostics.push(Diagnostic {
                                rule: "CC03",
                                severity: Severity::Error,
                                location: format!("{}:{line}", fl.file),
                                message: format!(
                                    "`{}` may re-acquire `{}` (via `{}`) while `{}` \
                                     already holds it",
                                    name, l, fns[callee].qualified, fl.qualified
                                ),
                            });
                        } else {
                            edges
                                .entry((h.lock.clone(), l.clone()))
                                .or_insert_with(|| format!("{}:{line}", fl.file));
                        }
                    }
                }
                if blocking[callee] || name == "submit" {
                    report.diagnostics.push(Diagnostic {
                        rule: "CC03",
                        severity: Severity::Error,
                        location: format!("{}:{line}", fl.file),
                        message: format!(
                            "blocking call `{}` (→ `{}`) while `{}` holds lock `{}` — \
                             a sleeping thread must not pin a lock",
                            name, fns[callee].qualified, fl.qualified, held[0].lock
                        ),
                    });
                }
            }
        }
        // Wait-site discipline.
        for (waited, pos, line) in &fl.waits {
            report.wait_sites += 1;
            let held = held_at(*pos);
            match waited {
                Some(w) => {
                    for h in held {
                        if &h.lock != w {
                            report.diagnostics.push(Diagnostic {
                                rule: "CC03",
                                severity: Severity::Error,
                                location: format!("{}:{line}", fl.file),
                                message: format!(
                                    "`{}` holds lock `{}` across Condvar::wait that \
                                     releases `{w}` — `{}` stays pinned while the \
                                     thread sleeps",
                                    fl.qualified, h.lock, h.lock
                                ),
                            });
                        }
                    }
                }
                None => {
                    if let Some(h) = held.first() {
                        report.diagnostics.push(Diagnostic {
                            rule: "CC03",
                            severity: Severity::Error,
                            location: format!("{}:{line}", fl.file),
                            message: format!(
                                "`{}` calls a blocking `.wait()` while holding lock `{}`",
                                fl.qualified, h.lock
                            ),
                        });
                    }
                }
            }
        }
    }

    report.locks = lock_names.len();
    report.lock_edges = edges.len();

    // Cycle detection over the lock-order graph (DFS, deterministic
    // order). Any cycle is a potential ABBA deadlock.
    let adj: BTreeMap<&String, Vec<&String>> = {
        let mut m: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
        for (a, b) in edges.keys() {
            m.entry(a).or_default().push(b);
        }
        m
    };
    let mut state: BTreeMap<&String, u8> = BTreeMap::new(); // 0 new, 1 open, 2 done
    let mut stack: Vec<&String> = Vec::new();
    let mut cycles: Vec<String> = Vec::new();
    fn dfs<'a>(
        v: &'a String,
        adj: &BTreeMap<&'a String, Vec<&'a String>>,
        state: &mut BTreeMap<&'a String, u8>,
        stack: &mut Vec<&'a String>,
        cycles: &mut Vec<String>,
    ) {
        state.insert(v, 1);
        stack.push(v);
        for &w in adj.get(v).map(Vec::as_slice).unwrap_or_default() {
            match state.get(w).copied().unwrap_or(0) {
                0 => dfs(w, adj, state, stack, cycles),
                1 => {
                    let start = stack.iter().position(|&x| x == w).unwrap_or(0);
                    let mut path: Vec<&str> = stack[start..].iter().map(|s| s.as_str()).collect();
                    path.push(w.as_str());
                    cycles.push(path.join(" -> "));
                }
                _ => {}
            }
        }
        stack.pop();
        state.insert(v, 2);
    }
    for v in lock_names.iter() {
        if state.get(v).copied().unwrap_or(0) == 0 {
            dfs(v, &adj, &mut state, &mut stack, &mut cycles);
        }
    }
    for (cycle, loc) in cycles.iter().zip(edges.values().cycle()) {
        report.diagnostics.push(Diagnostic {
            rule: "CC03",
            severity: Severity::Error,
            location: loc.clone(),
            message: format!(
                "lock-order cycle (potential ABBA deadlock): {cycle} — pick one \
                 global acquisition order and stick to it"
            ),
        });
    }
}
