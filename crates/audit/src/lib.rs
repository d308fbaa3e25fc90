//! # amoeba-audit — the determinism-contract static analyzer
//!
//! The whole Amoeba stack rests on one invariant: **wire output is a
//! pure function of `(seed, session_id, policy, censor)`** — shard
//! count, batch size, backend, stealing, telemetry and
//! admission order are pure throughput/observability knobs. Until now
//! that contract was enforced only *dynamically* (wire fingerprints,
//! invariance proptests); this crate is the *static* gate: a
//! self-contained, dependency-free analyzer that lexes every first-party
//! Rust source in the workspace (comment/string-aware, with
//! `#[cfg(test)]` and module tracking) and denies the constructs through
//! which nondeterminism leaks into the dataplane.
//!
//! ## The six determinism obligations
//!
//! | Rule | Obligation |
//! |------|------------|
//! | **AMB001** | No `HashMap`/`HashSet` in non-test wire-affecting code. Hash iteration order is randomized per process (`RandomState`); even an "unordered" use is one refactor away from leaking that order into the wire or a report. Use `BTreeMap`/`BTreeSet` or sorted `Vec`s. |
//! | **AMB002** | No `Instant::now`/`SystemTime` outside telemetry-designated code. Wall-clock reads feeding anything but latency accounting make output depend on machine load. The dataplane runs on a *virtual* clock. |
//! | **AMB003** | No ambient randomness — `thread_rng`, `from_entropy`, seedless `rand::random`. Every RNG must derive from `(seed, session_id)`. |
//! | **AMB004** | Every `unsafe` carries an adjacent `// SAFETY:` comment (within the five preceding lines). Applies in test code too. |
//! | **AMB005** | No thread identity (`thread::current`, `ThreadId`) or atomic read-modify-write in dataplane crates without justification — scheduling must stay determinism-by-construction, never "whichever thread won". |
//! | **AMB006** | No iterator float reductions (`.sum()`, `.fold(…)`, `.product(…)`) in `amoeba-nn` kernel modules outside the approved reference modules ([`rules::NN_REFERENCE_MODULES`]). Kernels accumulate with explicit index loops so the summation order — the bit-exactness spec — stays visible and reviewable. |
//!
//! ## The `audit:allow` protocol
//!
//! A finding is suppressible **only** with an annotation carrying a
//! mandatory reason:
//!
//! ```text
//! // audit:allow(AMB002, reason = "telemetry timing only; never feeds the wire")
//! let t0 = Instant::now();
//! ```
//!
//! The annotation may trail the offending line or sit on its own
//! comment line directly above it (stacked allow lines all bind to the
//! next code line). Only plain `//` comments grant an exemption — doc
//! comments are prose and may mention the syntax without effect.
//! Discipline is enforced mechanically:
//!
//! * a missing/empty `reason` is itself a finding (**AMB000**);
//! * an allow that suppresses nothing is *stale* — also AMB000 — so
//!   annotations cannot outlive the hazard they justified;
//! * AMB000 is never suppressible.
//!
//! Every run reports the full allow inventory (file, line, rule,
//! reason, used/stale), so the set of granted exemptions is one
//! `cargo run -p amoeba-audit` away from review.
//!
//! ## Scope: deny-by-default crate profiles
//!
//! Every directory under `crates/` must map to a [`rules::Profile`] in
//! [`workspace_profiles`] — an unknown crate is an AMB000 finding, so a
//! future PR adding a crate must *classify* it before CI passes:
//!
//! * `dataplane` (serve, nn, classifiers, core, traffic, ml): full rule
//!   set; AMB006 additionally on `amoeba-nn`.
//! * `telemetry` (telemetry): clocks/atomics are its charter, AMB002 and
//!   AMB005 off; ordering, randomness and unsafe hygiene still apply.
//! * `harness` (bench, attacks, audit, the umbrella crate): wall-clock
//!   timing is reporting; deterministic iteration (AMB001) and seeded
//!   randomness (AMB003) still mandatory so experiment tables and caches
//!   replay bit-for-bit.
//! * `vendored` (`crates/compat/*`): third-party API stand-ins, skipped.
//!
//! Only `src/` trees are scanned (plus the umbrella `src/`):
//! `tests/`, `benches/` and `examples/` cannot feed the wire, and
//! in-file `#[cfg(test)]`/`#[test]` regions are exempt from every rule
//! except AMB004.

#![warn(missing_docs)]

pub mod lexer;
pub mod report;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::strip;
use report::{Allowance, AuditReport, CrateStats, Finding};
use rules::{matches_on_line, Profile, Rule};

/// The deny-by-default crate table. Paths are workspace-relative crate
/// directories; `crates/compat` covers every vendored sub-crate. A
/// directory under `crates/` with no entry here fails the audit with
/// AMB000 until it is classified.
pub fn workspace_profiles() -> Vec<(&'static str, Profile)> {
    vec![
        ("crates/attacks", Profile::Harness),
        ("crates/audit", Profile::Harness),
        ("crates/bench", Profile::Harness),
        (
            "crates/classifiers",
            Profile::Dataplane { nn_kernels: false },
        ),
        ("crates/compat", Profile::Vendored),
        ("crates/core", Profile::Dataplane { nn_kernels: false }),
        ("crates/ml", Profile::Dataplane { nn_kernels: false }),
        ("crates/nn", Profile::Dataplane { nn_kernels: true }),
        ("crates/serve", Profile::Dataplane { nn_kernels: false }),
        ("crates/telemetry", Profile::Telemetry),
        ("crates/traffic", Profile::Dataplane { nn_kernels: false }),
        // The umbrella crate's sources live at the workspace root.
        ("src", Profile::Harness),
    ]
}

/// How far above an `unsafe` token a `SAFETY:` comment may sit (in
/// lines, inclusive of the token's own line) and still count as
/// adjacent for AMB004.
pub const SAFETY_ADJACENCY_LINES: usize = 5;

/// Analysis result for a single source file.
#[derive(Debug, Clone, Default)]
pub struct FileAnalysis {
    /// Unsuppressed findings (including AMB000 annotation errors).
    pub findings: Vec<Finding>,
    /// Allow annotations encountered, with usage marked.
    pub allows: Vec<Allowance>,
    /// Line count of the file.
    pub lines: usize,
}

/// One parsed `audit:allow` annotation, before usage resolution.
#[derive(Debug)]
struct AllowSite {
    rule: Rule,
    line: usize,   // 0-based comment line
    target: usize, // 0-based code line it binds to
    reason: String,
    used: bool,
}

/// Per-line structural facts from the brace/attribute pass.
#[derive(Debug, Clone, Default)]
struct LineInfo {
    /// Line was (at any point) inside or heading a test region.
    test: bool,
    /// Innermost module path at the line, e.g. `tests::inner`.
    module: String,
}

/// Runs the active `rules` over one stripped source file. `rel_path` is
/// used both for reporting and for AMB006's file-name scoping.
pub fn analyze_source(rel_path: &str, src: &str, active: &[Rule]) -> FileAnalysis {
    let stripped = strip(src);
    let code_lines: Vec<&str> = stripped.code.lines().collect();
    let n = code_lines.len();
    let file_name = rel_path.rsplit('/').next().unwrap_or(rel_path);

    let mut out = FileAnalysis {
        lines: n,
        ..FileAnalysis::default()
    };

    let info = line_info(&code_lines);
    let mut allows = parse_allows(rel_path, &stripped, &code_lines, &mut out.findings);

    for &rule in active {
        for (i, code) in code_lines.iter().enumerate() {
            if info[i].test && rule.exempt_in_tests() {
                continue;
            }
            for m in matches_on_line(rule, code, file_name) {
                if rule == Rule::Amb004 && has_adjacent_safety(&stripped.comments, &code_lines, i) {
                    continue;
                }
                if let Some(a) = allows
                    .iter_mut()
                    .find(|a| a.rule == rule && a.target == i && !a.used)
                {
                    a.used = true;
                    continue;
                }
                // A used allow on the same line keeps covering further
                // matches of the same rule on that line (one annotation
                // per line per rule, not per token).
                if allows
                    .iter()
                    .any(|a| a.rule == rule && a.target == i && a.used)
                {
                    continue;
                }
                out.findings.push(Finding {
                    rule,
                    file: rel_path.to_string(),
                    line: i + 1,
                    col: m.col + 1,
                    module: info[i].module.clone(),
                    message: format!("forbidden construct `{}`", m.token),
                    context: code.trim().to_string(),
                });
            }
        }
    }

    // Stale allows: every annotation must earn its keep. An allow for a
    // rule the crate's profile does not activate is stale by the same
    // token — the hazard it justifies cannot fire here.
    for a in &allows {
        if !a.used {
            out.findings.push(Finding {
                rule: Rule::Amb000,
                file: rel_path.to_string(),
                line: a.line + 1,
                col: 1,
                module: info[a.line.min(n.saturating_sub(1))].module.clone(),
                message: format!(
                    "stale audit:allow({}) — it suppresses no finding; remove it",
                    a.rule
                ),
                context: code_lines
                    .get(a.target)
                    .map(|l| l.trim().to_string())
                    .unwrap_or_default(),
            });
        }
    }

    out.allows = allows
        .into_iter()
        .map(|a| Allowance {
            rule: a.rule,
            file: rel_path.to_string(),
            line: a.line + 1,
            reason: a.reason,
            used: a.used,
        })
        .collect();
    out
}

/// True when a `SAFETY:` (or rustdoc `# Safety`) comment is adjacent to
/// the `unsafe` token at `line`: either within
/// [`SAFETY_ADJACENCY_LINES`] lines above it (covers a `// SAFETY:`
/// comment separated from the block by an assert or two), or anywhere
/// in the contiguous run of comment/attribute/blank lines directly
/// above the item (covers a long doc comment whose `# Safety` section
/// sits above a `#[cfg]`/`#[target_feature]` attribute stack).
fn has_adjacent_safety(comments: &[String], code_lines: &[&str], line: usize) -> bool {
    let marker = |c: &str| c.contains("SAFETY:") || c.contains("# Safety");
    let lo = line.saturating_sub(SAFETY_ADJACENCY_LINES);
    let hi = line.min(comments.len().saturating_sub(1));
    if comments[lo..=hi].iter().any(|c| marker(c)) {
        return true;
    }
    let mut k = line;
    while k > 0 {
        k -= 1;
        let code = code_lines.get(k).map(|l| l.trim()).unwrap_or("");
        if !(code.is_empty() || code.starts_with("#[") || code.starts_with("#![")) {
            break;
        }
        if comments.get(k).is_some_and(|c| marker(c)) {
            return true;
        }
    }
    false
}

/// Extracts `audit:allow(…)` annotations from comment text. Malformed
/// annotations (unknown rule, missing/empty reason) become AMB000
/// findings immediately.
fn parse_allows(
    rel_path: &str,
    stripped: &lexer::Stripped,
    code_lines: &[&str],
    findings: &mut Vec<Finding>,
) -> Vec<AllowSite> {
    let mut sites = Vec::new();
    for (i, comment) in stripped.comments.iter().enumerate() {
        // Annotations are code directives, so they live in plain `//`
        // comments only. Doc comments (`///` → leading `/`, `//!` → `!`,
        // `/** */` → `*`) are prose and may *mention* the syntax —
        // e.g. this crate's own documentation — without granting it.
        if matches!(comment.trim_start().chars().next(), Some('/' | '!' | '*')) {
            continue;
        }
        let mut rest = comment.as_str();
        while let Some(pos) = rest.find("audit:allow(") {
            let body = &rest[pos + "audit:allow(".len()..];
            // The closing paren is the first one *outside* the quoted
            // reason, so reasons may freely contain parentheses.
            let mut close = body.len();
            let mut in_quotes = false;
            for (bi, bc) in body.char_indices() {
                match bc {
                    '"' => in_quotes = !in_quotes,
                    ')' if !in_quotes => {
                        close = bi;
                        break;
                    }
                    _ => {}
                }
            }
            let inner = &body[..close];
            rest = &body[close..];

            let mut parts = inner.splitn(2, ',');
            let rule_txt = parts.next().unwrap_or("").trim();
            let reason_txt = parts.next().unwrap_or("").trim();

            let mut fail = |msg: String| {
                findings.push(Finding {
                    rule: Rule::Amb000,
                    file: rel_path.to_string(),
                    line: i + 1,
                    col: 1,
                    module: String::new(),
                    message: msg,
                    context: comment.trim().to_string(),
                });
            };

            let Some(rule) = Rule::parse(rule_txt) else {
                fail(format!(
                    "audit:allow names unknown rule `{rule_txt}` \
                     (expected AMB001..AMB006)"
                ));
                continue;
            };
            let reason = reason_txt
                .strip_prefix("reason")
                .map(|r| r.trim_start().trim_start_matches('=').trim())
                .map(|r| r.trim_matches('"').trim())
                .unwrap_or("");
            if reason.is_empty() {
                fail(format!(
                    "audit:allow({rule}) without a reason — every exemption \
                     must say why (reason = \"…\")"
                ));
                continue;
            }

            // Bind: trailing comment → same line; standalone comment
            // line → the next line carrying code.
            let target = if !code_lines.get(i).is_some_and(|l| l.trim().is_empty()) {
                i
            } else {
                let mut t = i + 1;
                while t < code_lines.len() && code_lines[t].trim().is_empty() {
                    t += 1;
                }
                t
            };
            sites.push(AllowSite {
                rule,
                line: i,
                target,
                reason: reason.to_string(),
                used: false,
            });
        }
    }
    sites
}

/// The structural pass: tracks brace depth to know, per line, whether
/// it lies in a `#[cfg(test)]`/`#[test]` region and which inline
/// modules enclose it. Attributes spanning multiple lines are not
/// recognised (the workspace style keeps `#[cfg(test)]` on one line).
fn line_info(code_lines: &[&str]) -> Vec<LineInfo> {
    #[derive(Debug)]
    struct Frame {
        test: bool,
        name: Option<String>,
    }
    let mut frames: Vec<Frame> = Vec::new();
    let mut pending_test = false;
    let mut pending_mod: Option<String> = None;
    let mut after_mod_kw = false;
    let mut out = Vec::with_capacity(code_lines.len());

    for line in code_lines {
        let compact: String = line.chars().filter(|c| !c.is_whitespace()).collect();
        if compact.contains("#[cfg(test)]")
            || compact.contains("#[cfg(all(test")
            || compact.contains("#[cfg(any(test")
            || compact.contains("#[test]")
        {
            pending_test = true;
        }

        // A line "heads" a test region while the attribute is pending or
        // any enclosing frame is a test frame.
        let mut is_test = pending_test || frames.iter().any(|f| f.test);

        let mut ident = String::new();
        for c in line.chars() {
            if c.is_alphanumeric() || c == '_' {
                ident.push(c);
                continue;
            }
            if !ident.is_empty() {
                if after_mod_kw {
                    pending_mod = Some(ident.clone());
                    after_mod_kw = false;
                } else if ident == "mod" {
                    after_mod_kw = true;
                }
                ident.clear();
            }
            match c {
                '{' => {
                    frames.push(Frame {
                        test: pending_test,
                        name: pending_mod.take(),
                    });
                    pending_test = false;
                    after_mod_kw = false;
                }
                '}' => {
                    frames.pop();
                }
                ';' => {
                    // `#[cfg(test)] use …;` / `mod foo;` — the pending
                    // attribute or mod name applied to a braceless item.
                    if frames.iter().all(|f| !f.test) {
                        pending_test = false;
                    }
                    pending_mod = None;
                    after_mod_kw = false;
                }
                _ => {}
            }
            is_test = is_test || pending_test || frames.iter().any(|f| f.test);
        }
        if !ident.is_empty() {
            if after_mod_kw {
                pending_mod = Some(ident.clone());
                after_mod_kw = false;
            } else if ident == "mod" {
                after_mod_kw = true;
            }
        }

        let module = frames
            .iter()
            .filter_map(|f| f.name.as_deref())
            .collect::<Vec<_>>()
            .join("::");
        out.push(LineInfo {
            test: is_test,
            module,
        });
    }
    out
}

/// Scans the workspace rooted at `root` and returns the finalized
/// report. Fails with `io::Error` only on filesystem errors; rule
/// violations and classification gaps are *findings*, not errors.
pub fn audit_workspace(root: &Path) -> io::Result<AuditReport> {
    let mut report = AuditReport::default();
    let profiles = workspace_profiles();

    let crates_dir = root.join("crates");
    let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    members.sort();

    for member in members {
        let name = member
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let rel = format!("crates/{name}");
        let Some((_, profile)) = profiles.iter().find(|(p, _)| *p == rel) else {
            report.findings.push(Finding {
                rule: Rule::Amb000,
                file: rel.clone(),
                line: 1,
                col: 1,
                module: String::new(),
                message: format!(
                    "crate directory `{rel}` has no audit profile — add it to \
                     amoeba-audit's workspace_profiles() (deny-by-default)"
                ),
                context: String::new(),
            });
            continue;
        };
        scan_crate(root, &rel, *profile, &mut report)?;
    }

    // The umbrella crate's src/ at the workspace root.
    if let Some((_, profile)) = profiles.iter().find(|(p, _)| *p == "src") {
        scan_crate_dir(root, "src", "src", *profile, &mut report)?;
    }

    report.finalize();
    Ok(report)
}

/// Scans one `crates/<name>` member (its `src/` tree).
fn scan_crate(
    root: &Path,
    rel: &str,
    profile: Profile,
    report: &mut AuditReport,
) -> io::Result<()> {
    if profile == Profile::Vendored {
        report.crates.push(CrateStats {
            path: rel.to_string(),
            profile: profile.name().to_string(),
            files: 0,
            lines: 0,
        });
        return Ok(());
    }
    scan_crate_dir(root, &format!("{rel}/src"), rel, profile, report)
}

/// Scans every `.rs` under `src_rel` (recursively, sorted) with the
/// profile's rules, accumulating into `report`.
fn scan_crate_dir(
    root: &Path,
    src_rel: &str,
    crate_rel: &str,
    profile: Profile,
    report: &mut AuditReport,
) -> io::Result<()> {
    let active = profile.rules();
    let mut stats = CrateStats {
        path: crate_rel.to_string(),
        profile: profile.name().to_string(),
        files: 0,
        lines: 0,
    };
    let dir = root.join(src_rel);
    if dir.is_dir() {
        let mut stack = vec![dir];
        let mut files: Vec<PathBuf> = Vec::new();
        while let Some(d) = stack.pop() {
            for entry in fs::read_dir(&d)? {
                let p = entry?.path();
                if p.is_dir() {
                    stack.push(p);
                } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
                    files.push(p);
                }
            }
        }
        files.sort();
        for f in files {
            let rel_path = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .replace('\\', "/");
            let src = fs::read_to_string(&f)?;
            let analysis = analyze_source(&rel_path, &src, &active);
            stats.files += 1;
            stats.lines += analysis.lines;
            report.findings.extend(analysis.findings);
            report.allows.extend(analysis.allows);
        }
    }
    report.crates.push(stats);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataplane_rules() -> Vec<Rule> {
        Profile::Dataplane { nn_kernels: false }.rules()
    }

    #[test]
    fn finding_reports_line_col_and_module() {
        let src = "mod inner {\n    fn f() {\n        let m = HashMap::new();\n    }\n}\n";
        let a = analyze_source("crates/x/src/lib.rs", src, &dataplane_rules());
        assert_eq!(a.findings.len(), 1);
        let f = &a.findings[0];
        assert_eq!(
            (f.rule, f.line, f.module.as_str()),
            (Rule::Amb001, 3, "inner")
        );
    }

    #[test]
    fn cfg_test_region_is_exempt_except_amb004() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() {\n        let m = HashMap::new();\n        let t = Instant::now();\n        unsafe { undocumented() }\n    }\n}\n";
        let a = analyze_source("crates/x/src/lib.rs", src, &dataplane_rules());
        let rules: Vec<Rule> = a.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, [Rule::Amb004], "{:?}", a.findings);
    }

    #[test]
    fn trailing_and_standalone_allows_suppress_and_are_inventoried() {
        let src = "fn f() {\n    // audit:allow(AMB002, reason = \"latency accounting\")\n    let t0 = Instant::now();\n    let t1 = Instant::now(); // audit:allow(AMB002, reason = \"ditto\")\n}\n";
        let a = analyze_source("crates/x/src/lib.rs", src, &dataplane_rules());
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!(a.allows.len(), 2);
        assert!(a.allows.iter().all(|al| al.used));
    }

    #[test]
    fn allow_without_reason_is_amb000_and_does_not_suppress() {
        let src = "fn f() {\n    // audit:allow(AMB002)\n    let t0 = Instant::now();\n}\n";
        let a = analyze_source("crates/x/src/lib.rs", src, &dataplane_rules());
        let rules: Vec<Rule> = a.findings.iter().map(|f| f.rule).collect();
        // Annotation errors surface during parsing, before the rule pass.
        assert_eq!(rules, [Rule::Amb000, Rule::Amb002]);
    }

    #[test]
    fn stale_allow_is_a_finding() {
        let src = "fn f() {\n    // audit:allow(AMB001, reason = \"there is no map here\")\n    let x = 1;\n}\n";
        let a = analyze_source("crates/x/src/lib.rs", src, &dataplane_rules());
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].rule, Rule::Amb000);
        assert!(a.findings[0].message.contains("stale"));
    }

    #[test]
    fn safety_comment_within_window_satisfies_amb004() {
        let src = "fn f() {\n    // SAFETY: bounds checked above.\n    let x = unsafe { g() };\n    let y = unsafe { h() };\n}\n";
        // Line 3 is covered (1 above); line 4 is also within the 5-line
        // window of the same comment — the window is per-token, so both
        // pass. A block further away must not:
        let a = analyze_source("crates/x/src/lib.rs", src, &[Rule::Amb004]);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        let far = "fn f() {\n    // SAFETY: only covers nearby lines.\n    let a = 1;\n    let b = 2;\n    let c = 3;\n    let d = 4;\n    let e = 5;\n    let x = unsafe { g() };\n}\n";
        let a = analyze_source("crates/x/src/lib.rs", far, &[Rule::Amb004]);
        assert_eq!(a.findings.len(), 1);
    }

    #[test]
    fn patterns_in_comments_and_strings_never_fire() {
        let src = "fn f() {\n    // HashMap, Instant::now, thread_rng — all just prose\n    let s = \"HashMap thread_rng unsafe\";\n    let r = r#\"SystemTime\"#;\n}\n";
        let a = analyze_source("crates/x/src/lib.rs", src, &dataplane_rules());
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn amb006_only_outside_reference_modules() {
        let src = "fn k(v: &[f32]) -> f32 {\n    v.iter().sum::<f32>()\n}\n";
        let nn = Profile::Dataplane { nn_kernels: true }.rules();
        assert_eq!(
            analyze_source("crates/nn/src/simd.rs", src, &nn)
                .findings
                .len(),
            1
        );
        assert!(analyze_source("crates/nn/src/matrix.rs", src, &nn)
            .findings
            .is_empty());
    }

    #[test]
    fn real_workspace_is_clean() {
        // The standing gate: the actual tree must audit clean. This is
        // the same check CI's determinism-audit job runs via --deny.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = audit_workspace(&root).expect("scan workspace");
        assert!(
            report.clean(),
            "unsuppressed determinism findings:\n{}",
            report.render_human()
        );
        // And every granted exemption carries its reason, by
        // construction — assert the inventory is non-trivial so the
        // allow machinery is known to be exercised on the real tree.
        assert!(!report.allows.is_empty());
        assert!(report.allows.iter().all(|a| !a.reason.is_empty()));
    }
}
