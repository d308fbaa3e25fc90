//! The determinism rule set and per-crate audit profiles.
//!
//! Every rule is a token-pattern scan over [`crate::lexer::strip`]ped
//! code, so comments and string literals can never trigger (or mask) a
//! finding. The six obligations are listed in the crate docs
//! ([`crate`]); this module holds their matchers and the deny-by-default
//! crate table.
//!
//! ## Why token scans are enough
//!
//! The rules target *constructs*, not data flow: a `HashMap` in
//! wire-affecting code is a hazard whether or not today's code iterates
//! it, because the next edit may. Deny-by-default plus a mandatory-reason
//! escape hatch (`// audit:allow(AMBxxx, reason = "…")`) moves the
//! burden of proof to the annotation, where the reviewer can see it.

use std::fmt;

/// A determinism rule identifier. `AMB000` is reserved for findings
/// raised by the audit machinery itself (malformed or stale allows,
/// unprofiled crates), which are never suppressible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Meta: malformed/stale `audit:allow`, or a crate with no profile.
    Amb000,
    /// `HashMap`/`HashSet` in non-test wire-affecting code.
    Amb001,
    /// `Instant::now`/`SystemTime` outside telemetry-designated code.
    Amb002,
    /// Ambient randomness: `thread_rng`, `from_entropy`, seedless
    /// `rand::random`.
    Amb003,
    /// `unsafe` without an adjacent `// SAFETY:` comment.
    Amb004,
    /// Thread identity or atomic read-modify-write in dataplane code.
    Amb005,
    /// Iterator float reductions in `amoeba-nn` kernel modules.
    Amb006,
}

impl Rule {
    /// All suppressible rules, in code order.
    pub const ALL: [Rule; 6] = [
        Rule::Amb001,
        Rule::Amb002,
        Rule::Amb003,
        Rule::Amb004,
        Rule::Amb005,
        Rule::Amb006,
    ];

    /// The `AMBxxx` code.
    pub fn code(self) -> &'static str {
        match self {
            Rule::Amb000 => "AMB000",
            Rule::Amb001 => "AMB001",
            Rule::Amb002 => "AMB002",
            Rule::Amb003 => "AMB003",
            Rule::Amb004 => "AMB004",
            Rule::Amb005 => "AMB005",
            Rule::Amb006 => "AMB006",
        }
    }

    /// Parses an `AMBxxx` code (as written inside `audit:allow(…)`).
    pub fn parse(code: &str) -> Option<Rule> {
        match code.trim() {
            "AMB001" => Some(Rule::Amb001),
            "AMB002" => Some(Rule::Amb002),
            "AMB003" => Some(Rule::Amb003),
            "AMB004" => Some(Rule::Amb004),
            "AMB005" => Some(Rule::Amb005),
            "AMB006" => Some(Rule::Amb006),
            _ => None,
        }
    }

    /// One-line description used in reports.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::Amb000 => "audit annotation or profile error",
            Rule::Amb001 => "HashMap/HashSet iteration-order hazard (use BTreeMap/BTreeSet)",
            Rule::Amb002 => "wall-clock read outside telemetry-designated code",
            Rule::Amb003 => "ambient randomness (RNG must derive from (seed, session_id))",
            Rule::Amb004 => "unsafe without an adjacent // SAFETY: comment",
            Rule::Amb005 => "thread identity / atomic RMW feeding dataplane state",
            Rule::Amb006 => "iterator float reduction in an amoeba-nn kernel module",
        }
    }

    /// Whether `#[cfg(test)]`/`#[test]` regions are exempt from this
    /// rule. Everything except AMB004: an `unsafe` block demands a
    /// SAFETY argument even in test code.
    pub fn exempt_in_tests(self) -> bool {
        !matches!(self, Rule::Amb004)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Which rules apply to a crate. The audit is deny-by-default: every
/// crate directory discovered under the workspace must map to a profile
/// (see [`crate::workspace_profiles`]) or scanning fails with AMB000.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Wire-affecting dataplane code: all of AMB001–AMB005, plus AMB006
    /// when the crate is `amoeba-nn`.
    Dataplane {
        /// Apply AMB006 (only meaningful for `amoeba-nn`).
        nn_kernels: bool,
    },
    /// Telemetry-designated code (`amoeba-telemetry`): reading clocks
    /// and maintaining atomics is its purpose, so AMB002/AMB005 are off;
    /// order (AMB001), randomness (AMB003) and unsafe hygiene (AMB004)
    /// still apply.
    Telemetry,
    /// Offline harnesses (`amoeba-bench`, `amoeba-attacks`, the audit
    /// tool itself, the umbrella crate): wall-clock timing is reporting,
    /// not wire state, so AMB002/AMB005 are off — but their *outputs*
    /// (tables, experiment caches) must still be deterministic, so
    /// AMB001/AMB003/AMB004 apply.
    Harness,
    /// Vendored third-party stand-ins (`crates/compat/*`): skipped
    /// entirely; they are API shims, not first-party code.
    Vendored,
}

impl Profile {
    /// The rules active under this profile.
    pub fn rules(self) -> Vec<Rule> {
        match self {
            Profile::Dataplane { nn_kernels } => {
                let mut r = vec![
                    Rule::Amb001,
                    Rule::Amb002,
                    Rule::Amb003,
                    Rule::Amb004,
                    Rule::Amb005,
                ];
                if nn_kernels {
                    r.push(Rule::Amb006);
                }
                r
            }
            Profile::Telemetry | Profile::Harness => {
                vec![Rule::Amb001, Rule::Amb003, Rule::Amb004]
            }
            Profile::Vendored => Vec::new(),
        }
    }

    /// Human name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Dataplane { .. } => "dataplane",
            Profile::Telemetry => "telemetry",
            Profile::Harness => "harness",
            Profile::Vendored => "vendored",
        }
    }
}

/// `amoeba-nn` modules where iterator float reductions are the *spec*:
/// `matrix.rs`/`tensor.rs` define the reference summation order every
/// kernel must reproduce, and `optim.rs`/`gradcheck.rs` are training-side
/// numerics whose order is fixed by their single-threaded loops. Kernels
/// anywhere else in the crate (`simd.rs` and future backends) must
/// accumulate with explicit index loops so the order is visible — a
/// `.sum()`/`.fold(…)` there is exactly the horizontal-reduction shape
/// that breaks bit-exactness when vectorised.
pub const NN_REFERENCE_MODULES: [&str; 4] = ["matrix.rs", "tensor.rs", "optim.rs", "gradcheck.rs"];

/// True when `code[idx]` starts a standalone identifier occurrence of
/// `word` (no identifier char glued on either side).
fn ident_at(code: &str, idx: usize, word: &str) -> bool {
    let bytes = code.as_bytes();
    let end = idx + word.len();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    if idx > 0 && is_ident(bytes[idx - 1]) {
        return false;
    }
    if end < bytes.len() && is_ident(bytes[end]) {
        return false;
    }
    true
}

/// All standalone-identifier match positions of `word` in `code`.
fn find_idents<'a>(code: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    code.match_indices(word)
        .map(|(i, _)| i)
        .filter(move |&i| ident_at(code, i, word))
}

/// A matched token with its column, for finding reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenMatch {
    /// 0-based column of the match in the stripped line.
    pub col: usize,
    /// The construct that matched (e.g. `HashMap`, `Instant::now`).
    pub token: String,
}

/// Scans one stripped code line for the constructs a rule forbids.
/// `file_name` is the path's final component (AMB006 scoping).
pub fn matches_on_line(rule: Rule, code_line: &str, file_name: &str) -> Vec<TokenMatch> {
    let mut out = Vec::new();
    let mut push = |col: usize, token: &str| {
        out.push(TokenMatch {
            col,
            token: token.to_string(),
        })
    };
    match rule {
        Rule::Amb000 => {}
        Rule::Amb001 => {
            for w in ["HashMap", "HashSet"] {
                for i in find_idents(code_line, w) {
                    push(i, w);
                }
            }
        }
        Rule::Amb002 => {
            for i in code_line
                .match_indices("Instant::now")
                .map(|(i, _)| i)
                .filter(|&i| ident_at(code_line, i, "Instant::now"))
            {
                push(i, "Instant::now");
            }
            for i in find_idents(code_line, "SystemTime") {
                push(i, "SystemTime");
            }
        }
        Rule::Amb003 => {
            for w in ["thread_rng", "from_entropy"] {
                for i in find_idents(code_line, w) {
                    push(i, w);
                }
            }
            // Seedless `rand::random()` / `rand::random::<T>()`. A
            // `.random(` method call on a seeded generator is fine.
            for (i, _) in code_line.match_indices("rand::random") {
                push(i, "rand::random");
            }
        }
        Rule::Amb004 => {
            for i in find_idents(code_line, "unsafe") {
                push(i, "unsafe");
            }
        }
        Rule::Amb005 => {
            const RMW: [&str; 11] = [
                "fetch_add",
                "fetch_sub",
                "fetch_and",
                "fetch_or",
                "fetch_xor",
                "fetch_nand",
                "fetch_min",
                "fetch_max",
                "fetch_update",
                "compare_exchange",
                "compare_exchange_weak",
            ];
            for w in RMW {
                for i in find_idents(code_line, w) {
                    // compare_exchange is a prefix of compare_exchange_weak;
                    // ident_at's boundary check already rejects the overlap.
                    push(i, w);
                }
            }
            for (i, _) in code_line.match_indices("thread::current") {
                push(i, "thread::current");
            }
            for i in find_idents(code_line, "ThreadId") {
                push(i, "ThreadId");
            }
        }
        Rule::Amb006 => {
            if NN_REFERENCE_MODULES.contains(&file_name) {
                return out;
            }
            for pat in [".sum::<", ".sum()", ".fold(", ".product("] {
                for (i, _) in code_line.match_indices(pat) {
                    push(i, pat.trim_end_matches(['(', '<', ':']));
                }
            }
        }
    }
    out.sort_by_key(|m| m.col);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(rule: Rule, line: &str) -> Vec<String> {
        matches_on_line(rule, line, "other.rs")
            .into_iter()
            .map(|m| m.token)
            .collect()
    }

    #[test]
    fn amb001_matches_whole_idents_only() {
        assert_eq!(hits(Rule::Amb001, "let m: HashMap<u32, u32>;"), ["HashMap"]);
        assert!(hits(Rule::Amb001, "let m = MyHashMapLike::new();").is_empty());
        assert_eq!(
            hits(Rule::Amb001, "use std::collections::{HashMap, HashSet};"),
            ["HashMap", "HashSet"]
        );
    }

    #[test]
    fn amb002_matches_clock_reads_not_types() {
        assert_eq!(
            hits(Rule::Amb002, "let t = Instant::now();"),
            ["Instant::now"]
        );
        assert!(hits(Rule::Amb002, "enqueued: Instant,").is_empty());
        assert_eq!(
            hits(Rule::Amb002, "std::time::SystemTime::now()"),
            ["SystemTime"]
        );
    }

    #[test]
    fn amb003_matches_ambient_rng() {
        assert_eq!(
            hits(Rule::Amb003, "let mut r = thread_rng();"),
            ["thread_rng"]
        );
        assert_eq!(
            hits(Rule::Amb003, "StdRng::from_entropy()"),
            ["from_entropy"]
        );
        assert_eq!(
            hits(Rule::Amb003, "let x: f32 = rand::random();"),
            ["rand::random"]
        );
        assert!(hits(Rule::Amb003, "rng.random_range(0..4)").is_empty());
        assert!(hits(Rule::Amb003, "StdRng::seed_from_u64(7)").is_empty());
    }

    #[test]
    fn amb005_matches_rmw_and_thread_identity() {
        assert_eq!(
            hits(Rule::Amb005, "x.fetch_add(1, Ordering::SeqCst)"),
            ["fetch_add"]
        );
        assert_eq!(
            hits(Rule::Amb005, "std::thread::current().id()"),
            ["thread::current"]
        );
        assert!(hits(Rule::Amb005, "x.load(Ordering::SeqCst)").is_empty());
        assert_eq!(
            hits(Rule::Amb005, "a.compare_exchange_weak(x, y, o1, o2)"),
            ["compare_exchange_weak"]
        );
    }

    #[test]
    fn amb006_scopes_to_non_reference_modules() {
        assert_eq!(
            matches_on_line(Rule::Amb006, "let s = v.iter().sum::<f32>();", "simd.rs").len(),
            1
        );
        assert!(
            matches_on_line(Rule::Amb006, "let s = v.iter().sum::<f32>();", "matrix.rs").is_empty()
        );
        assert_eq!(
            matches_on_line(Rule::Amb006, "xs.fold(0.0, |a, b| a + b)", "rnn.rs").len(),
            1
        );
    }

    #[test]
    fn rule_codes_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::parse(r.code()), Some(r));
        }
        assert_eq!(Rule::parse("AMB999"), None);
    }
}
