//! L7 — transitive determinism taint.
//!
//! L1/L3 only see *direct* uses of unordered iteration and wall-clock /
//! entropy sources, and their path scopes stop at crate boundaries: a
//! helper in `crates/core` that iterates a `HashMap` is invisible to
//! both, even when every caller sits on the deterministic hot path. L7
//! closes the gap: it seeds taint at every L1/L3-shaped site in the
//! workspace (wherever it lives, test/audit/bench code excepted),
//! propagates it through the conservative call graph, and reports each
//! *transitively* tainted function in the deterministic-core crates at
//! the call site that imported the taint. Directly tainted functions are
//! not re-reported — those are L1/L3's job.

use super::{finding, token, RawFinding};
use crate::callgraph::CallGraph;
use crate::lexer::Lexed;
use crate::Rule;
use crate::SourceFile;

/// L7 reports in the deterministic core: the crates whose results must be
/// a pure function of the seed.
pub fn l7_applies(path: &str) -> bool {
    !super::is_test_path(path) && (super::l1_applies(path) || path.starts_with("crates/lp/"))
}

/// Taint seed sites in one file: (token index, reason). A site carrying a
/// `lint:allow(L1)`/`lint:allow(L3)` marker does not seed: the written
/// justification ("telemetry only", "sorted before use") covers the
/// dataflow consequence for callers too.
fn seed_sites(lexed: &Lexed) -> Vec<(usize, String)> {
    let mut v = Vec::new();
    for h in token::l1_hits(lexed) {
        if seed_allowed(lexed, h.tok, "L1") {
            continue;
        }
        v.push((
            h.tok,
            format!(
                "iterates hash collection `{}` (RandomState-seeded order)",
                h.binding
            ),
        ));
    }
    for tok in token::l3_hits(lexed) {
        if seed_allowed(lexed, tok, "L3") {
            continue;
        }
        v.push((
            tok,
            format!("reads wall-clock/entropy source `{}`", lexed.toks[tok].text),
        ));
    }
    v
}

/// Whether an allow marker for `rule` covers the token's line (same
/// matching as the finding-level suppression in `apply_allows`).
fn seed_allowed(lexed: &Lexed, tok: usize, rule: &str) -> bool {
    let line = lexed.toks[tok].line;
    lexed.allows.iter().any(|a| {
        a.rules.iter().any(|r| r == rule) && (a.whole_file || line == a.line || line == a.line + 1)
    })
}

/// L7: report transitively tainted deterministic-core functions. Findings
/// land in `per_file` (parallel to `files`).
pub fn check_l7(files: &[SourceFile], graph: &CallGraph, per_file: &mut [Vec<RawFinding>]) {
    let mut seeds = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        // Bench code legitimately reads the wall clock, and nothing on the
        // deterministic path can call into it.
        if f.path.starts_with("crates/bench/") {
            continue;
        }
        for (tok, reason) in seed_sites(&f.lexed) {
            let Some(k) = f.syntax.enclosing_fn(tok) else {
                continue;
            };
            let fun = &f.syntax.fns[k];
            if fun.test_only || fun.audit_only {
                continue;
            }
            seeds.push((graph.node_id(fi, k), reason));
        }
    }
    let taint = graph.propagate(files, seeds);
    for (n, t) in taint.iter().enumerate() {
        let Some(t) = t else { continue };
        // Seeds (via_tok: None) are direct uses — L1/L3 territory.
        let Some(via) = t.via_tok else { continue };
        let node = graph.nodes[n];
        let f = &files[node.file];
        if !l7_applies(&f.path) {
            continue;
        }
        let fun = &f.syntax.fns[node.fn_idx];
        if fun.test_only || fun.audit_only {
            continue;
        }
        let tok = &f.lexed.toks[via];
        per_file[node.file].push(finding(
            Rule::L7,
            tok,
            tok.text.len() as u32,
            format!(
                "determinism taint in `{}`: {}; deterministic-core results \
                 must be a pure function of the seed — sort the iteration or \
                 thread the seeded RNG through instead",
                fun.name, t.reason
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use crate::{lint_sources, Rule};

    const HELPER: &str = "use std::collections::HashMap;\n\
                          pub fn merge_weights(m: &HashMap<u32, f64>) -> f64 {\n\
                              m.values().sum()\n\
                          }";
    const CALLER: &str = "fn schedule_round(w: f64) -> f64 {\n\
                              let x = merge_weights(&Default::default());\n\
                              w + x\n\
                          }";

    #[test]
    fn cross_crate_taint_flags_the_sim_caller() {
        // The helper lives in crates/core (L1 out of scope) and the caller
        // never mentions a hash type; the taint crosses the call edge into
        // the sim crate.
        let f = lint_sources(&[
            ("crates/core/src/helpers.rs".to_string(), HELPER.to_string()),
            ("crates/sim/src/round.rs".to_string(), CALLER.to_string()),
        ]);
        let l7: Vec<_> = f.iter().filter(|f| f.rule == Rule::L7).collect();
        assert_eq!(l7.len(), 1, "{f:#?}");
        assert_eq!(l7[0].path, "crates/sim/src/round.rs");
        // `\n\` line continuations strip the indentation, so line 2 of the
        // fixture is `let x = merge_weights(...)` and the callee starts at
        // column 9.
        assert_eq!((l7[0].line, l7[0].col), (2, 9));
        assert!(l7[0].message.contains("merge_weights"));
        assert!(l7[0].message.contains("RandomState"));
    }

    #[test]
    fn direct_uses_are_left_to_l1_and_l3() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, u32>) -> u32 { m.values().sum() }";
        let f = lint_sources(&[("crates/sim/src/x.rs".to_string(), src.to_string())]);
        assert!(f.iter().any(|f| f.rule == Rule::L1));
        assert!(!f.iter().any(|f| f.rule == Rule::L7));
    }

    #[test]
    fn taint_does_not_reach_test_only_or_out_of_scope_callers() {
        let files = [
            ("crates/core/src/helpers.rs".to_string(), HELPER.to_string()),
            (
                "crates/cli/src/main.rs".to_string(),
                CALLER.to_string(), // out of scope: cli may be impure
            ),
            (
                "crates/sim/src/t.rs".to_string(),
                format!("#[cfg(test)]\nmod tests {{ {CALLER} }}"),
            ),
        ];
        let f = lint_sources(&files);
        assert!(!f.iter().any(|f| f.rule == Rule::L7), "{f:#?}");
    }
}
