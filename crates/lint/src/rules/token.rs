//! The original five token-level rules (L1–L5), implemented over raw
//! token sequences — no syntax layer needed. The per-site detection for
//! L1 and L3 is factored into `l1_hits`/`l3_hits` (token indices, not
//! line/col) so the L7 determinism-taint rule can reuse them as seed
//! sources across the whole workspace.

use super::{finding, RawFinding};
use crate::lexer::{Lexed, Tok, TokKind};
use crate::Rule;
use std::collections::BTreeSet;

/// L1 applies to simulation-facing code: the engine, flow simulator,
/// cluster model, baselines, and any scheduler path.
pub fn l1_applies(path: &str) -> bool {
    path.starts_with("crates/sim/")
        || path.starts_with("crates/net/")
        || path.starts_with("crates/cluster/")
        || path.starts_with("crates/baselines/")
        || path.contains("sched")
}

/// L3 applies everywhere except bench timing code.
pub fn l3_applies(path: &str) -> bool {
    !path.starts_with("crates/bench/")
}

/// L4 applies to the ledger hot paths only.
pub fn l4_applies(path: &str) -> bool {
    path.ends_with("crates/sim/src/engine.rs")
        || path.ends_with("crates/net/src/flowsim.rs")
        || path.ends_with("crates/net/src/maxmin.rs")
        || path == "engine.rs"
        || path == "flowsim.rs"
        || path == "maxmin.rs"
}

/// L5 applies to the sparse-substrate crates: the LP solver and the network
/// model must not regrow dense O(n²) matrices.
pub fn l5_applies(path: &str) -> bool {
    path.starts_with("crates/lp/") || path.starts_with("crates/net/")
}

/// Iteration methods on `HashMap`/`HashSet` that expose `RandomState`
/// ordering.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
    "extract_if",
];

/// One unordered-iteration site: the flagged token's index, the hash
/// collection's binding name, and the iteration method (`None` for a bare
/// `for … in binding`).
pub(crate) struct L1Hit {
    pub tok: usize,
    pub binding: String,
    pub method: Option<String>,
}

/// L1: find bindings/fields typed or initialised as `HashMap`/`HashSet`,
/// then flag any iteration over them (method calls above, or appearing as a
/// `for .. in` iterable without a keyed accessor).
pub fn check_l1(lexed: &Lexed, out: &mut Vec<RawFinding>) {
    for h in l1_hits(lexed) {
        let t = &lexed.toks[h.tok];
        let message = match &h.method {
            Some(m) => format!(
                "iteration over hash collection `{}` via `.{}()`; \
                 HashMap/HashSet order is seeded by RandomState — use \
                 BTreeMap/BTreeSet or a sorted vec in simulation code",
                h.binding, m
            ),
            None => format!(
                "`for` iteration over hash collection `{}`; \
                 HashMap/HashSet order is seeded by RandomState — use \
                 BTreeMap/BTreeSet or a sorted vec in simulation code",
                h.binding
            ),
        };
        out.push(finding(Rule::L1, t, t.text.len() as u32, message));
    }
}

/// Token-level detection behind [`check_l1`], returning token indices so
/// L7 can seed taint from any file regardless of L1's path scope.
pub(crate) fn l1_hits(lexed: &Lexed) -> Vec<L1Hit> {
    let mut hits = Vec::new();
    let toks = &lexed.toks;
    // Pass A: collect binding names. Two shapes cover this codebase:
    //   `name: [std::collections::] HashMap<..>`   (fields, lets, args)
    //   `name = [path::] HashMap::new/with_capacity/default/from(..)`
    let mut names: BTreeSet<String> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk back over a `std :: collections ::`-style path prefix, then
        // over reference sigils (`& 'a mut`) so `m: &HashMap<..>` args count.
        let mut j = i;
        while j >= 2 && toks[j - 1].is_punct("::") && toks[j - 2].kind == TokKind::Ident {
            j -= 2;
        }
        while j >= 1
            && (toks[j - 1].is_punct("&")
                || toks[j - 1].is_ident("mut")
                || toks[j - 1].kind == TokKind::Lifetime)
        {
            j -= 1;
        }
        if j >= 2 && toks[j - 1].is_punct(":") && toks[j - 2].kind == TokKind::Ident {
            names.insert(toks[j - 2].text.clone());
            continue;
        }
        if j >= 2 && toks[j - 1].is_punct("=") && toks[j - 2].kind == TokKind::Ident {
            // `name = HashMap::new()` — only when followed by a constructor.
            if toks.get(i + 1).map(|n| n.is_punct("::")).unwrap_or(false) {
                names.insert(toks[j - 2].text.clone());
            }
        }
    }

    // An occurrence of a collected name only counts when it is the binding
    // itself: bare (`copies`) or on `self` (`self.copies`). A dotted access
    // on another receiver (`job.runnable`) is a different field that merely
    // shares the name.
    let is_binding_use = |i: usize| -> bool {
        if i >= 1 && (toks[i - 1].is_punct(".") || toks[i - 1].is_punct("::")) {
            toks[i - 1].is_punct(".") && i >= 2 && toks[i - 2].is_ident("self")
        } else {
            true
        }
    };

    // Pass B1: `name.iter()` and friends.
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !names.contains(&t.text) || !is_binding_use(i) {
            continue;
        }
        if let (Some(dot), Some(m)) = (toks.get(i + 1), toks.get(i + 2)) {
            if dot.is_punct(".")
                && m.kind == TokKind::Ident
                && ITER_METHODS.contains(&m.text.as_str())
            {
                hits.push(L1Hit {
                    tok: i + 2,
                    binding: t.text.clone(),
                    method: Some(m.text.clone()),
                });
            }
        }
    }

    // Pass B2: `for x in [&[mut]] ...name... {` where `name` is not
    // immediately followed by `.` (a keyed accessor like `.get()` returning
    // an iterable value is fine; `.iter()` is caught by pass B1).
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("for") {
            i += 1;
            continue;
        }
        // Find the `in` for this loop header.
        let Some(in_pos) = toks[i + 1..]
            .iter()
            .position(|t| t.is_ident("in") || t.is_punct("{"))
            .map(|p| p + i + 1)
        else {
            break;
        };
        if !toks[in_pos].is_ident("in") {
            i = in_pos;
            continue;
        }
        // Scan the iterable expression up to the body `{`.
        let mut j = in_pos + 1;
        while j < toks.len() && !toks[j].is_punct("{") {
            let t = &toks[j];
            if t.kind == TokKind::Ident
                && names.contains(&t.text)
                && is_binding_use(j)
                && !toks.get(j + 1).map(|n| n.is_punct(".")).unwrap_or(false)
            {
                hits.push(L1Hit {
                    tok: j,
                    binding: t.text.clone(),
                    method: None,
                });
            }
            j += 1;
        }
        i = j;
    }
    hits
}

/// L2: `partial_cmp` used as a comparator (anywhere). Definitions
/// (`fn partial_cmp`) inside `PartialOrd` impls are exempt.
pub fn check_l2(lexed: &Lexed, out: &mut Vec<RawFinding>) {
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("partial_cmp") {
            continue;
        }
        if i > 0 && toks[i - 1].is_ident("fn") {
            continue;
        }
        out.push(finding(
            Rule::L2,
            t,
            t.text.len() as u32,
            "`partial_cmp` in comparator position; use `f64::total_cmp` (or a \
             documented NaN-free wrapper) so float sorts are total and \
             panic-free"
                .to_string(),
        ));
    }
}

/// L3: wall-clock / entropy sources outside bench code.
pub fn check_l3(lexed: &Lexed, out: &mut Vec<RawFinding>) {
    for i in l3_hits(lexed) {
        let t = &lexed.toks[i];
        out.push(finding(
            Rule::L3,
            t,
            t.text.len() as u32,
            format!(
                "wall-clock/entropy source `{}` outside bench timing code; \
                 simulation output must be a pure function of the seed",
                t.text
            ),
        ));
    }
}

/// Token indices of wall-clock/entropy reads (the detection behind
/// [`check_l3`]; reused as L7 taint seeds).
pub(crate) fn l3_hits(lexed: &Lexed) -> Vec<usize> {
    let toks = &lexed.toks;
    let mut hits = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let hit = match t.text.as_str() {
            // `Instant` only counts when it is actually read (`Instant::now`):
            // mentioning the type (e.g. in a signature) is harmless.
            "Instant" => {
                toks.get(i + 1).map(|n| n.is_punct("::")).unwrap_or(false)
                    && toks.get(i + 2).map(|n| n.is_ident("now")).unwrap_or(false)
            }
            "SystemTime" | "thread_rng" | "RandomState" => true,
            _ => false,
        };
        if hit {
            hits.push(i);
        }
    }
    hits
}

/// Integer cast targets that truncate a float.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Method names that mark the casted expression as float arithmetic.
const FLOAT_METHODS: &[&str] = &[
    "ceil", "floor", "round", "trunc", "sqrt", "powf", "powi", "exp", "ln", "log2", "log10", "abs",
    "recip", "hypot", "mul_add", "min", "max", "clamp",
];

/// L4: `expr as <int>` where the primary expression on the left shows float
/// evidence (a float literal, an `f64`/`f32` mention, or a float method),
/// plus any `as f32` (f64→f32 silently loses ledger precision). The walk
/// skips backwards over matched `()`/`[]` groups — scanning their interiors
/// for evidence — and over `.`-/`::`-joined path segments.
pub fn check_l4(lexed: &Lexed, out: &mut Vec<RawFinding>) {
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("as") {
            continue;
        }
        let Some(ty) = toks.get(i + 1) else { continue };
        if ty.kind != TokKind::Ident {
            continue;
        }
        if ty.text == "f32" {
            out.push(finding(
                Rule::L4,
                t,
                2,
                "lossy `as f32` cast on a ledger hot path; keep ledger \
                 quantities in f64"
                    .to_string(),
            ));
            continue;
        }
        if !INT_TYPES.contains(&ty.text.as_str()) {
            continue;
        }
        if cast_source_is_float(toks, i) {
            out.push(finding(
                Rule::L4,
                t,
                2,
                format!(
                    "lossy float-to-`{}` `as` cast on a ledger hot path; round \
                     through a named, documented helper instead of an inline \
                     cast",
                    ty.text
                ),
            ));
        }
    }
}

/// Is a token float evidence?
fn is_float_evidence(t: &Tok) -> bool {
    t.is_float_lit()
        || (t.kind == TokKind::Num && (t.text.ends_with("f64") || t.text.ends_with("f32")))
        || t.is_ident("f64")
        || t.is_ident("f32")
        || (t.kind == TokKind::Ident && FLOAT_METHODS.contains(&t.text.as_str()))
}

/// Walks backwards from the token before `as` over the primary expression
/// being cast, returning true if any part of it shows float evidence.
fn cast_source_is_float(toks: &[Tok], as_pos: usize) -> bool {
    let mut j = as_pos; // exclusive upper bound; inspect toks[j-1]
    while j > 0 {
        let t = &toks[j - 1];
        if t.is_punct(")") || t.is_punct("]") {
            // Skip the matched group, scanning its interior.
            let close = if t.is_punct(")") { ")" } else { "]" };
            let open = if t.is_punct(")") { "(" } else { "[" };
            let mut depth = 0usize;
            let mut k = j;
            while k > 0 {
                let u = &toks[k - 1];
                if u.is_punct(close) {
                    depth += 1;
                } else if u.is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if is_float_evidence(u) {
                    return true;
                }
                k -= 1;
            }
            if k == 0 {
                return false; // unbalanced; bail conservatively
            }
            j = k - 1;
            continue;
        }
        if t.kind == TokKind::Ident || t.kind == TokKind::Num {
            if is_float_evidence(t) {
                return true;
            }
            // Part of the expression path (ident/field/number); keep walking
            // only if joined by `.`/`::`/`?` to more expression.
            j -= 1;
            continue;
        }
        if t.is_punct(".") || t.is_punct("::") || t.is_punct("?") {
            j -= 1;
            continue;
        }
        break; // any other punct ends the primary expression
    }
    false
}

/// L5: dense-matrix creep. A `Vec<Vec<f64>>` (or `f32`) in `crates/lp` or
/// `crates/net` reintroduces the O(n²) storage the sparse revised simplex
/// and the sharded waterfiller were built to avoid; flag the nested type
/// wherever it appears (field, binding, signature, or turbofish).
pub fn check_l5(lexed: &Lexed, out: &mut Vec<RawFinding>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if !(toks[i].is_ident("Vec")
            && toks.get(i + 1).map(|t| t.is_punct("<")).unwrap_or(false)
            && toks.get(i + 2).map(|t| t.is_ident("Vec")).unwrap_or(false)
            && toks.get(i + 3).map(|t| t.is_punct("<")).unwrap_or(false)
            && toks
                .get(i + 4)
                .map(|t| t.is_ident("f64") || t.is_ident("f32"))
                .unwrap_or(false))
        {
            continue;
        }
        // Underline through the closing `>>` when the type sits on one line.
        let mut end = i + 4;
        for j in [i + 5, i + 6] {
            if toks.get(j).map(|t| t.is_punct(">")).unwrap_or(false) {
                end = j;
            } else {
                break;
            }
        }
        let len = if toks[end].line == toks[i].line {
            toks[end].col + toks[end].text.len() as u32 - toks[i].col
        } else {
            3
        };
        let elem = toks[i + 4].text.clone();
        out.push(finding(
            Rule::L5,
            &toks[i],
            len,
            format!(
                "dense matrix type `Vec<Vec<{elem}>>` in a sparse-substrate \
                 crate; use a CSC matrix (`tetrium-lp::sparsela`) or a sorted \
                 (row, col) pair index instead"
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use crate::{lint_sources, Finding, Rule};

    /// Lints `src` as if it lived at `path`, keeping only `rule`'s
    /// findings (the full engine also runs L6–L8 on the same snippet).
    fn lint(path: &str, src: &str, rule: Rule) -> Vec<Finding> {
        let mut f = lint_sources(&[(path.to_string(), src.to_string())]);
        f.retain(|f| f.rule == rule);
        f
    }

    #[test]
    fn l4_flags_float_cast_and_spares_int_packing() {
        let bad = "fn f(n: f64) -> usize { (n * 1.5).ceil() as usize }";
        let f = lint("crates/net/src/maxmin.rs", bad, Rule::L4);
        assert_eq!(f.len(), 1);
        // Pure integer packing must not fire.
        let good = "fn key(a: usize, b: usize) -> u64 { ((a as u64) << 32) | b as u64 }";
        assert!(lint("crates/net/src/maxmin.rs", good, Rule::L4).is_empty());
    }

    #[test]
    fn l1_keyed_lookup_is_fine_iteration_is_not() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, u32>) -> u32 { *m.get(&1).unwrap() }";
        assert!(lint("crates/sim/src/x.rs", src, Rule::L1).is_empty());
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, u32>) -> u32 { m.values().sum() }";
        let f = lint("crates/sim/src/x.rs", src, Rule::L1);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn l2_definition_is_exempt() {
        let src =
            "impl PartialOrd for X { fn partial_cmp(&self, o: &X) -> Option<Ordering> { None } }";
        assert!(lint("crates/core/src/x.rs", src, Rule::L2).is_empty());
    }

    #[test]
    fn l3_skips_bench_and_type_mentions() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(lint("crates/sim/src/x.rs", src, Rule::L3).len(), 1);
        assert!(lint("crates/bench/src/x.rs", src, Rule::L3).is_empty());
        let sig = "fn f(deadline: Instant) {}";
        assert!(lint("crates/sim/src/x.rs", sig, Rule::L3).is_empty());
    }

    #[test]
    fn l5_flags_nested_float_vec_only_in_sparse_crates() {
        let src = "struct M { rows: Vec<Vec<f64>> }";
        let f = lint("crates/lp/src/x.rs", src, Rule::L5);
        assert_eq!(f.len(), 1);
        assert_eq!(lint("crates/net/src/x.rs", src, Rule::L5).len(), 1);
        // Same type outside the sparse substrate is someone else's problem.
        assert!(lint("crates/bench/src/x.rs", src, Rule::L5).is_empty());
        // Sparse shapes don't fire: flat data + index vectors.
        let good = "struct Csc { data: Vec<f64>, rows: Vec<u32>, col_ptr: Vec<usize> }";
        assert!(lint("crates/lp/src/x.rs", good, Rule::L5).is_empty());
        // Nested integer vecs (e.g. adjacency lists) are fine.
        let adj = "struct G { groups: Vec<Vec<u32>> }";
        assert!(lint("crates/net/src/x.rs", adj, Rule::L5).is_empty());
    }

    #[test]
    fn allow_marker_suppresses_on_next_line() {
        let src = "// lint:allow(L3) -- telemetry only\nfn f() { let t = Instant::now(); }";
        assert!(lint("crates/sim/src/x.rs", src, Rule::L3).is_empty());
        let src = "// lint:allow(L1) -- wrong rule\nfn f() { let t = Instant::now(); }";
        assert_eq!(lint("crates/sim/src/x.rs", src, Rule::L3).len(), 1);
    }
}
