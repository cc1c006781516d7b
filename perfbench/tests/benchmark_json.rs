//! `BENCHMARK.json` at the repository root lists exactly the workloads and
//! metrics this program reports, with well-formed names, units and bounds.

use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let body = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&body).expect("BENCHMARK.json is valid JSON")
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn names(v: &Value, key: &str) -> Vec<String> {
    v[key]
        .as_array()
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|e| e["name"].as_str().expect("name is a string").to_string())
        .collect()
}

#[test]
fn every_name_uses_only_allowed_characters() {
    let v = benchmark_json();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for name in names(&v, key) {
            assert!(valid_name(&name), "{key} name {name:?} is not allowed");
        }
    }
    assert!(!valid_name("a b"));
    assert!(!valid_name("_x"));
    assert!(!valid_name("x/y"));
}

#[test]
fn lists_match_what_the_program_reports() {
    let v = benchmark_json();
    assert_eq!(names(&v, "workloads"), WORKLOADS);
    let units = |key: &str| -> Vec<(String, String)> {
        v[key]
            .as_array()
            .expect("list")
            .iter()
            .map(|e| {
                (
                    e["name"].as_str().expect("name").to_string(),
                    e["unit"].as_str().expect("unit").to_string(),
                )
            })
            .collect()
    };
    let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(units("end_to_end"), expect(END_TO_END));
    assert_eq!(units("per_layer"), expect(PER_LAYER));
}

#[test]
fn bounds_and_setup_are_well_formed() {
    let v = benchmark_json();
    let e2e = v["end_to_end"].as_array().expect("list");
    for m in e2e {
        let bound = m["bound"].as_f64().expect("bound is a number");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        assert!(matches!(m["better"].as_str(), Some("lower" | "higher")));
    }
    let setup = e2e
        .iter()
        .find(|m| m["name"] == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup["unit"], "s");
    assert_eq!(setup["better"], "lower");
    let max = e2e
        .iter()
        .filter_map(|m| m["bound"].as_f64())
        .fold(0.0, f64::max);
    assert_eq!(
        setup["bound"].as_f64(),
        Some(max),
        "setup_s has the largest bound"
    );
}
