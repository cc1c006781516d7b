//! Serialization round-trips and miscellaneous cross-crate checks.

use tetrium::cluster::{Cluster, DataDistribution, DynamicsChange, DynamicsEvent, Site, SiteId};
use tetrium::jobs::{Job, JobId, Stage, StageKind};

/// JSON strings parse in linear time. A parser that re-validates the rest
/// of the input for every character is quadratic and takes minutes on this
/// 4 MB document; the linear one takes milliseconds even in a debug build.
#[test]
fn long_json_strings_parse_in_linear_time() {
    let body = "ab\u{e9}\u{1F600}xyz".repeat(200_000);
    let text = format!("[\"{body}\", \"a\\\"b\\u00e9\\\\{body}\"]");
    assert!(text.len() > 4_000_000);
    // lint:allow(L3) -- the test measures the parser's wall time
    let started = std::time::Instant::now();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    let took = started.elapsed();
    assert_eq!(v[0].as_str(), Some(body.as_str()));
    let escaped = format!("a\"b\u{e9}\\{body}");
    assert_eq!(v[1].as_str(), Some(escaped.as_str()));
    assert!(
        took < std::time::Duration::from_secs(2),
        "parsing {} bytes took {took:?}",
        text.len()
    );
}

#[test]
fn cluster_serde_round_trip() {
    let c = tetrium::cluster::ec2_eight_regions();
    let json = serde_json::to_string(&c).unwrap();
    let back: Cluster = serde_json::from_str(&json).unwrap();
    assert_eq!(back, c);
    assert_eq!(back.total_slots(), c.total_slots());
}

#[test]
fn capacity_drop_serde_round_trip() {
    let d = DynamicsEvent::new(SiteId(3), 12.5, DynamicsChange::Capacity { keep: 0.6 });
    let json = serde_json::to_string(&d).unwrap();
    let back: DynamicsEvent = serde_json::from_str(&json).unwrap();
    assert_eq!(back, d);
}

#[test]
fn job_serde_preserves_key_skew() {
    let stages = vec![
        Stage::root_map(DataDistribution::new(vec![1.0, 3.0]), 4, 1.0, 0.5),
        Stage::reduce(vec![0], 4, 1.0, 0.1).with_task_weights(vec![4.0, 1.0, 1.0, 2.0]),
    ];
    let j = Job::new(JobId(7), "skewed", 2.5, stages);
    let back: Job = serde_json::from_str(&serde_json::to_string(&j).unwrap()).unwrap();
    assert_eq!(back.id, JobId(7));
    assert_eq!(back.stages[1].kind, StageKind::Reduce);
    assert!((back.stages[1].task_share(0) - 0.5).abs() < 1e-12);
    assert!(back.stages[1].task_skew_cv() > 0.0);
}

#[test]
fn data_placement_improves_the_bottleneck_estimate() {
    use tetrium::baselines::iridium_data_move;
    let input = DataDistribution::new(vec![5.0, 90.0, 5.0]);
    let up = [2.0, 0.1, 2.0];
    let down = [2.0, 2.0, 2.0];
    let before = input
        .as_slice()
        .iter()
        .zip(&up)
        .map(|(v, u)| v / u)
        .fold(0.0f64, f64::max);
    let (after_dist, moved) = iridium_data_move(&input, &up, &down, 0.5);
    let after = after_dist
        .as_slice()
        .iter()
        .zip(&up)
        .map(|(v, u)| v / u)
        .fold(0.0f64, f64::max);
    assert!(moved > 0.0);
    assert!(
        after < before,
        "bottleneck {after:.1} should drop from {before:.1}"
    );
}

#[test]
fn site_names_survive_degradation() {
    let s = Site::new("eu-west-1", 10, 1.0, 2.0);
    let d = DynamicsEvent::new(SiteId(0), 1.0, DynamicsChange::Capacity { keep: 0.75 });
    let g = d.target(&s);
    assert_eq!(g.name, "eu-west-1");
    assert_eq!(g.slots, 7);
}

#[test]
fn wan_knob_budget_endpoints_match_closed_forms() {
    use tetrium::core::wan::{reduce_min_wan, reduce_min_wan_lp, wan_budget, WanKnob};
    let shuffle = [4.0, 7.0, 1.0];
    let w_min = reduce_min_wan(&shuffle);
    assert!((w_min - reduce_min_wan_lp(&shuffle)).abs() < 1e-9);
    let total: f64 = shuffle.iter().sum();
    assert_eq!(wan_budget(WanKnob::new(0.0), w_min, total), w_min);
    assert_eq!(wan_budget(WanKnob::new(1.0), w_min, total), total);
}
