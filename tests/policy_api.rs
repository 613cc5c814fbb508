//! Admission-policy API acceptance tests.
//!
//! * **Open registry end-to-end** — the two adaptive-CAC additions
//!   (weighted fair share, threshold reservation) run through a TOML
//!   policy axis exactly the way a user would write one.
//! * **Constructor hygiene** — `Fcfs { max_concurrent: Some(0) }` is an
//!   error, not a scheduler that silently never grants.

use wcdma::admission::{Fcfs, PolicyRegistry};
use wcdma::sim::campaign::{run_spec, ScenarioSpec};
use wcdma::sim::SimConfig;

#[test]
fn new_registry_policies_run_end_to_end_from_a_toml_policy_axis() {
    // A campaign file the way a user would write one, naming both
    // adaptive-CAC additions (one with an explicit parameter).
    let text = "\
name = \"adaptive-cac\"
description = \"registry-only policies end-to-end\"
seed = 99
replications = 2
duration_s = 4.0
warmup_s = 1.0

[matrix]
mix = [\"balanced\"]
speed = [\"pedestrian\"]
policy = [\"weighted-fair-share\", \"threshold-reservation:margin=0.4\"]
";
    let spec = ScenarioSpec::parse(text).expect("spec parses");
    assert_eq!(spec.n_scenarios(), 2);
    let result = run_spec(&spec, 2).expect("campaign runs");
    assert_eq!(result.scenarios.len(), 2);
    for sr in &result.scenarios {
        assert!(
            sr.stats.bursts_completed.sum() > 0.0,
            "{}: the new policy must actually move bits",
            sr.scenario.label
        );
    }
    assert!(result.scenarios[0]
        .scenario
        .label
        .contains("policy=weighted-fair-share"));
    assert!(result.scenarios[1]
        .scenario
        .label
        .contains("policy=threshold-reservation:margin=0.4"));
}

#[test]
fn fcfs_zero_cap_regression() {
    // Constructor path: a plain error.
    let err = Fcfs::new(Some(0)).expect_err("Some(0) must be rejected");
    assert!(err.contains("max_concurrent"), "{err}");
    // Registry path: the error propagates with the policy name attached.
    let err = PolicyRegistry::standard()
        .resolve("fcfs:max_concurrent=0")
        .expect_err("registry must reject the zero cap");
    assert!(
        err.contains("fcfs") && err.contains("max_concurrent"),
        "{err}"
    );
    // Valid caps still construct.
    assert!(Fcfs::new(Some(1)).is_ok() && Fcfs::new(None).is_ok());
}

#[test]
fn registry_policies_are_schedulable_objects() {
    // Every standard registry entry resolves to a policy the scheduler
    // accepts and that survives a (short) end-to-end run.
    let registry = PolicyRegistry::standard();
    let mut cfg = SimConfig::baseline();
    cfg.n_voice = 6;
    cfg.n_data = 3;
    cfg.duration_s = 3.0;
    cfg.warmup_s = 1.0;
    for name in registry.names() {
        let policy = registry.resolve(name).expect(name);
        let report = wcdma::sim::Simulation::new(cfg.with_policy(policy)).run();
        assert!(
            report.bursts_completed > 0,
            "{name}: 3 web users over 2 s must complete bursts"
        );
    }
}
