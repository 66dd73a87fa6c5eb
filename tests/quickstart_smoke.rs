//! Workspace smoke test: what the documented quickstart (the crate-docs
//! and README Exp2 block, run as doctests) does not show — the update
//! that reaches the collector is a pure community change, and the lab
//! run is deterministic.

use keep_communities_clean::sim::lab::{run_experiment, LabExperiment};
use keep_communities_clean::sim::VendorProfile;

#[test]
fn quickstart_update_is_a_pure_community_change() {
    // The delivered update must carry path attributes (it is an announce,
    // not a withdraw), and X1's RIB must hold the new community — the
    // community change, not a path change, is what propagated.
    let report = run_experiment(LabExperiment::Exp2, VendorProfile::CISCO_IOS);
    let captured = &report.at_collector[0];
    assert!(captured.update.attrs().is_some(), "collector saw a withdraw, expected an announce");
    assert!(report.x1_rib_changed, "X1's RIB must hold the changed community");
}

#[test]
fn quickstart_is_deterministic() {
    // Two runs of the documented quickstart must agree — the lab
    // experiments are fully deterministic.
    let a = run_experiment(LabExperiment::Exp2, VendorProfile::CISCO_IOS);
    let b = run_experiment(LabExperiment::Exp2, VendorProfile::CISCO_IOS);
    assert_eq!(a.at_collector.len(), b.at_collector.len());
    assert_eq!(a.duplicates_sent, b.duplicates_sent);
    assert_eq!(a.duplicates_suppressed, b.duplicates_suppressed);
}
