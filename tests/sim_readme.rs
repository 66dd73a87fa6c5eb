//! Enforces the README's "Internet-scale simulation" example: the code
//! block below mirrors it verbatim, so renaming the API without updating
//! the README fails here first. The section's scaling table and
//! reproduction commands are checked with the other committed-figure
//! tables in `tests/performance_readme.rs`.

use keep_communities_clean::sim::{Network, SimConfig, SimTime};
use keep_communities_clean::topology::gen::BEACON_ORIGIN_ASN;
use keep_communities_clean::topology::{generate_internet, InternetConfig, RouterId};
use keep_communities_clean::types::Asn;

/// The README example, compiled and run at a size small enough for a
/// debug-profile test (the API is identical; only `sized`'s argument
/// differs from the documented 10,000).
#[test]
fn readme_internet_example_runs_and_converges() {
    let topo = generate_internet(&InternetConfig::sized(600, 42));
    let mut net = Network::from_topology(&topo, SimConfig::default());

    let (collector, _) = net.attach_collector(
        Asn(3333),
        &[RouterId { asn: Asn(20_000), index: 0 }, RouterId { asn: Asn(20_001), index: 0 }],
    );

    let origin = RouterId { asn: BEACON_ORIGIN_ASN, index: 0 };
    net.schedule_announce(SimTime::ZERO, origin, "84.205.64.0/24".parse().unwrap());
    let quiet_at = net.run_until_quiet();

    assert!(quiet_at > SimTime::ZERO, "convergence takes simulated time");
    assert!(net.stats.events_processed > 0);
    let capture = net.capture(collector).expect("collector records");
    assert!(!capture.entries().is_empty(), "beacon announcement reaches the collector");
    assert!(net.attr_store().bytes() > 0, "converged RIBs hold interned attributes");
}
