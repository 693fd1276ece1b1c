//! Golden-fingerprint regression gate for the crypto hot path.
//!
//! The batch rewrite of the share-scheme crypto (slice-wise GF(256),
//! block-wise ChaCha20, memoized key schedules) promises to change **not a
//! single output byte**: packages, protocol reports and therefore the
//! Monte-Carlo trial fingerprints must stay bit-identical. These constants
//! were recorded on the pre-refactor scalar implementation; any accidental
//! byte change in packaging or crypto — a reordered RNG draw, a different
//! HKDF label, a nonce derivation tweak — fails this suite loudly instead
//! of silently invalidating every recorded baseline.
//!
//! If a change is *supposed* to alter the wire format, re-record the
//! constants in the same commit and say so in the commit message.
//!
//! **Share format v2** (the flat segment table that replaced the nested
//! column bundles): re-pinned on all three substrates and confirmed
//! *unchanged*. The trial digest covers holder slots and the protocol
//! report — released secret/time, failure, adversary reconstruction,
//! message counts — and the flattening alters only the sealing topology
//! of the package, not one byte of delivered key material or one message
//! of executor behaviour (the `format_oracle` suite in
//! `emerge_core::protocol` proves v1 and v2 reports equal field by
//! field). A fingerprint change here after a packaging edit therefore
//! still means real protocol behaviour drifted.
//!
//! **One share pipeline.** The allocating share builder and executor were
//! later folded into the buffer-reusing ones, which became the only
//! implementation on every substrate. The constants above were unchanged
//! by it, and so were the faulted goldens ([`FAULTED_GOLDEN`]), recorded
//! with the allocating executor just before the fold: faulted share
//! trials switched executors there, and until then no constant pinned
//! them.

use self_emerging_data::contract::substrate::{ContractConfig, ContractSubstrate};
use self_emerging_data::core::config::SchemeParams;
use self_emerging_data::core::faults::run_faulted_trials;
use self_emerging_data::core::montecarlo::{run_protocol_trials, ProtocolTrialSpec};
use self_emerging_data::core::protocol::AttackMode;
use self_emerging_data::core::substrate::{AnalyticSubstrate, Overlay, OverlayConfig};
use self_emerging_data::faults::{FaultPlan, RecoveryPolicy, Scenario};
use self_emerging_data::sim::time::SimDuration;

const SEED: u64 = 0x601D;
const TRIALS: usize = 6;

fn world_config() -> OverlayConfig {
    OverlayConfig {
        n_nodes: 150,
        malicious_fraction: 0.4,
        mean_lifetime: Some(10_000),
        horizon: 100_000,
        ..OverlayConfig::default()
    }
}

fn spec(params: SchemeParams, attack: AttackMode) -> ProtocolTrialSpec {
    ProtocolTrialSpec {
        params,
        emerging_period: SimDuration::from_ticks(3_000),
        attack,
    }
}

/// The four schemes, each under the attack mode that exercises the most
/// crypto (release-ahead does real adversarial reconstruction).
fn cells() -> Vec<(&'static str, ProtocolTrialSpec)> {
    vec![
        (
            "central",
            spec(SchemeParams::Central, AttackMode::ReleaseAhead),
        ),
        (
            "disjoint_3x4",
            spec(
                SchemeParams::Disjoint { k: 3, l: 4 },
                AttackMode::ReleaseAhead,
            ),
        ),
        (
            "joint_3x4",
            spec(SchemeParams::Joint { k: 3, l: 4 }, AttackMode::ReleaseAhead),
        ),
        (
            "share_6x4",
            spec(
                SchemeParams::Share {
                    k: 2,
                    l: 4,
                    n: 6,
                    m: vec![3, 3, 4],
                },
                AttackMode::ReleaseAhead,
            ),
        ),
    ]
}

/// `(cell, analytic fingerprint)` recorded on the pre-refactor scalar
/// crypto implementation. The other substrates must agree exactly.
const GOLDEN: [(&str, u64); 4] = [
    ("central", 0xf797fb5bccacbd79),
    ("disjoint_3x4", 0x201cca94b1bc19ef),
    ("joint_3x4", 0x351113e1538c07ec),
    ("share_6x4", 0x5ba8a8bfb3db9121),
];

#[test]
fn analytic_fingerprints_match_golden() {
    for (name, spec) in cells() {
        let r = run_protocol_trials(&spec, TRIALS, SEED, |s| {
            AnalyticSubstrate::build(world_config(), s)
        })
        .unwrap();
        let (_, expected) = GOLDEN
            .iter()
            .find(|(n, _)| *n == name)
            .expect("every cell has a golden entry");
        assert_eq!(
            r.fingerprint, *expected,
            "{name}: fingerprint {:#018x} != golden {:#018x} — a crypto or \
             packaging byte changed",
            r.fingerprint, expected
        );
    }
}

#[test]
fn overlay_fingerprints_match_golden() {
    for (name, spec) in cells() {
        let r = run_protocol_trials(&spec, TRIALS, SEED, |s| Overlay::build(world_config(), s))
            .unwrap();
        let (_, expected) = GOLDEN.iter().find(|(n, _)| *n == name).unwrap();
        assert_eq!(
            r.fingerprint, *expected,
            "{name}: overlay fingerprint diverged from golden"
        );
    }
}

#[test]
fn contract_fingerprints_match_golden() {
    for (name, spec) in cells() {
        let r = run_protocol_trials(&spec, TRIALS, SEED, |s| {
            ContractSubstrate::build(ContractConfig::over(world_config()), s)
        })
        .unwrap();
        let (_, expected) = GOLDEN.iter().find(|(n, _)| *n == name).unwrap();
        assert_eq!(
            r.fingerprint, *expected,
            "{name}: contract fingerprint diverged from golden"
        );
    }
}

/// Fault plans of the faulted goldens: intensity, plan horizon (the
/// 3 000-tick emerging period plus headroom) and plan seed.
fn faulted_plan(scenario: Scenario) -> FaultPlan {
    scenario.plan(400_000, 4_000, 7)
}

/// `(scenario, cell, base fingerprint, fault fingerprint)` of faulted
/// runs, recorded with the allocating share executor before the pooled
/// executor replaced it. The fault suites only compare runs with each
/// other, so these are the constants that pin faulted share trials. The
/// analytic and contract substrates must both reproduce them.
const FAULTED_GOLDEN: [(Scenario, &str, u64, u64); 4] = [
    (
        Scenario::CrashStorm,
        "share_6x4",
        0xe6da2d2bc2319deb,
        0xe447939d5e1986cc,
    ),
    (
        Scenario::CrashStorm,
        "joint_3x4",
        0x351113e1538c07ec,
        0x0056c5eab1409dd2,
    ),
    (
        Scenario::LossBurst,
        "share_6x4",
        0x2420ba268959cd52,
        0x721bd0eae4f232b5,
    ),
    (
        Scenario::LossBurst,
        "joint_3x4",
        0x351113e1538c07ec,
        0x2f799533e448eab8,
    ),
];

#[test]
fn faulted_fingerprints_match_golden() {
    let policy = RecoveryPolicy::default();
    for (scenario, name, base, fault) in FAULTED_GOLDEN {
        let (_, spec) = cells()
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("every faulted golden names a cell");
        let plan = faulted_plan(scenario);
        let analytic = run_faulted_trials(&spec, &plan, policy, TRIALS, SEED, |s| {
            AnalyticSubstrate::build(world_config(), s)
        })
        .unwrap();
        let contract = run_faulted_trials(&spec, &plan, policy, TRIALS, SEED, |s| {
            ContractSubstrate::build(ContractConfig::over(world_config()), s)
        })
        .unwrap();
        for (substrate, r) in [("analytic", analytic), ("contract", contract)] {
            assert_eq!(
                (r.base.fingerprint, r.fault_fingerprint),
                (base, fault),
                "{scenario:?} {name} on {substrate}: faulted fingerprints \
                 diverged from golden"
            );
        }
    }
}
