//! Thread-backed driver for the sharded wire-protocol Monte-Carlo.
//!
//! `emerge_core::montecarlo` provides the substrate-generic machinery:
//! [`run_protocol_trial_range`] runs a contiguous range of independently
//! seeded trials and [`shard_ranges`] partitions a batch into such
//! ranges. This module spreads the ranges over OS threads via
//! [`parallel_map_workers`] and merges the partial results in shard
//! order.
//!
//! Because every trial draws from its own `"protocol-trial"` RNG stream
//! keyed by the *global* trial index, the merged result is bit-identical
//! to a serial [`run_protocol_trials`](emerge_core::montecarlo::run_protocol_trials) run — same rates, same
//! fingerprint — for any thread count. Threads change wall-clock time
//! only; `tests/sharded_montecarlo.rs` pins this down.
//!
//! Thread count: `EMERGE_MC_THREADS` if set, else the machine's available
//! parallelism (see [`mc_threads`]).

use crate::parallel::{mc_threads, parallel_map_workers};
use crate::profile::collected;
use emerge_contract::error::ContractError;
use emerge_contract::mc::{
    run_bonded_trial_range, run_bonded_trial_range_faulted, BondedMcResults, FaultyBondedMcResults,
};
use emerge_contract::release::BondedSpec;
use emerge_contract::substrate::ContractSubstrate;
use emerge_core::error::EmergeError;
use emerge_core::faults::{run_faulted_trial_range, FaultyMcResults};
use emerge_core::montecarlo::{
    run_protocol_trial_range, shard_ranges, ProtocolMcResults, ProtocolTrialSpec,
};
use emerge_core::substrate::HolderSubstrate;
use emerge_faults::{FaultPlan, RecoveryPolicy};
use emerge_obs::MetricsSnapshot;

/// Merges per-shard `(result, telemetry)` pairs in shard order: results
/// through `merge`, telemetry through [`MetricsSnapshot::merge`] (both
/// associative, so the outcome is shard-count-independent for the
/// counter-valued parts).
fn merge_profiled<P, M, E>(
    partials: Vec<(Result<P, E>, MetricsSnapshot)>,
    mut results: M,
    merge: impl Fn(&mut M, &P),
) -> Result<(M, MetricsSnapshot), E> {
    let mut telemetry = MetricsSnapshot::default();
    for (partial, snapshot) in partials {
        merge(&mut results, &partial?);
        telemetry.merge(&snapshot);
    }
    Ok((results, telemetry))
}

/// Runs `trials` wire-protocol trials of `spec` across `threads` worker
/// threads (one contiguous trial range per shard), merging the partial
/// results in shard order.
///
/// Bit-identical to the serial [`run_protocol_trials`](emerge_core::montecarlo::run_protocol_trials) on the
/// counter-valued fields and the fingerprint, for any `threads` value.
/// Unlike the sequential sharded runner, the substrate factory is shared
/// across workers, so it must be `Fn + Sync` (build worlds from the
/// per-trial world seed it receives, not from mutable state).
///
/// # Errors
///
/// Propagates the first shard failure in shard order, e.g.
/// [`EmergeError::InsufficientNodes`] when the structure does not fit the
/// factory's worlds.
pub fn run_protocol_trials_threaded<S, F>(
    spec: &ProtocolTrialSpec,
    trials: usize,
    seed: u64,
    threads: usize,
    substrate_factory: F,
) -> Result<ProtocolMcResults, EmergeError>
where
    S: HolderSubstrate,
    F: Fn(u64) -> S + Sync,
{
    let ranges = shard_ranges(trials, threads);
    let partials = parallel_map_workers(&ranges, threads, |&(first_trial, count)| {
        run_protocol_trial_range(spec, first_trial, count, seed, &substrate_factory)
    });
    let mut results = ProtocolMcResults::default();
    for partial in partials {
        results.merge(&partial?);
    }
    Ok(results)
}

/// [`run_protocol_trials_threaded`] with the thread count taken from the
/// environment ([`mc_threads`]: `EMERGE_MC_THREADS`, defaulting to the
/// available parallelism).
///
/// # Errors
///
/// See [`run_protocol_trials_threaded`].
pub fn run_protocol_trials_parallel<S, F>(
    spec: &ProtocolTrialSpec,
    trials: usize,
    seed: u64,
    substrate_factory: F,
) -> Result<ProtocolMcResults, EmergeError>
where
    S: HolderSubstrate,
    F: Fn(u64) -> S + Sync,
{
    run_protocol_trials_threaded(spec, trials, seed, mc_threads(), substrate_factory)
}

/// Profiled form of [`run_protocol_trials_threaded`]: every worker shard
/// runs under its own fresh `emerge-obs` collector (installed on the
/// worker thread, or save/restored around the caller's collector when
/// `threads <= 1` runs inline), and the per-shard telemetry snapshots
/// merge in shard order next to the results. The trial outcomes stay
/// bit-identical to the unprofiled runner; the second return value adds
/// the span/counter telemetry the trial pipeline recorded.
///
/// # Errors
///
/// See [`run_protocol_trials_threaded`].
pub fn run_protocol_trials_profiled<S, F>(
    spec: &ProtocolTrialSpec,
    trials: usize,
    seed: u64,
    threads: usize,
    substrate_factory: F,
) -> Result<(ProtocolMcResults, MetricsSnapshot), EmergeError>
where
    S: HolderSubstrate,
    F: Fn(u64) -> S + Sync,
{
    let ranges = shard_ranges(trials, threads);
    let partials = parallel_map_workers(&ranges, threads, |&(first_trial, count)| {
        collected(|| run_protocol_trial_range(spec, first_trial, count, seed, &substrate_factory))
    });
    merge_profiled(partials, ProtocolMcResults::default(), |acc, p| {
        acc.merge(p);
    })
}

/// Faulted form of [`run_protocol_trials_profiled`]: every trial runs
/// behind a [`FaultySubstrate`](emerge_core::faults::FaultySubstrate)
/// wrapper armed from `plan` and recovering under `policy`, across
/// `threads` worker shards with per-worker collectors. Bit-identical to
/// the serial [`run_faulted_trials`](emerge_core::faults::run_faulted_trials)
/// on every counter-valued field and both fingerprints, for any thread
/// count — faults are pure functions of `(plan, world seed)`, never of
/// scheduling.
///
/// # Errors
///
/// See [`run_protocol_trials_threaded`].
pub fn run_faulted_trials_profiled<S, F>(
    spec: &ProtocolTrialSpec,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    trials: usize,
    seed: u64,
    threads: usize,
    substrate_factory: F,
) -> Result<(FaultyMcResults, MetricsSnapshot), EmergeError>
where
    S: HolderSubstrate,
    F: Fn(u64) -> S + Sync,
{
    let ranges = shard_ranges(trials, threads);
    let partials = parallel_map_workers(&ranges, threads, |&(first_trial, count)| {
        collected(|| {
            run_faulted_trial_range(
                spec,
                plan,
                policy,
                first_trial,
                count,
                seed,
                &substrate_factory,
            )
        })
    });
    merge_profiled(partials, FaultyMcResults::default(), |acc, p| {
        acc.merge(p);
    })
}

/// Faulted form of [`run_bonded_trials_profiled`]: each bonded trial's
/// holder actions pass through a [`FaultInjector`](emerge_faults::FaultInjector)
/// armed from `plan` (crashes become slashing withholds, block-clock skew
/// can push reveals out of their window). Per-worker collectors, shard
/// order merges, bit-identical partials for any thread count.
///
/// # Errors
///
/// See [`run_bonded_trials_threaded`].
pub fn run_bonded_faulted_trials_profiled<F>(
    spec: &BondedSpec,
    plan: &FaultPlan,
    trials: usize,
    seed: u64,
    threads: usize,
    substrate_factory: F,
) -> Result<(FaultyBondedMcResults, MetricsSnapshot), ContractError>
where
    F: Fn(u64) -> ContractSubstrate + Sync,
{
    let ranges = shard_ranges(trials, threads);
    let partials = parallel_map_workers(&ranges, threads, |&(first_trial, count)| {
        collected(|| {
            run_bonded_trial_range_faulted(spec, plan, first_trial, count, seed, &substrate_factory)
        })
    });
    merge_profiled(partials, FaultyBondedMcResults::default(), |acc, p| {
        acc.merge(p);
    })
}

/// Runs `trials` bonded-release trials (the contract-native emergence
/// mode) across `threads` worker threads, one contiguous trial range per
/// shard, merging the partials in shard order.
///
/// Bit-identical to the serial
/// [`run_bonded_trials`](emerge_contract::mc::run_bonded_trials) on the
/// counter-valued fields and the fingerprint, for any `threads` value —
/// the same guarantee the wire-protocol driver gives, extended to the
/// contract substrate's native mode.
///
/// # Errors
///
/// Propagates the first shard failure in shard order.
pub fn run_bonded_trials_threaded<F>(
    spec: &BondedSpec,
    trials: usize,
    seed: u64,
    threads: usize,
    substrate_factory: F,
) -> Result<BondedMcResults, ContractError>
where
    F: Fn(u64) -> ContractSubstrate + Sync,
{
    let ranges = shard_ranges(trials, threads);
    let partials = parallel_map_workers(&ranges, threads, |&(first_trial, count)| {
        run_bonded_trial_range(spec, first_trial, count, seed, &substrate_factory)
    });
    let mut results = BondedMcResults::default();
    for partial in partials {
        results.merge(&partial?);
    }
    Ok(results)
}

/// Profiled form of [`run_bonded_trials_threaded`]: per-worker
/// collectors, telemetry merged in shard order — the bonded engine's
/// spans plus the contract's transition-event counters land in the
/// returned snapshot.
///
/// # Errors
///
/// See [`run_bonded_trials_threaded`].
pub fn run_bonded_trials_profiled<F>(
    spec: &BondedSpec,
    trials: usize,
    seed: u64,
    threads: usize,
    substrate_factory: F,
) -> Result<(BondedMcResults, MetricsSnapshot), ContractError>
where
    F: Fn(u64) -> ContractSubstrate + Sync,
{
    let ranges = shard_ranges(trials, threads);
    let partials = parallel_map_workers(&ranges, threads, |&(first_trial, count)| {
        collected(|| run_bonded_trial_range(spec, first_trial, count, seed, &substrate_factory))
    });
    merge_profiled(partials, BondedMcResults::default(), |acc, p| {
        acc.merge(p);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerge_core::config::SchemeParams;
    use emerge_core::montecarlo::run_protocol_trials;
    use emerge_core::protocol::AttackMode;
    use emerge_core::substrate::{AnalyticSubstrate, OverlayConfig};
    use emerge_sim::time::SimDuration;

    fn spec(params: SchemeParams) -> ProtocolTrialSpec {
        ProtocolTrialSpec {
            params,
            emerging_period: SimDuration::from_ticks(3_000),
            attack: AttackMode::ReleaseAhead,
        }
    }

    fn factory(s: u64) -> AnalyticSubstrate {
        AnalyticSubstrate::build(
            OverlayConfig {
                n_nodes: 120,
                malicious_fraction: 0.3,
                ..OverlayConfig::default()
            },
            s,
        )
    }

    #[test]
    fn threaded_runs_match_serial_for_any_thread_count() {
        let spec = spec(SchemeParams::Joint { k: 2, l: 3 });
        let serial = run_protocol_trials(&spec, 12, 5, factory).unwrap();
        for threads in [1usize, 2, 3, 8] {
            let threaded = run_protocol_trials_threaded(&spec, 12, 5, threads, factory).unwrap();
            assert_eq!(
                threaded.fingerprint, serial.fingerprint,
                "{threads} threads"
            );
            assert_eq!(threaded.released, serial.released);
            assert_eq!(threaded.clean, serial.clean);
            assert_eq!(threaded.reconstructed_early, serial.reconstructed_early);
            assert_eq!(threaded.messages.count(), serial.messages.count());
        }
    }

    #[test]
    fn profiled_runs_match_serial_and_capture_phase_telemetry() {
        let spec = spec(SchemeParams::Share {
            k: 2,
            l: 3,
            n: 6,
            m: vec![3, 3],
        });
        let serial = run_protocol_trials(&spec, 12, 5, factory).unwrap();
        for threads in [1usize, 3] {
            let (profiled, telemetry) =
                run_protocol_trials_profiled(&spec, 12, 5, threads, factory).unwrap();
            assert_eq!(
                profiled.fingerprint, serial.fingerprint,
                "{threads} threads"
            );
            // One span per pipeline phase per trial, merged across shards.
            assert_eq!(telemetry.counter("trial.execute.calls"), Some(12));
            assert_eq!(telemetry.counter("trial.world_rebuild.calls"), Some(12));
            assert_eq!(telemetry.counter("trial.paths.calls"), Some(12));
            assert_eq!(telemetry.counter("trial.package_build.calls"), Some(12));
            // The tracked seal-volume counter attributes to the build phase.
            let sealed = telemetry
                .counter("trial.package_build.sealed_bytes")
                .unwrap_or(0);
            assert!(sealed > 0, "package build seals AEAD bytes");
            assert_eq!(telemetry.counter("package.seal.bytes"), Some(sealed));
        }
    }

    #[test]
    fn threaded_runs_propagate_errors() {
        let spec = spec(SchemeParams::Joint { k: 20, l: 20 });
        let err = run_protocol_trials_threaded(&spec, 4, 1, 2, factory).unwrap_err();
        assert!(matches!(err, EmergeError::InsufficientNodes { .. }));
    }

    #[test]
    fn env_driven_entry_point_agrees_with_serial() {
        let spec = spec(SchemeParams::Central);
        let serial = run_protocol_trials(&spec, 6, 2, factory).unwrap();
        let auto = run_protocol_trials_parallel(&spec, 6, 2, factory).unwrap();
        assert_eq!(auto.fingerprint, serial.fingerprint);
    }

    #[test]
    fn threaded_faulted_runs_match_serial_for_any_thread_count() {
        use emerge_core::faults::run_faulted_trials;
        use emerge_faults::Scenario;

        let spec = spec(SchemeParams::Share {
            k: 2,
            l: 3,
            n: 6,
            m: vec![3, 3],
        });
        // The plan horizon tracks the protocol's active window (the
        // 3k-tick emerging period plus headroom), not the world horizon.
        let plan = Scenario::CrashStorm.plan(300_000, 4_000, 7);
        let policy = RecoveryPolicy::default();
        let serial = run_faulted_trials(&spec, &plan, policy, 12, 5, factory).unwrap();
        for threads in [1usize, 2, 3, 8] {
            let (threaded, _telemetry) =
                run_faulted_trials_profiled(&spec, &plan, policy, 12, 5, threads, factory).unwrap();
            assert_eq!(
                threaded.base.fingerprint, serial.base.fingerprint,
                "{threads} threads"
            );
            assert_eq!(
                threaded.fault_fingerprint, serial.fault_fingerprint,
                "{threads} threads fault fingerprint"
            );
            assert_eq!(threaded.degraded, serial.degraded);
            assert_eq!(threaded.clean_of_faults, serial.clean_of_faults);
            assert_eq!(threaded.disrupted, serial.disrupted);
        }
        assert!(
            serial.disrupted.successes() > 0,
            "the storm must actually disrupt"
        );
    }

    #[test]
    fn threaded_bonded_runs_match_serial_for_any_thread_count() {
        use emerge_contract::mc::run_bonded_trials;
        use emerge_contract::substrate::ContractConfig;
        use emerge_sim::time::SimDuration;

        let spec = BondedSpec::new(6, 4, SimDuration::from_ticks(1_000));
        let contract_factory = |s| {
            ContractSubstrate::build(
                ContractConfig::over(OverlayConfig {
                    n_nodes: 100,
                    malicious_fraction: 0.4,
                    ..OverlayConfig::default()
                }),
                s,
            )
        };
        let serial = run_bonded_trials(&spec, 11, 3, contract_factory).unwrap();
        for threads in [1usize, 2, 5, 11] {
            let threaded =
                run_bonded_trials_threaded(&spec, 11, 3, threads, contract_factory).unwrap();
            assert_eq!(
                threaded.fingerprint, serial.fingerprint,
                "{threads} threads"
            );
            assert_eq!(threaded.released, serial.released);
            assert_eq!(threaded.clean, serial.clean);
            assert_eq!(threaded.slashed.count(), serial.slashed.count());
        }
    }
}
