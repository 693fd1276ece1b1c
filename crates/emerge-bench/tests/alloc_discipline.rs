//! Steady-state allocation discipline of the share trial pipeline.
//!
//! Every share trial runs through one `TrialWorkspace`-backed trial body,
//! which promises that after a warm-up every trial runs without touching
//! the allocator. This test installs a counting `#[global_allocator]`
//! shim (legal here: integration tests are their own crate roots) and
//! asserts the promise literally: a second, identical pass over the
//! share_8x3 analytic cell on a re-seeded substrate performs **zero**
//! heap allocations.
//!
//! Warm-up is an identical pass over the same trial range, so every
//! pooled buffer reaches the exact capacity the measured pass needs —
//! the same steady state a bench shard reaches after its first trials.
//!
//! The same counter gates fresh world builds: a dropped substrate parks
//! its buffers on its thread, so a warm `build` + drop of either the
//! analytic or the contract substrate allocates nothing either. Together
//! they make the factory-driven range runner (a fresh world per trial, a
//! fresh workspace per call) allocate per call, never per trial.
//!
//! The counter is process-wide, so the tests take [`serial`] to keep one
//! test's warm-up out of another's measured window.

use emerge_core::config::SchemeParams;
use emerge_core::montecarlo::{
    run_protocol_trial_range, run_protocol_trial_range_pooled, ProtocolMcResults,
    ProtocolTrialSpec, TrialWorkspace,
};
use emerge_core::protocol::AttackMode;
use emerge_core::substrate::{AnalyticSubstrate, ContractConfig, ContractSubstrate, OverlayConfig};
use emerge_obs::collector::{install, take};
use emerge_obs::Collector;
use emerge_sim::time::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Counts every allocation-path call (alloc, alloc_zeroed, realloc);
/// frees are uncounted — releasing warm capacity is not the regression
/// this test guards against, acquiring it per trial is.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Runs the tests of this file one at a time (a failed test's poisoned
/// lock still serializes the rest).
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The share cells' world: 2 000 slots with churn.
fn world_config() -> OverlayConfig {
    OverlayConfig {
        n_nodes: 2_000,
        malicious_fraction: 0.2,
        mean_lifetime: Some(40_000),
        horizon: 200_000,
        ..OverlayConfig::default()
    }
}

/// The CI-sized share cell.
fn share_8x3() -> ProtocolTrialSpec {
    ProtocolTrialSpec {
        params: SchemeParams::Share {
            k: 2,
            l: 3,
            n: 8,
            m: vec![4, 4],
        },
        emerging_period: SimDuration::from_ticks(8_000),
        attack: AttackMode::ReleaseAhead,
    }
}

/// Allocations made by `f`.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn warm_world_builds_allocate_nothing() {
    let _serial = serial();
    let contract = ContractConfig::over(world_config());
    // Warm-up: the first builds on this thread allocate the world and
    // the ledger that every later build and drop recycles.
    drop(AnalyticSubstrate::build(world_config(), 1));
    drop(ContractSubstrate::build(contract, 1));

    for seed in [2u64, 3] {
        let analytic = allocations_of(|| drop(AnalyticSubstrate::build(world_config(), seed)));
        assert_eq!(
            analytic, 0,
            "a warm AnalyticSubstrate::build + drop must not touch the \
             allocator ({analytic} allocation(s), seed {seed})"
        );
        let contract = allocations_of(|| drop(ContractSubstrate::build(contract, seed)));
        assert_eq!(
            contract, 0,
            "a warm ContractSubstrate::build + drop must not touch the \
             allocator ({contract} allocation(s), seed {seed})"
        );
    }
}

/// Allocations of one factory-driven range call over trials `[0, 8)`
/// and over `[0, 32)`. Two warm-up calls come first, as in the pooled
/// tests below: the first parks a world on this thread and fills its
/// timeline pool, the second tops up the pooled timeline capacities under
/// the pool's stationary hand-out cycle.
fn factory_call_allocations<S>(factory: impl Fn(u64) -> S + Copy) -> (u64, u64)
where
    S: emerge_core::substrate::HolderSubstrate,
{
    let spec = share_8x3();
    let run = |count| {
        run_protocol_trial_range(&spec, 0, count, 0xB45E, factory).expect("share trials");
    };
    run(32);
    run(32);
    (allocations_of(|| run(8)), allocations_of(|| run(32)))
}

/// The factory-driven runner builds a fresh world per trial and a fresh
/// workspace per call. Warm builds reuse the dropped world's buffers and
/// the workspace is warm after a call's first trial, so a call costs the
/// same allocations for 8 trials as for 32: a steady-state trial costs
/// zero, without a `reseed` closure.
#[test]
fn factory_driven_share_trials_allocate_per_call_not_per_trial() {
    let _serial = serial();
    let contract = ContractConfig::over(world_config());
    for (substrate, (short, long)) in [
        (
            "analytic",
            factory_call_allocations(|s| AnalyticSubstrate::build(world_config(), s)),
        ),
        (
            "contract",
            factory_call_allocations(|s| ContractSubstrate::build(contract, s)),
        ),
    ] {
        assert_eq!(
            short, long,
            "{substrate}: a 32-trial call must allocate exactly as much as an \
             8-trial call ({short} vs {long} allocation(s))"
        );
    }
}

#[test]
fn steady_state_share_trials_allocate_nothing() {
    const TRIALS: usize = 20;
    let _serial = serial();
    let spec = share_8x3();
    let config = world_config();
    let mut substrate = AnalyticSubstrate::build(config, 0);
    let mut ws = TrialWorkspace::new();

    // Two warm-up passes: the first grows the workspace buffers and fills
    // the substrate's timeline pool; the second runs with the pool's
    // stationary hand-out cycle (a cold pool serves trials in a slightly
    // different order than a seeded one), topping up the last capacities.
    // From the third pass on, the buffer-demand mapping repeats exactly.
    let mut warm = ProtocolMcResults::default();
    for _ in 0..2 {
        warm = run_protocol_trial_range_pooled(
            &spec,
            0,
            TRIALS,
            0xB45E,
            &mut substrate,
            |s, seed| s.rebuild(seed),
            &mut ws,
        )
        .expect("warm-up trials");
    }

    // Measured pass: identical trials, zero allocations allowed.
    let before = ALLOCS.load(Ordering::SeqCst);
    let steady = run_protocol_trial_range_pooled(
        &spec,
        0,
        TRIALS,
        0xB45E,
        &mut substrate,
        |s, seed| s.rebuild(seed),
        &mut ws,
    )
    .expect("steady-state trials");
    let allocations = ALLOCS.load(Ordering::SeqCst) - before;

    assert_eq!(
        steady.fingerprint, warm.fingerprint,
        "the measured pass must rerun the exact warm-up trials"
    );
    assert_eq!(
        allocations, 0,
        "steady-state pooled trials must not touch the allocator \
         ({allocations} allocation(s) across {TRIALS} trials)"
    );
}

/// The same promise with telemetry enabled: an installed `emerge-obs`
/// collector records every phase span, counter increment and ring entry
/// into preallocated storage, so steady-state trials stay at zero
/// allocations even while fully instrumented. This is the property that
/// lets `montecarlo_baseline` run its profiled drivers unconditionally.
#[test]
fn steady_state_share_trials_allocate_nothing_with_metrics_enabled() {
    const TRIALS: usize = 20;
    let _serial = serial();
    let spec = share_8x3();
    let config = world_config();

    // The collector preallocates its registry and trace ring here, before
    // the measured window opens. (Thread-local, so the plain variant of
    // this test running on a sibling thread stays uninstrumented.)
    let previous = install(Collector::new());

    let mut substrate = AnalyticSubstrate::build(config, 0);
    let mut ws = TrialWorkspace::new();
    let mut warm = ProtocolMcResults::default();
    for _ in 0..2 {
        warm = run_protocol_trial_range_pooled(
            &spec,
            0,
            TRIALS,
            0xB45E,
            &mut substrate,
            |s, seed| s.rebuild(seed),
            &mut ws,
        )
        .expect("warm-up trials");
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    let steady = run_protocol_trial_range_pooled(
        &spec,
        0,
        TRIALS,
        0xB45E,
        &mut substrate,
        |s, seed| s.rebuild(seed),
        &mut ws,
    )
    .expect("steady-state trials");
    let allocations = ALLOCS.load(Ordering::SeqCst) - before;

    // The instrumentation actually fired during the measured window.
    let snapshot = take().expect("collector installed above").snapshot();
    if let Some(prev) = previous {
        install(prev);
    }
    assert_eq!(
        snapshot.counter("trial.execute.calls"),
        Some(3 * TRIALS as u64),
        "every pass's trials must be span-counted"
    );
    assert!(
        snapshot.counter("package.seal.bytes").unwrap_or(0) > 0,
        "seal volume must be metered"
    );

    assert_eq!(
        steady.fingerprint, warm.fingerprint,
        "the measured pass must rerun the exact warm-up trials"
    );
    assert_eq!(
        allocations, 0,
        "steady-state pooled trials with metrics enabled must not touch \
         the allocator ({allocations} allocation(s) across {TRIALS} trials)"
    );
}
