//! The two wire-protocol workloads.
//!
//! * `share_pooled`: `share_40x5_release_ahead` on a re-seeded
//!   `AnalyticSubstrate` through the pooled (zero-allocation) pipeline.
//! * `keyed_contract`: `joint_4x8_release_ahead` protocol trials
//!   alternating 1:1 with `bonded_24x16_rational` bonded trials, each on
//!   a freshly built `ContractSubstrate`, through the allocating runners.
//!
//! Both are closed loops on one thread: each trial is one call into the
//! program's range runner with a range of one trial, and the next call
//! starts when the previous one returns. A run cycles through a fixed set
//! of trials drawn from its seed, so every pass must reproduce the first
//! pass's digests and the serial reference covers one pass. The traced
//! run replays the same
//! trials through the layers' public functions instead of the runner,
//! with a span around each call; its per-trial digests must equal the
//! runner's, which proves the replay runs exactly the runner's trials.

use std::time::Instant;

use emerge_contract::economy::HolderStrategy;
use emerge_contract::mc::{run_bonded_trial_range, BondedMcResults};
use emerge_contract::release::{run_bonded_release, BondedReport, BondedSpec};
use emerge_contract::substrate::{ContractConfig, ContractSubstrate};
use emerge_core::config::SchemeParams;
use emerge_core::montecarlo::{
    run_protocol_trial_range, run_protocol_trial_range_pooled, ProtocolMcResults,
    ProtocolTrialSpec, TrialWorkspace,
};
use emerge_core::package::{
    build_keyed_packages, build_share_packages_into, take_sealed_byte_count, KeySchedule,
    PackageScratch, SharePackages,
};
use emerge_core::path::{construct_paths, construct_paths_into, PathPlan};
use emerge_core::protocol::{
    execute_keyed, execute_share_pooled, AttackMode, PooledRunReport, RunConfig, RunReport,
    ShareExecScratch,
};
use emerge_core::substrate::HolderSubstrate;
use emerge_crypto::keys::SymmetricKey;
use emerge_dht::analytic::AnalyticSubstrate;
use emerge_dht::overlay::OverlayConfig;
use emerge_obs::collector::{self, Collector};
use emerge_sim::rng::SeedSource;
use emerge_sim::shard::TrialDigest;
use emerge_sim::time::{SimDuration, SimTime};
use rand::RngCore;

use crate::metrics::EndToEnd;
use crate::trace::Tracer;

/// Population of every trial world (the paper's 10 000 nodes).
pub const POPULATION: usize = 10_000;
/// Trials per result batch (`figure_s` on the protocol workloads).
pub const BATCH_TRIALS: usize = 100;
/// Share trials in the set a run cycles through.
pub const SHARE_SET: usize = 256;
/// Joint and bonded trial pairs in the set a run cycles through.
pub const KEYED_SET: usize = 512;
/// Warm-up trials inside each set-up.
const WARMUP_TRIALS: usize = 12;
/// Warm-up trials use indices far above any measured trial, so they
/// share no input with the measured ones.
const WARMUP_BASE: usize = 1 << 40;

/// How long a closed loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until this many seconds have passed.
    Seconds(f64),
    /// Exactly this many trials (deterministic; used by the tests).
    Trials(usize),
}

impl Budget {
    /// Whether a loop that started at `start` and has run `done` trials
    /// goes on.
    pub fn more(self, start: Instant, done: usize) -> bool {
        match self {
            Budget::Seconds(s) => start.elapsed().as_secs_f64() < s,
            Budget::Trials(n) => done < n,
        }
    }

    /// The next block of at most `size` trials after `done`.
    pub fn block(self, done: usize, size: usize) -> Budget {
        match self {
            Budget::Seconds(_) => Budget::Trials(size),
            Budget::Trials(n) => Budget::Trials(size.min(n.saturating_sub(done))),
        }
    }
}

/// The world every protocol trial runs in (matches `montecarlo_baseline`).
pub fn world_config() -> OverlayConfig {
    OverlayConfig {
        n_nodes: POPULATION,
        malicious_fraction: 0.2,
        mean_lifetime: Some(40_000),
        horizon: 200_000,
        ..OverlayConfig::default()
    }
}

/// `share_40x5_release_ahead`.
pub fn share_spec() -> ProtocolTrialSpec {
    ProtocolTrialSpec {
        params: SchemeParams::Share {
            k: 3,
            l: 5,
            n: 40,
            m: vec![18, 18, 18, 20],
        },
        emerging_period: SimDuration::from_ticks(8_000),
        attack: AttackMode::ReleaseAhead,
    }
}

/// `joint_4x8_release_ahead`.
pub fn joint_spec() -> ProtocolTrialSpec {
    ProtocolTrialSpec {
        params: SchemeParams::Joint { k: 4, l: 8 },
        emerging_period: SimDuration::from_ticks(8_000),
        attack: AttackMode::ReleaseAhead,
    }
}

/// `bonded_24x16_rational`.
pub fn bonded_spec() -> BondedSpec {
    BondedSpec {
        n: 24,
        m: 16,
        emerging_period: SimDuration::from_ticks(8_000),
        reveal_window_blocks: 1,
        strategy: HolderStrategy::Rational {
            withhold_bribe: 100,
            early_reveal_bribe: 100,
        },
    }
}

fn contract_config() -> ContractConfig {
    ContractConfig::over(world_config())
}

/// One closed-loop run: per-trial digests of the first pass over the
/// trial set (one list per trial kind), per-call latencies and failures.
/// A loop can be resumed: it appends to the run and continues its trial
/// sequence where the previous call stopped.
#[derive(Debug, Default)]
pub struct LoopRun {
    /// First-pass digests of each trial kind, indexed by trial.
    pub digests: Vec<Vec<u64>>,
    /// Later-pass trials whose digest differs from the first pass's.
    pub repeat_mismatches: u64,
    /// Trials completed over all passes.
    pub completed: usize,
    /// Wall time of each one-trial call, milliseconds.
    pub call_ms: Vec<f64>,
    /// Calls that returned an error.
    pub failed: u64,
    /// Length of the loop, seconds.
    pub wall_s: f64,
}

impl LoopRun {
    fn new(kinds: usize) -> Self {
        LoopRun {
            digests: vec![Vec::new(); kinds],
            ..LoopRun::default()
        }
    }

    /// Trials completed.
    pub fn trials(&self) -> usize {
        self.completed
    }

    fn record(&mut self, kind: usize, idx: usize, digest: u64) {
        self.completed += 1;
        let first = &mut self.digests[kind];
        if idx == first.len() {
            first.push(digest);
        } else if first.get(idx) != Some(&digest) {
            self.repeat_mismatches += 1;
        }
    }

    /// Folds the run into the end-to-end samples.
    ///
    /// A unit is one call of each trial kind in turn (one share trial;
    /// one joint plus one bonded trial), so every unit does the same mix
    /// of work; the trial sample of a unit is its time over its trials.
    /// A median over single calls of different kinds would fall between
    /// the kinds' clusters instead.
    pub fn end_to_end(&self, setup_s: Vec<f64>, peak_rss_mb: f64) -> EndToEnd {
        let kinds = self.digests.len().max(1);
        let unit_ms: Vec<f64> = self
            .call_ms
            .chunks_exact(kinds)
            .map(|unit| unit.iter().sum())
            .collect();
        let figure_s = self
            .call_ms
            .chunks_exact(BATCH_TRIALS)
            .map(|batch| batch.iter().sum::<f64>() / 1e3)
            .collect();
        EndToEnd {
            trials: self.trials() as u64,
            wall_s: self.wall_s,
            trial_ms: unit_ms.iter().map(|ms| ms / kinds as f64).collect(),
            unit_ms,
            figure_s,
            setup_s,
            peak_rss_mb,
        }
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------- share

/// A warm pooled pipeline: the re-seedable world plus the workspace.
pub struct ShareRig {
    sub: AnalyticSubstrate,
    ws: TrialWorkspace,
}

fn rebuild(s: &mut AnalyticSubstrate, world_seed: u64) {
    s.rebuild(world_seed);
}

/// Builds the world and workspace and warms them with a few trials.
///
/// # Errors
///
/// A warm-up trial that fails.
pub fn share_setup(seed: u64) -> Result<ShareRig, String> {
    let mut sub = AnalyticSubstrate::build(world_config(), seed);
    let mut ws = TrialWorkspace::new();
    run_protocol_trial_range_pooled(
        &share_spec(),
        WARMUP_BASE,
        WARMUP_TRIALS,
        seed,
        &mut sub,
        rebuild,
        &mut ws,
    )
    .map_err(|e| format!("share warm-up: {e}"))?;
    Ok(ShareRig { sub, ws })
}

/// A new run of the share workload.
pub fn share_run() -> LoopRun {
    LoopRun::new(1)
}

/// The untraced share loop: one pooled range-runner call per trial,
/// appended to `run`.
pub fn share_loop(rig: &mut ShareRig, seed: u64, run: &mut LoopRun, budget: Budget) {
    let spec = share_spec();
    let start = Instant::now();
    let mut done = 0usize;
    while budget.more(start, done) {
        let idx = run.call_ms.len() % SHARE_SET;
        let (r, secs) = timed(|| {
            run_protocol_trial_range_pooled(&spec, idx, 1, seed, &mut rig.sub, rebuild, &mut rig.ws)
        });
        run.call_ms.push(secs * 1e3);
        match r {
            Ok(r) => run.record(0, idx, r.fingerprint),
            Err(_) => run.failed += 1,
        }
        done += 1;
    }
    run.wall_s += start.elapsed().as_secs_f64();
}

/// Counters the traced replay reads from the program.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    /// Share-packaging AEAD plaintext bytes (`take_sealed_byte_count`).
    pub sealed_bytes: u64,
    /// Messages the executors reported.
    pub messages: u64,
    /// `dht.analytic.resolves` read from the `emerge-obs` collector.
    pub resolves: u64,
}

/// Reusable buffers of the traced share replay (the pooled pipeline's
/// workspace, held by the benchmark so it can call each layer itself).
pub struct ReplayWs {
    plan: PathPlan,
    schedule: KeySchedule,
    packages: SharePackages,
    pkg_scratch: PackageScratch,
    exec_scratch: ShareExecScratch,
    report: PooledRunReport,
    secret: Vec<u8>,
}

impl Default for ReplayWs {
    fn default() -> Self {
        ReplayWs {
            plan: PathPlan::default(),
            schedule: KeySchedule::new(SymmetricKey::from_bytes([0u8; 32])),
            packages: SharePackages::default(),
            pkg_scratch: PackageScratch::new(),
            exec_scratch: ShareExecScratch::default(),
            report: PooledRunReport::default(),
            secret: Vec::new(),
        }
    }
}

/// Warms `ws` with a few replayed trials outside the measured range.
///
/// # Errors
///
/// The first layer call that fails.
pub fn share_replay_warm(rig: &mut ShareRig, ws: &mut ReplayWs, seed: u64) -> Result<(), String> {
    share_replay(
        rig,
        ws,
        seed,
        WARMUP_BASE,
        &mut share_run(),
        Budget::Trials(WARMUP_TRIALS),
        &mut Tracer::new(),
        &mut ReplayCounts::default(),
    )
}

/// The traced share replay: the pooled runner's trials from `first` on,
/// call for call, with a span around every layer call, appended to `run`
/// and `counts`.
///
/// # Errors
///
/// The first layer call that fails.
#[allow(clippy::too_many_arguments)]
pub fn share_replay(
    rig: &mut ShareRig,
    ws: &mut ReplayWs,
    seed: u64,
    first: usize,
    run: &mut LoopRun,
    budget: Budget,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) -> Result<(), String> {
    let spec = share_spec();
    let params = &spec.params;
    let seeds = SeedSource::new(seed);
    let sub = &mut rig.sub;

    collector::install(Collector::new());
    let start = Instant::now();
    let mut done = 0usize;
    while budget.more(start, done) {
        let idx = run.call_ms.len() % SHARE_SET;
        let t = (first + idx) as u64;
        let call = Instant::now();
        let trial = tracer.enter("trial");
        let mut trial_rng = seeds.stream_n("protocol-trial", t);
        let world_seed = trial_rng.next_u64();
        tracer.span("dht.rebuild", || sub.rebuild(world_seed));
        let sender_seed = SymmetricKey::generate(&mut trial_rng);
        ws.secret.clear();
        ws.secret
            .extend_from_slice(sender_seed.derive(b"message-secret-key").as_bytes());
        tracer
            .span("path.construct", || {
                construct_paths_into(&*sub, params, &sender_seed, &mut ws.plan)
            })
            .map_err(|e| e.to_string())?;
        let config = RunConfig {
            ts: sub.now(),
            emerging_period: spec.emerging_period,
            attack: spec.attack,
        };
        ws.schedule.reset(sender_seed);
        let _ = take_sealed_byte_count();
        tracer
            .span("package.build", || {
                build_share_packages_into(
                    &ws.plan,
                    params,
                    &ws.schedule,
                    &ws.secret,
                    &mut ws.packages,
                    &mut ws.pkg_scratch,
                )
            })
            .map_err(|e| e.to_string())?;
        counts.sealed_bytes += take_sealed_byte_count();
        tracer
            .span("protocol.execute", || {
                execute_share_pooled(
                    &mut *sub,
                    &ws.plan,
                    params,
                    &ws.packages,
                    &config,
                    &mut ws.exec_scratch,
                    &mut ws.report,
                )
            })
            .map_err(|e| e.to_string())?;
        counts.messages += ws.report.messages_sent;
        run.record(0, idx, pooled_digest(t, &ws.plan.slots, &ws.report));
        tracer.exit(trial);
        run.call_ms.push(call.elapsed().as_secs_f64() * 1e3);
        done += 1;
    }
    run.wall_s += start.elapsed().as_secs_f64();
    counts.resolves += take_resolves();
    Ok(())
}

fn take_resolves() -> u64 {
    collector::take()
        .and_then(|c| c.snapshot().counter("dht.analytic.resolves"))
        .unwrap_or(0)
}

fn eat_release(d: &mut TrialDigest, at: Option<SimTime>, secret: &[u8]) {
    match at {
        Some(at) => {
            d.eat(&[1]);
            d.eat(&at.ticks().to_le_bytes());
            d.eat(secret);
        }
        None => d.eat(&[0]),
    }
}

fn digest_head(trial: u64, slots: &[usize]) -> TrialDigest {
    let mut d = TrialDigest::new();
    d.eat(&trial.to_le_bytes());
    for &slot in slots {
        d.eat(&(slot as u64).to_le_bytes());
    }
    d
}

/// The protocol runner's per-trial digest over a pooled report (the
/// byte stream `emerge_core::montecarlo` feeds its fingerprint).
fn pooled_digest(trial: u64, slots: &[usize], report: &PooledRunReport) -> u64 {
    let mut d = digest_head(trial, slots);
    eat_release(&mut d, report.released_at, &report.released_secret);
    eat_release(&mut d, report.adversary_at, &report.adversary_secret);
    if let Some(reason) = report.failure {
        d.eat(reason.as_bytes());
    }
    d.eat(&report.messages_sent.to_le_bytes());
    d.finish()
}

/// The same digest over an allocating report.
fn report_digest(trial: u64, slots: &[usize], report: &RunReport) -> u64 {
    let mut d = digest_head(trial, slots);
    for field in [&report.released, &report.adversary_reconstruction] {
        match field {
            Some((at, secret)) => eat_release(&mut d, Some(*at), secret),
            None => d.eat(&[0]),
        }
    }
    if let Some(reason) = &report.failure {
        d.eat(reason.as_bytes());
    }
    d.eat(&report.messages_sent.to_le_bytes());
    d.finish()
}

/// The bonded runner's per-trial digest.
fn bonded_digest(trial: u64, report: &BondedReport) -> u64 {
    let mut d = digest_head(trial, &report.slots);
    for field in [&report.released, &report.early_leak] {
        match field {
            Some((at, secret)) => eat_release(&mut d, Some(*at), secret),
            None => d.eat(&[0]),
        }
    }
    if let Some(failure) = &report.failure {
        d.eat(failure.to_string().as_bytes());
    }
    for count in [report.on_time, report.early, report.withheld, report.died] {
        d.eat(&(count as u64).to_le_bytes());
    }
    d.eat(&report.slashed.to_le_bytes());
    d.eat(&report.rewards_paid.to_le_bytes());
    d.finish()
}

// ---------------------------------------------------------------- keyed

/// Warms the allocating joint and bonded runners on contract worlds.
///
/// # Errors
///
/// A warm-up trial that fails.
pub fn keyed_setup(seed: u64) -> Result<(), String> {
    let config = contract_config();
    run_protocol_trial_range(&joint_spec(), WARMUP_BASE, WARMUP_TRIALS, seed, |s| {
        ContractSubstrate::build(config, s)
    })
    .map_err(|e| format!("joint warm-up: {e}"))?;
    run_bonded_trial_range(&bonded_spec(), WARMUP_BASE, WARMUP_TRIALS, seed, |s| {
        ContractSubstrate::build(config, s)
    })
    .map_err(|e| format!("bonded warm-up: {e}"))?;
    Ok(())
}

/// A new run of the keyed workload.
pub fn keyed_run() -> LoopRun {
    LoopRun::new(2)
}

/// The untraced keyed loop: joint trial `i`, then bonded trial `i`, each
/// one call into its range runner, appended to `run`.
pub fn keyed_loop(seed: u64, run: &mut LoopRun, budget: Budget) {
    let (joint, bonded, config) = (joint_spec(), bonded_spec(), contract_config());
    let start = Instant::now();
    let mut done = 0usize;
    while budget.more(start, done) {
        let call = run.call_ms.len();
        let idx = (call / 2) % KEYED_SET;
        let (digest, secs) = if call.is_multiple_of(2) {
            let (r, secs) = timed(|| {
                run_protocol_trial_range(&joint, idx, 1, seed, |s| {
                    ContractSubstrate::build(config, s)
                })
            });
            (r.map(|r| r.fingerprint).map_err(|e| e.to_string()), secs)
        } else {
            let (r, secs) = timed(|| {
                run_bonded_trial_range(&bonded, idx, 1, seed, |s| {
                    ContractSubstrate::build(config, s)
                })
            });
            (r.map(|r| r.fingerprint).map_err(|e| e.to_string()), secs)
        };
        run.call_ms.push(secs * 1e3);
        match digest {
            Ok(d) => run.record(call % 2, idx, d),
            Err(_) => run.failed += 1,
        }
        done += 1;
    }
    run.wall_s += start.elapsed().as_secs_f64();
}

/// The traced keyed replay: the allocating joint and bonded runners'
/// trials, call for call, with a span around every layer call, appended
/// to `run` and `counts`.
///
/// # Errors
///
/// The first layer call that fails.
pub fn keyed_replay(
    seed: u64,
    run: &mut LoopRun,
    budget: Budget,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) -> Result<(), String> {
    let (joint, bonded, config) = (joint_spec(), bonded_spec(), contract_config());
    let (protocol_seeds, bonded_seeds) = (SeedSource::new(seed), SeedSource::new(seed));
    collector::install(Collector::new());
    let start = Instant::now();
    let mut done = 0usize;
    while budget.more(start, done) {
        let call_no = run.call_ms.len();
        let idx = (call_no / 2) % KEYED_SET;
        let t = idx as u64;
        let call = Instant::now();
        let trial = tracer.enter("trial");
        if call_no.is_multiple_of(2) {
            let mut trial_rng = protocol_seeds.stream_n("protocol-trial", t);
            let world_seed = trial_rng.next_u64();
            let mut sub = tracer.span("dht.rebuild", || {
                ContractSubstrate::build(config, world_seed)
            });
            let sender_seed = SymmetricKey::generate(&mut trial_rng);
            let secret = sender_seed
                .derive(b"message-secret-key")
                .as_bytes()
                .to_vec();
            let plan = tracer
                .span("path.construct", || {
                    construct_paths(&sub, &joint.params, &sender_seed)
                })
                .map_err(|e| e.to_string())?;
            let run_config = RunConfig {
                ts: HolderSubstrate::now(&sub),
                emerging_period: joint.emerging_period,
                attack: joint.attack,
            };
            let schedule = KeySchedule::new(sender_seed);
            let pkgs = tracer
                .span("package.build", || {
                    build_keyed_packages(&plan, &joint.params, &schedule, &secret)
                })
                .map_err(|e| e.to_string())?;
            let report = tracer
                .span("protocol.execute", || {
                    execute_keyed(&mut sub, &plan, &joint.params, &pkgs, &run_config)
                })
                .map_err(|e| e.to_string())?;
            counts.messages += report.messages_sent;
            run.record(0, idx, report_digest(t, &plan.slots, &report));
        } else {
            let mut trial_rng = bonded_seeds.stream_n("bonded-trial", t);
            let world_seed = trial_rng.next_u64();
            let mut sub = tracer.span("dht.rebuild", || {
                ContractSubstrate::build(config, world_seed)
            });
            let mut secret = [0u8; 32];
            trial_rng.fill_bytes(&mut secret);
            let report = tracer
                .span("contract.bonded", || {
                    run_bonded_release(&mut sub, &bonded, &secret, &mut trial_rng)
                })
                .map_err(|e| e.to_string())?;
            run.record(1, idx, bonded_digest(t, &report));
        }
        tracer.exit(trial);
        run.call_ms.push(call.elapsed().as_secs_f64() * 1e3);
        done += 1;
    }
    run.wall_s += start.elapsed().as_secs_f64();
    counts.resolves += take_resolves();
    Ok(())
}

// ------------------------------------------------------------ references

/// Sum of the first `n` digests (the merge rule of the runners'
/// fingerprints: wrapping addition).
pub fn prefix_fingerprint(digests: &[u64], n: usize) -> u64 {
    digests[..n].iter().fold(0u64, |a, d| a.wrapping_add(*d))
}

/// Serial reference fingerprints at each prefix length in `lens`, from
/// one batch runner call per segment between consecutive lengths.
///
/// # Errors
///
/// A batch call that fails.
pub fn reference_prefixes(
    lens: &[usize],
    mut batch: impl FnMut(usize, usize) -> Result<u64, String>,
) -> Result<Vec<(usize, u64)>, String> {
    let mut cuts: Vec<usize> = lens.to_vec();
    cuts.sort_unstable();
    cuts.dedup();
    let mut out = Vec::with_capacity(cuts.len());
    let (mut at, mut acc) = (0usize, 0u64);
    for cut in cuts {
        acc = acc.wrapping_add(batch(at, cut - at)?);
        at = cut;
        out.push((cut, acc));
    }
    Ok(out)
}

/// Serial `share_40x5` reference: the allocating runner (fresh
/// `AnalyticSubstrate::build` world per trial) over `[first, first+count)`.
///
/// # Errors
///
/// The runner's error.
pub fn share_reference(seed: u64, first: usize, count: usize) -> Result<u64, String> {
    let config = world_config();
    run_protocol_trial_range(&share_spec(), first, count, seed, |s| {
        AnalyticSubstrate::build(config, s)
    })
    .map(|r: ProtocolMcResults| r.fingerprint)
    .map_err(|e| e.to_string())
}

/// One pooled batch call over `[first, first+count)` on `rig`.
///
/// # Errors
///
/// The runner's error.
pub fn share_batch(
    rig: &mut ShareRig,
    seed: u64,
    first: usize,
    count: usize,
) -> Result<u64, String> {
    run_protocol_trial_range_pooled(
        &share_spec(),
        first,
        count,
        seed,
        &mut rig.sub,
        rebuild,
        &mut rig.ws,
    )
    .map(|r| r.fingerprint)
    .map_err(|e| e.to_string())
}

/// Serial joint reference on contract worlds over `[first, first+count)`.
///
/// # Errors
///
/// The runner's error.
pub fn joint_reference(seed: u64, first: usize, count: usize) -> Result<u64, String> {
    let config = contract_config();
    run_protocol_trial_range(&joint_spec(), first, count, seed, |s| {
        ContractSubstrate::build(config, s)
    })
    .map(|r| r.fingerprint)
    .map_err(|e| e.to_string())
}

/// Serial bonded reference over `[first, first+count)`.
///
/// # Errors
///
/// The runner's error.
pub fn bonded_reference(seed: u64, first: usize, count: usize) -> Result<u64, String> {
    let config = contract_config();
    run_bonded_trial_range(&bonded_spec(), first, count, seed, |s| {
        ContractSubstrate::build(config, s)
    })
    .map(|r: BondedMcResults| r.fingerprint)
    .map_err(|e| e.to_string())
}
