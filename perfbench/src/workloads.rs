//! Runs one workload, untraced (end-to-end metrics) or traced
//! (per-layer metrics), and checks its outputs.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::crypto::{self, CryptoProbe, ShareShape};
use crate::fig7;
use crate::host::peak_rss_kb;
use crate::metrics::{zero_layers, EndToEnd, Outcome, UNBOUNDED};
use crate::protocol::{
    self, bonded_reference, joint_reference, keyed_run, prefix_fingerprint, reference_prefixes,
    share_reference, share_run, Budget, LoopRun, ReplayCounts, ReplayWs,
};
use crate::stats::{mean, median};
use crate::sweep;
use crate::trace::{per_call, Tracer};

/// The workloads. `BENCHMARK.json` lists the first three; README.md says
/// why `sweep_schemes` is left out of it.
pub const WORKLOADS: [&str; 4] = [
    "share_pooled",
    "keyed_contract",
    "paper_fig7",
    "sweep_schemes",
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured time, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Directory for the sweep journal; inside the checkout.
    pub scratch: PathBuf,
    /// Program to start as a sweep worker (this binary).
    pub worker_command: Vec<String>,
}

/// A finished run: the result plus human-readable notes.
#[derive(Debug)]
pub struct Report {
    /// The result line's content.
    pub outcome: Outcome,
    /// Lines printed (as `# ` comments) before the result line.
    pub notes: Vec<String>,
}

/// Runs `args.workload`.
///
/// # Errors
///
/// An unknown workload, or a set-up or layer call that fails outright.
pub fn run(args: &Args) -> Result<Report, String> {
    match (args.workload.as_str(), args.trace) {
        ("share_pooled", false) => share_untraced(args),
        ("share_pooled", true) => share_traced(args),
        ("keyed_contract", false) => keyed_untraced(args),
        ("keyed_contract", true) => keyed_traced(args),
        ("paper_fig7", false) => fig7_untraced(args),
        ("paper_fig7", true) => fig7_traced(args),
        ("sweep_schemes", false) => sweep_untraced(args),
        ("sweep_schemes", true) => sweep_traced(args),
        (other, _) => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// Set-ups per untraced run; `setup_s` is their median. Each set-up
/// opens one of this many equal segments of the measured time, so the
/// set-up samples are spread over the run like the trial samples and see
/// the same mix of host speed.
const SETUP_REPS: usize = 9;

/// Runs [`SETUP_REPS`] segments: a timed `setup`, then `measure` on its
/// result for an equal share of `seconds`. Returns every set-up time.
fn segmented<R>(
    seconds: f64,
    mut setup: impl FnMut() -> Result<R, String>,
    mut measure: impl FnMut(&mut R, f64) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let share = seconds / SETUP_REPS as f64;
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let mut rig = setup()?;
        times.push(t.elapsed().as_secs_f64());
        measure(&mut rig, share)?;
    }
    Ok(times)
}

fn self_rss_mb() -> f64 {
    peak_rss_kb("self").unwrap_or(0) as f64 / 1024.0
}

/// Collects correctness failures; the run is correct when none occur.
#[derive(Debug)]
struct Checks {
    notes: Vec<String>,
    correct: bool,
}

impl Checks {
    fn new() -> Self {
        Checks {
            notes: Vec::new(),
            correct: true,
        }
    }

    fn record(&mut self, what: &str, result: Result<(), String>) {
        match result {
            Ok(()) => self.notes.push(format!("check ok: {what}")),
            Err(e) => {
                self.correct = false;
                self.notes.push(format!("CHECK FAILED: {what}: {e}"));
            }
        }
    }
}

/// Each digest list's prefix sum must equal the serial reference over
/// the same trials. The reference runs one batch call per segment
/// between consecutive list lengths and `cuts`.
fn check_lists(
    lists: &[&[u64]],
    cuts: &[usize],
    batch: impl FnMut(usize, usize) -> Result<u64, String>,
) -> Result<(), String> {
    let mut lens: Vec<usize> = lists.iter().map(|l| l.len()).collect();
    let longest = lens.iter().copied().max().unwrap_or(0);
    lens.extend(cuts.iter().filter(|&&c| c < longest));
    let refs = reference_prefixes(&lens, batch)?;
    for list in lists {
        let n = list.len();
        let expected = refs
            .iter()
            .find(|(len, _)| *len == n)
            .map_or(0, |(_, fp)| *fp);
        let got = prefix_fingerprint(list, n);
        if got != expected {
            return Err(format!(
                "fingerprint {got:#018x} over {n} trials != serial {expected:#018x}"
            ));
        }
    }
    Ok(())
}

/// Every later pass over a run's trial set must reproduce the first.
fn check_repeats(runs: &[&LoopRun]) -> Result<(), String> {
    let mismatches: u64 = runs.iter().map(|r| r.repeat_mismatches).sum();
    if mismatches == 0 {
        Ok(())
    } else {
        Err(format!("{mismatches} repeated trials changed their digest"))
    }
}

/// Traced and untraced runs must agree trial for trial where they
/// overlap.
fn check_same_trials(untraced: &[u64], traced: &[u64]) -> Result<(), String> {
    let n = untraced.len().min(traced.len());
    match (0..n).find(|&i| untraced[i] != traced[i]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "trial {i}: untraced digest {:#018x} != traced {:#018x}",
            untraced[i], traced[i]
        )),
    }
}

fn end_to_end_report(e2e: &EndToEnd, attempted: u64, failed: u64, checks: Checks) -> Report {
    let mut notes = checks.notes;
    let mut metrics = e2e.metrics();
    let unbounded: Vec<String> = UNBOUNDED
        .iter()
        .filter_map(|(name, unit)| metrics.remove(name).map(|v| format!("{name} {v} {unit}")))
        .collect();
    notes.push(format!("unbounded: {}", unbounded.join(", ")));
    notes.push(format!(
        "samples: {} trials in {:.3} s; {} trial, {} unit, {} batch, {} set-up samples",
        e2e.trials,
        e2e.wall_s,
        e2e.trial_ms.len(),
        e2e.unit_ms.len(),
        e2e.figure_s.len(),
        e2e.setup_s.len()
    ));
    notes.push(format!(
        "fail_frac {}",
        if attempted == 0 {
            0.0
        } else {
            failed as f64 / attempted as f64
        }
    ));
    Report {
        outcome: Outcome {
            correct: checks.correct,
            attempted: attempted.max(1),
            failed,
            metrics,
        },
        notes,
    }
}

fn layered_report(
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    mut checks: Checks,
    tracer: &Tracer,
) -> Report {
    let layers = tracer.layers();
    checks.notes.push(format!(
        "{:<22} {:>8} {:>14} {:>14} {:>12}",
        "span", "calls", "total_ms", "self_ms", "self_allocs"
    ));
    for (name, l) in &layers {
        checks.notes.push(format!(
            "{name:<22} {:>8} {:>14.3} {:>14.3} {:>12}",
            l.calls,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            l.self_allocs
        ));
    }
    Report {
        outcome: Outcome {
            correct: checks.correct,
            attempted: attempted.max(1),
            failed,
            metrics,
        },
        notes: checks.notes,
    }
}

/// Trials per block of a traced run. Untraced and traced blocks over
/// the same trials alternate, so both halves see the same host speed and
/// `obs.tracing_overhead_frac` compares like with like. Even, so a keyed
/// block holds whole joint/bonded pairs.
pub const TRACE_BLOCK: usize = 16;

fn tracing_overhead(untraced_tps: f64, traced_tps: f64) -> f64 {
    1.0 - traced_tps / untraced_tps
}

fn tps(run: &LoopRun) -> f64 {
    run.trials() as f64 / run.wall_s
}

/// Crypto probes at a real `share_40x5` build's shape.
fn crypto_layers(
    seed: u64,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(CryptoProbe, ShareShape), String> {
    let shape = crypto::share_shape(seed)?;
    let probe = crypto::probe(&shape)?;
    m.insert("crypto.aead_seal_mbps", probe.aead_seal_mbps);
    m.insert("crypto.chacha20_mbps", probe.chacha20_mbps);
    m.insert("crypto.shamir_split_many_us", probe.shamir_split_many_us);
    m.insert("crypto.hkdf_expand_us", probe.hkdf_expand_us);
    Ok((probe, shape))
}

/// Per-layer metrics of a traced protocol replay.
fn protocol_layers(
    tracer: &Tracer,
    traced: &LoopRun,
    counts: ReplayCounts,
    probe: Option<&CryptoProbe>,
    untraced_tps: f64,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let layers = tracer.layers();
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let per = |total: u64, calls: u64| per_call(total as f64, calls);
    for (layer, us, allocs) in [
        ("dht.rebuild", "dht.rebuild_us", "dht.rebuild_allocs"),
        (
            "path.construct",
            "path.construct_us",
            "path.construct_allocs",
        ),
        ("package.build", "package.build_us", "package.build_allocs"),
        (
            "protocol.execute",
            "protocol.execute_us",
            "protocol.execute_allocs",
        ),
        (
            "contract.bonded",
            "contract.bonded_us",
            "contract.bonded_allocs",
        ),
    ] {
        m.insert(us, get(layer).self_us());
        m.insert(allocs, get(layer).allocs_per_call());
    }
    let trials = traced.trials() as u64;
    let build = get("package.build");
    let sealed = per(counts.sealed_bytes, build.calls);
    m.insert("dht.resolves", per(counts.resolves, trials));
    m.insert("package.sealed_bytes", sealed);
    m.insert(
        "protocol.messages",
        per(counts.messages, get("protocol.execute").calls),
    );
    m.insert("trial.self_us", get("trial").self_us());
    let build_us = build.self_us();
    if let (Some(probe), true) = (probe, sealed > 0.0 && build_us > 0.0) {
        m.insert(
            "crypto.seal_share_of_build",
            (sealed / (probe.aead_seal_mbps * 1e6)) / (build_us / 1e6),
        );
    }
    m.insert(
        "obs.tracing_overhead_frac",
        tracing_overhead(untraced_tps, tps(traced)),
    );
}

/// How much of the traced trial wall time the phase spans plus
/// `trial.self_us` account for.
fn accounting_note(tracer: &Tracer) -> String {
    let layers = tracer.layers();
    let trial = layers.get("trial").copied().unwrap_or_default();
    let phases: u64 = layers
        .iter()
        .filter(|(name, _)| **name != "trial")
        .map(|(_, l)| l.total_ns)
        .sum();
    let covered = phases + trial.self_ns;
    let mut note = format!(
        "trial wall {:.3} ms/trial; phases + trial.self cover {:.2}% of it:",
        trial.total_ns as f64 / 1e6 / trial.calls.max(1) as f64,
        100.0 * covered as f64 / trial.total_ns.max(1) as f64
    );
    for (name, l) in &layers {
        note.push_str(&format!(
            " {name} {:.1}%",
            100.0 * l.self_ns as f64 / trial.total_ns.max(1) as f64
        ));
    }
    note
}

// ------------------------------------------------------------ share

/// Share trials at the start of a run checked against the allocating
/// runner (a fresh `AnalyticSubstrate::build` world per trial); later
/// ones against one pooled batch call, which the repository's tests pin
/// to the allocating runner bit for bit.
const ALLOCATING_REF_TRIALS: usize = 64;

fn check_share(seed: u64, lists: &[&[u64]]) -> Result<(), String> {
    let mut rig = None;
    check_lists(lists, &[ALLOCATING_REF_TRIALS], |first, count| {
        if first < ALLOCATING_REF_TRIALS {
            return share_reference(seed, first, count);
        }
        let rig = match &mut rig {
            Some(rig) => rig,
            None => rig.insert(protocol::share_setup(seed)?),
        };
        protocol::share_batch(rig, seed, first, count)
    })
}

fn share_untraced(args: &Args) -> Result<Report, String> {
    let mut run = share_run();
    let setup_s = segmented(
        args.seconds,
        || protocol::share_setup(args.seed),
        |rig, secs| {
            protocol::share_loop(rig, args.seed, &mut run, Budget::Seconds(secs));
            Ok(())
        },
    )?;
    let e2e = run.end_to_end(setup_s, self_rss_mb());
    let mut checks = Checks::new();
    checks.record(
        "merged share fingerprint equals the serial reference (allocating, then one pooled batch)",
        check_share(args.seed, &[&run.digests[0]]),
    );
    checks.record(
        "every pass over the trial set reproduces the first",
        check_repeats(&[&run]),
    );
    let n = run.call_ms.len() as u64;
    Ok(end_to_end_report(&e2e, n, run.failed, checks))
}

/// The untraced runner and the traced replay of the share workload, in
/// alternating [`TRACE_BLOCK`]-trial blocks over the same trials. A
/// trial budget applies to each of the two. Also used by the tests.
///
/// # Errors
///
/// A set-up or layer call that fails outright.
pub fn share_pair(
    seed: u64,
    budget: Budget,
    tracer: &mut Tracer,
) -> Result<(LoopRun, LoopRun, ReplayCounts), String> {
    let mut rig = protocol::share_setup(seed)?;
    let mut ws = ReplayWs::default();
    protocol::share_replay_warm(&mut rig, &mut ws, seed)?;
    let (mut untraced, mut traced) = (share_run(), share_run());
    let mut counts = ReplayCounts::default();
    let start = Instant::now();
    while budget.more(start, untraced.call_ms.len()) {
        let block = budget.block(untraced.call_ms.len(), TRACE_BLOCK);
        protocol::share_loop(&mut rig, seed, &mut untraced, block);
        protocol::share_replay(
            &mut rig,
            &mut ws,
            seed,
            0,
            &mut traced,
            block,
            tracer,
            &mut counts,
        )?;
    }
    Ok((untraced, traced, counts))
}

fn share_traced(args: &Args) -> Result<Report, String> {
    let mut tracer = Tracer::new();
    let (untraced, traced, counts) =
        share_pair(args.seed, Budget::Seconds(args.seconds), &mut tracer)?;
    let mut m = zero_layers();
    let (probe, shape) = crypto_layers(args.seed, &mut m)?;
    protocol_layers(
        &tracer,
        &traced,
        counts,
        Some(&probe),
        tps(&untraced),
        &mut m,
    );
    let mut checks = Checks::new();
    checks.record(
        "traced replay equals the untraced runner trial for trial",
        check_same_trials(&untraced.digests[0], &traced.digests[0]),
    );
    checks.record(
        "traced and untraced share fingerprints equal the serial reference",
        check_share(args.seed, &[&untraced.digests[0], &traced.digests[0]]),
    );
    checks.record(
        "every pass over the trial set reproduces the first",
        check_repeats(&[&untraced, &traced]),
    );
    checks.notes.push(accounting_note(&tracer));
    checks.notes.push(format!(
        "crypto probe shape: {} headers + {} segments = {} B sealed per build (build reported {} B)",
        shape.headers.len(),
        shape.segments.len(),
        shape.volume(),
        shape.sealed_bytes
    ));
    let attempted = (untraced.call_ms.len() + traced.trials()) as u64;
    Ok(layered_report(
        m,
        attempted,
        untraced.failed,
        checks,
        &tracer,
    ))
}

// ------------------------------------------------------------ keyed

fn keyed_checks(seed: u64, runs: &[&LoopRun], checks: &mut Checks) {
    let joint: Vec<&[u64]> = runs.iter().map(|r| r.digests[0].as_slice()).collect();
    let bonded: Vec<&[u64]> = runs.iter().map(|r| r.digests[1].as_slice()).collect();
    checks.record(
        "merged joint fingerprint equals the serial run_protocol_trials reference",
        check_lists(&joint, &[], |a, c| joint_reference(seed, a, c)),
    );
    checks.record(
        "merged bonded fingerprint equals the serial run_bonded_trials reference",
        check_lists(&bonded, &[], |a, c| bonded_reference(seed, a, c)),
    );
    checks.record(
        "every pass over the trial set reproduces the first",
        check_repeats(runs),
    );
}

fn keyed_untraced(args: &Args) -> Result<Report, String> {
    let mut run = keyed_run();
    let setup_s = segmented(
        args.seconds,
        || protocol::keyed_setup(args.seed),
        |(), secs| {
            protocol::keyed_loop(args.seed, &mut run, Budget::Seconds(secs));
            Ok(())
        },
    )?;
    let e2e = run.end_to_end(setup_s, self_rss_mb());
    let mut checks = Checks::new();
    keyed_checks(args.seed, &[&run], &mut checks);
    let n = run.call_ms.len() as u64;
    Ok(end_to_end_report(&e2e, n, run.failed, checks))
}

/// The untraced runners and the traced replay of the keyed workload, in
/// alternating [`TRACE_BLOCK`]-call blocks over the same trials. A trial
/// budget applies to each of the two. Also used by the tests.
///
/// # Errors
///
/// A set-up or layer call that fails outright.
pub fn keyed_pair(
    seed: u64,
    budget: Budget,
    tracer: &mut Tracer,
) -> Result<(LoopRun, LoopRun, ReplayCounts), String> {
    protocol::keyed_setup(seed)?;
    let (mut untraced, mut traced) = (keyed_run(), keyed_run());
    let mut counts = ReplayCounts::default();
    let start = Instant::now();
    while budget.more(start, untraced.call_ms.len()) {
        let block = budget.block(untraced.call_ms.len(), TRACE_BLOCK);
        protocol::keyed_loop(seed, &mut untraced, block);
        protocol::keyed_replay(seed, &mut traced, block, tracer, &mut counts)?;
    }
    Ok((untraced, traced, counts))
}

fn keyed_traced(args: &Args) -> Result<Report, String> {
    let mut tracer = Tracer::new();
    let (untraced, traced, counts) =
        keyed_pair(args.seed, Budget::Seconds(args.seconds), &mut tracer)?;
    let mut m = zero_layers();
    protocol_layers(&tracer, &traced, counts, None, tps(&untraced), &mut m);
    let mut checks = Checks::new();
    for kind in 0..2 {
        checks.record(
            "traced replay equals the untraced runner trial for trial",
            check_same_trials(&untraced.digests[kind], &traced.digests[kind]),
        );
    }
    keyed_checks(args.seed, &[&untraced, &traced], &mut checks);
    checks.notes.push(accounting_note(&tracer));
    let attempted = (untraced.call_ms.len() + traced.trials()) as u64;
    Ok(layered_report(
        m,
        attempted,
        untraced.failed,
        checks,
        &tracer,
    ))
}

// ------------------------------------------------------------ fig7

fn figures(
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<fig7::Figure>, String> {
    let start = Instant::now();
    let mut figs = Vec::new();
    while figs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        figs.push(fig7::figure(seed, fig7::TRIALS, tracer.as_deref_mut())?);
    }
    Ok(figs)
}

fn fig7_checks(seed: u64, figs: &[&fig7::Figure], checks: &mut Checks) {
    let first = figs[0].digest();
    checks.record(
        "every slice of the run has the same R values",
        match figs.iter().position(|f| f.digest() != first) {
            None => Ok(()),
            Some(i) => Err(format!("slice {i} differs from slice 0")),
        },
    );
    checks.record(
        "R values equal emerge_bench::figures::fig7_churn_resilience for the seed",
        fig7::check_against_program(figs[0], seed, fig7::TRIALS),
    );
    checks.record("recorded reference slice digest", fig7::check_golden());
    checks.notes.push(format!("fig7 R digest {first:#018x}"));
}

fn fig7_untraced(args: &Args) -> Result<Report, String> {
    let (mut figs, mut wall_s) = (Vec::new(), 0.0);
    let setup_s = segmented(
        args.seconds,
        || fig7::figure(args.seed, 1, None),
        |_, secs| {
            let start = Instant::now();
            figs.append(&mut figures(args.seed, secs, None)?);
            wall_s += start.elapsed().as_secs_f64();
            Ok(())
        },
    )?;
    // One sample of each kind per slice, so every sample covers the same
    // mix of cells (the rows differ a lot: the solved share size grows
    // with p). A trial sample is the slice's `run_trials` time over its
    // trials; a unit sample is its mean row time (the four schemes at one
    // `p`, solvers included).
    let rows = fig7::PS.len() as f64;
    let e2e = EndToEnd {
        trials: figs.iter().map(|f| f.trials as u64).sum(),
        wall_s,
        trial_ms: figs
            .iter()
            .map(|f| f.cells.iter().map(|c| c.run_s).sum::<f64>() * 1e3 / f.trials as f64)
            .collect(),
        unit_ms: figs
            .iter()
            .map(|f| f.cells.iter().map(|c| c.solve_s + c.run_s).sum::<f64>() * 1e3 / rows)
            .collect(),
        figure_s: figs.iter().map(|f| f.wall_s).collect(),
        setup_s,
        peak_rss_mb: self_rss_mb(),
    };
    let mut checks = Checks::new();
    fig7_checks(args.seed, &figs.iter().collect::<Vec<_>>(), &mut checks);
    let n = figs.iter().map(|f| f.cells.len() as u64).sum();
    Ok(end_to_end_report(&e2e, n, 0, checks))
}

/// Share of a traced `paper_fig7` run spent on the sweep's layers.
/// `sweep_schemes` is not in `BENCHMARK.json` (its end-to-end times are
/// not steady enough to bound), so the traced Fig. 7 run, whose cells
/// run the same model trials, also measures `emerge-sweep`.
const SWEEP_SHARE_OF_FIG7_TRACE: f64 = 0.2;

fn fig7_traced(args: &Args) -> Result<Report, String> {
    // Untraced and traced slices alternate, so both see the same host
    // speed.
    let mut tracer = Tracer::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let fig7_seconds = args.seconds * (1.0 - SWEEP_SHARE_OF_FIG7_TRACE);
    while plain.is_empty() || start.elapsed().as_secs_f64() < fig7_seconds {
        plain.push(fig7::figure(args.seed, fig7::TRIALS, None)?);
        traced.push(fig7::figure(args.seed, fig7::TRIALS, Some(&mut tracer))?);
    }
    let slice_tps = |figs: &[fig7::Figure]| {
        figs.iter().map(|f| f.trials).sum::<usize>() as f64
            / figs.iter().map(|f| f.wall_s).sum::<f64>()
    };
    let (plain_tps, traced_tps) = (slice_tps(&plain), slice_tps(&traced));

    let mut m = zero_layers();
    let layers = tracer.layers();
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let per_trial_us = |name: &str| get(name).total_us() / fig7::TRIALS as f64;
    let solve = get("analysis.solve");
    m.insert("analysis.solve_ms", solve.total_us() / 1e3);
    m.insert("model.trial_us.share", per_trial_us("model.share"));
    m.insert("model.trial_us.keyed", per_trial_us("model.keyed"));
    m.insert("model.trial_us.central", per_trial_us("model.central"));
    let holders: Vec<f64> = traced
        .iter()
        .flat_map(|f| &f.cells)
        .map(|c| c.holders as f64)
        .collect();
    m.insert("model.holders_per_trial", mean(&holders));
    m.insert(
        "obs.tracing_overhead_frac",
        tracing_overhead(plain_tps, traced_tps),
    );

    let mut checks = Checks::new();
    let all: Vec<&fig7::Figure> = plain.iter().chain(&traced).collect();
    fig7_checks(args.seed, &all, &mut checks);
    let figure_ns = get("figure").total_ns.max(1) as f64;
    checks.notes.push(format!(
        "figure {:.3} s: model.share {:.1}%, model.keyed {:.1}%, model.central {:.1}%, analysis.solve {:.1}%, self {:.1}%",
        figure_ns / 1e9 / get("figure").calls.max(1) as f64,
        100.0 * get("model.share").total_ns as f64 / figure_ns,
        100.0 * get("model.keyed").total_ns as f64 / figure_ns,
        100.0 * get("model.central").total_ns as f64 / figure_ns,
        100.0 * solve.total_ns as f64 / figure_ns,
        100.0 * get("figure").self_ns as f64 / figure_ns,
    ));
    let sweep = sweep_layers(
        args,
        args.seconds * SWEEP_SHARE_OF_FIG7_TRACE,
        &mut m,
        &mut checks,
        &mut tracer,
    )?;
    let attempted = all.iter().map(|f| f.cells.len() as u64).sum::<u64>() + sweep.attempted;
    Ok(layered_report(m, attempted, sweep.failed, checks, &tracer))
}

// ------------------------------------------------------------ sweep

fn journal_path(args: &Args) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("create {}: {e}", args.scratch.display()))?;
    Ok(args
        .scratch
        .join(format!("sweep-journal-{}.jsonl", std::process::id())))
}

fn sweep_untraced(args: &Args) -> Result<Report, String> {
    let journal = journal_path(args)?;
    let grid = sweep::grid(args.seed)?;
    let (mut run, mut peak_rss_mb) = (sweep::SweepRun::default(), 0.0_f64);
    let setup_s = segmented(
        args.seconds,
        || sweep::setup(&args.worker_command, &grid, &journal),
        |pool, secs| {
            run.absorb(sweep::sweep_loop(pool, &grid, secs, false, &journal));
            peak_rss_mb = peak_rss_mb.max(sweep::peak_rss_mb());
            Ok(())
        },
    )?;
    let e2e = run.end_to_end(setup_s, peak_rss_mb);
    let _ = std::fs::remove_file(&journal);
    let mut checks = Checks::new();
    checks.record(
        "every sweep passes assert_outcomes_identical against run_serial",
        sweep::check(&run, &grid),
    );
    if run.failed_sweeps > 0 {
        checks.record(
            "sweeps",
            Err(format!("{} sweeps failed", run.failed_sweeps)),
        );
    }
    Ok(end_to_end_report(
        &e2e,
        run.links.sends,
        run.failed_dispatches(),
        checks,
    ))
}

/// What the traced sweep measured besides its per-layer metrics.
struct SweepLayers {
    attempted: u64,
    failed: u64,
    plain_tps: f64,
    traced_tps: f64,
}

/// Alternates untraced and traced (reply lines kept) sweeps for
/// `seconds`, so both see the same host speed, then times the sweep's
/// layers on the traced sweeps' own units and lines into `tracer` and
/// fills the `sweep.*` metrics of `m`.
fn sweep_layers(
    args: &Args,
    seconds: f64,
    m: &mut BTreeMap<&'static str, f64>,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Result<SweepLayers, String> {
    let journal = journal_path(args)?;
    let grid = sweep::grid(args.seed)?;
    let mut pool = sweep::setup(&args.worker_command, &grid, &journal)?;
    let (mut plain, mut traced) = (sweep::SweepRun::default(), sweep::SweepRun::default());
    let start = Instant::now();
    while plain.outcomes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        plain.absorb(sweep::sweep_loop(&mut pool, &grid, 0.0, false, &journal));
        traced.absorb(sweep::sweep_loop(&mut pool, &grid, 0.0, true, &journal));
        if plain.failed_sweeps + traced.failed_sweeps > 3 {
            break;
        }
    }
    drop(pool);
    let _ = std::fs::remove_file(&journal);

    checks.record(
        "untraced sweeps pass assert_outcomes_identical against run_serial",
        sweep::check(&plain, &grid),
    );
    checks.record(
        "traced sweeps pass assert_outcomes_identical against run_serial",
        sweep::check(&traced, &grid),
    );
    sweep::layer_probes(&traced, &grid, &args.scratch, tracer)?;

    let layers = tracer.layers();
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let mean_us = |name: &str| get(name).total_us();
    let compute_s = mean_us("sweep.serial") / 1e6;
    let units = traced.units() as f64;
    m.insert("sweep.compute_s", compute_s);
    m.insert(
        "sweep.overhead_frac",
        1.0 - compute_s / (median(&traced.sweep_s) * sweep::WORKERS as f64),
    );
    m.insert("sweep.unit_rtt_ms", mean(&traced.links.rtt_ms));
    m.insert("sweep.recv_wait_ms", traced.links.recv_wait_ms / units);
    m.insert("sweep.wire_encode_us", mean_us("sweep.wire_encode"));
    m.insert("sweep.wire_decode_us", mean_us("sweep.wire_decode"));
    m.insert("sweep.journal_append_us", mean_us("sweep.journal_append"));
    m.insert("sweep.worker_unit_us", mean_us("sweep.worker_unit"));
    m.insert(
        "sweep.dispatch_efficiency",
        units / traced.links.sends.max(1) as f64,
    );
    Ok(SweepLayers {
        attempted: plain.links.sends + traced.links.sends,
        failed: plain.failed_dispatches() + traced.failed_dispatches(),
        plain_tps: plain.trials() as f64 / plain.wall_s,
        traced_tps: traced.trials() as f64 / traced.wall_s,
    })
}

fn sweep_traced(args: &Args) -> Result<Report, String> {
    let (mut m, mut checks, mut tracer) = (zero_layers(), Checks::new(), Tracer::new());
    let run = sweep_layers(args, args.seconds, &mut m, &mut checks, &mut tracer)?;
    m.insert(
        "obs.tracing_overhead_frac",
        tracing_overhead(run.plain_tps, run.traced_tps),
    );
    Ok(layered_report(
        m,
        run.attempted,
        run.failed,
        checks,
        &tracer,
    ))
}
