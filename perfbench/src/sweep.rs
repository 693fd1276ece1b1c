//! The `sweep_schemes` workload: the `schemes_2x3` grid through
//! `emerge_sweep::Coordinator::run` with two worker processes, small
//! units and the journal on.
//!
//! The workers are this binary started with `--sweep-worker`, which runs
//! `emerge_sweep::worker::serve` exactly as the `sweep_worker` binary
//! does. Each worker link is wrapped in [`TimedLink`], which times every
//! dispatch→reply round trip and every blocking receive from outside the
//! coordinator. The same sweep (its grid seed derived from the run's
//! seed) repeats back to back, a closed loop, and every repetition must
//! match the in-process `run_serial` reference bit for bit.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

use emerge_faults::{HedgePolicy, RecoveryPolicy, RetryPolicy, TimeoutPolicy};
use emerge_sim::rng::SeedSource;
use emerge_sweep::coordinator::{assert_outcomes_identical, run_serial, SweepOutcome};
use emerge_sweep::error::SweepError;
use emerge_sweep::links::{LinkEvent, ProcessWorkerLink, WorkerLink};
use emerge_sweep::wire::{decode_worker_line, encode_request};
use emerge_sweep::worker::run_unit;
use emerge_sweep::{Coordinator, Journal, SweepConfig, SweepGrid};
use rand::RngCore;

use crate::host::{child_pids, peak_rss_kb};
use crate::metrics::EndToEnd;
use crate::trace::Tracer;

/// Worker processes (the host's core count).
pub const WORKERS: usize = 2;
/// Trials per work unit.
pub const UNIT_TRIALS: usize = 10;
/// Trials per grid cell in one sweep.
pub const CELL_TRIALS: usize = 80;

/// What one [`TimedLink`] observed.
#[derive(Debug, Default)]
pub struct LinkLog {
    /// Request lines sent (dispatches).
    pub sends: u64,
    /// Dispatch→reply round trips, milliseconds.
    pub rtt_ms: Vec<f64>,
    /// Time spent blocked in `recv`, milliseconds.
    pub recv_wait_ms: f64,
    /// Reply lines, kept when the log is asked to.
    pub lines: Vec<String>,
    /// Whether to keep reply lines.
    pub keep_lines: bool,
}

/// A [`WorkerLink`] that times its inner link from outside.
pub struct TimedLink {
    inner: ProcessWorkerLink,
    sent_at: Option<Instant>,
    log: Rc<RefCell<LinkLog>>,
}

impl WorkerLink for TimedLink {
    fn send(&mut self, line: &str) -> bool {
        self.log.borrow_mut().sends += 1;
        self.sent_at = Some(Instant::now());
        self.inner.send(line)
    }

    fn recv(&mut self, wait: Duration) -> LinkEvent {
        let t = Instant::now();
        let event = self.inner.recv(wait);
        let mut log = self.log.borrow_mut();
        log.recv_wait_ms += t.elapsed().as_secs_f64() * 1e3;
        if let LinkEvent::Line(line) = &event {
            if let Some(at) = self.sent_at.take() {
                log.rtt_ms.push(at.elapsed().as_secs_f64() * 1e3);
            }
            if log.keep_lines {
                log.lines.push(line.clone());
            }
        }
        event
    }

    fn restart(&mut self) -> Result<(), SweepError> {
        self.sent_at = None;
        self.inner.restart()
    }
}

/// Two running workers and the logs of their links.
pub struct Pool {
    links: Vec<Box<dyn WorkerLink>>,
    logs: Vec<Rc<RefCell<LinkLog>>>,
}

impl Pool {
    /// Starts [`WORKERS`] workers running `command`.
    ///
    /// # Errors
    ///
    /// A worker that cannot be started.
    pub fn start(command: &[String]) -> Result<Pool, String> {
        let mut pool = Pool {
            links: Vec::new(),
            logs: Vec::new(),
        };
        for _ in 0..WORKERS {
            let log = Rc::new(RefCell::new(LinkLog::default()));
            let inner = ProcessWorkerLink::start(command).map_err(|e| e.to_string())?;
            pool.links.push(Box::new(TimedLink {
                inner,
                sent_at: None,
                log: Rc::clone(&log),
            }));
            pool.logs.push(log);
        }
        Ok(pool)
    }

    /// Clears every log and sets whether reply lines are kept.
    pub fn reset_logs(&self, keep_lines: bool) {
        for log in &self.logs {
            *log.borrow_mut() = LinkLog {
                keep_lines,
                ..LinkLog::default()
            };
        }
    }

    /// Dispatches, round trips, receive wait and kept lines over all links.
    pub fn drain_logs(&self) -> LinkLog {
        let mut all = LinkLog::default();
        for log in &self.logs {
            let mut log = log.borrow_mut();
            all.sends += log.sends;
            all.rtt_ms.append(&mut log.rtt_ms);
            all.recv_wait_ms += log.recv_wait_ms;
            all.lines.append(&mut log.lines);
        }
        all
    }
}

/// The swept grid of a run seeded `seed`.
///
/// # Errors
///
/// The built-in grid is missing.
pub fn grid(seed: u64) -> Result<SweepGrid, String> {
    let mut grid = SweepGrid::builtin("schemes_2x3")
        .map_err(|e| e.to_string())?
        .with_trials_per_cell(CELL_TRIALS);
    grid.seed = SeedSource::new(seed).stream("sweep-grid").next_u64();
    Ok(grid)
}

/// The coordinator settings of `sweep_coordinator`'s clean runs, with
/// [`UNIT_TRIALS`]-trial units and a journal.
pub fn config(journal: &Path) -> SweepConfig {
    SweepConfig {
        unit_trials: UNIT_TRIALS,
        policy: RecoveryPolicy {
            retry: RetryPolicy {
                max_attempts: 4,
                ..RetryPolicy::default()
            },
            timeout: TimeoutPolicy {
                per_attempt_ticks: 10_000,
            },
            hedge: HedgePolicy { fanout: 2 },
        },
        hedge_after_ms: 150,
        max_units: None,
        journal_path: Some(journal.to_path_buf()),
        prom_path: None,
        progress: false,
    }
}

/// Runs one sweep of `grid` on `pool` with a fresh journal.
///
/// # Errors
///
/// The coordinator's error, or an incomplete sweep.
pub fn run_sweep(
    pool: &mut Pool,
    grid: &SweepGrid,
    journal: &Path,
) -> Result<SweepOutcome, String> {
    let _ = std::fs::remove_file(journal);
    let outcome = Coordinator::new(grid.clone(), config(journal))
        .run(&mut pool.links)
        .map_err(|e| e.to_string())?;
    if outcome.complete() {
        Ok(outcome)
    } else {
        Err(format!(
            "sweep stopped at {}/{} units",
            outcome.done_units, outcome.total_units
        ))
    }
}

/// Starts a pool and warms it with one sweep of `grid`.
///
/// # Errors
///
/// A worker that cannot start or a failed warm-up sweep.
pub fn setup(command: &[String], grid: &SweepGrid, journal: &Path) -> Result<Pool, String> {
    let mut pool = Pool::start(command)?;
    run_sweep(&mut pool, grid, journal)?;
    Ok(pool)
}

/// One closed loop of back-to-back sweeps.
#[derive(Debug, Default)]
pub struct SweepRun {
    /// Outcome of each sweep.
    pub outcomes: Vec<SweepOutcome>,
    /// Wall time of each `Coordinator::run`, seconds.
    pub sweep_s: Vec<f64>,
    /// What the links observed.
    pub links: LinkLog,
    /// Sweeps that failed.
    pub failed_sweeps: u64,
    /// Length of the loop, seconds.
    pub wall_s: f64,
}

impl SweepRun {
    /// Trials completed.
    pub fn trials(&self) -> u64 {
        self.outcomes
            .iter()
            .flat_map(|o| &o.cells)
            .map(|c| c.trials as u64)
            .sum()
    }

    /// Units completed.
    pub fn units(&self) -> u64 {
        self.outcomes.iter().map(|o| o.done_units as u64).sum()
    }

    /// Appends `other`, a later loop on the same pool.
    pub fn absorb(&mut self, mut other: SweepRun) {
        self.outcomes.append(&mut other.outcomes);
        self.sweep_s.append(&mut other.sweep_s);
        self.links.sends += other.links.sends;
        self.links.rtt_ms.append(&mut other.links.rtt_ms);
        self.links.recv_wait_ms += other.links.recv_wait_ms;
        self.links.lines.append(&mut other.links.lines);
        self.failed_sweeps += other.failed_sweeps;
        self.wall_s += other.wall_s;
    }

    /// Dispatches that failed: retried, corrupt or timed out.
    pub fn failed_dispatches(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.stats.retries + o.stats.corrupt_findings + o.stats.timeouts)
            .sum()
    }

    /// Folds the run into the end-to-end samples.
    pub fn end_to_end(&self, setup_s: Vec<f64>, peak_rss_mb: f64) -> EndToEnd {
        EndToEnd {
            trials: self.trials(),
            wall_s: self.wall_s,
            trial_ms: self
                .links
                .rtt_ms
                .iter()
                .map(|ms| ms / UNIT_TRIALS as f64)
                .collect(),
            unit_ms: self.links.rtt_ms.clone(),
            figure_s: self.sweep_s.clone(),
            setup_s,
            peak_rss_mb,
        }
    }
}

/// Sweeps `grid` back to back for `seconds` (at least once).
pub fn sweep_loop(
    pool: &mut Pool,
    grid: &SweepGrid,
    seconds: f64,
    keep_lines: bool,
    journal: &Path,
) -> SweepRun {
    pool.reset_logs(keep_lines);
    let mut run = SweepRun::default();
    let start = Instant::now();
    while run.outcomes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        match run_sweep(pool, grid, journal) {
            Ok(outcome) => {
                run.sweep_s.push(t.elapsed().as_secs_f64());
                run.outcomes.push(outcome);
            }
            Err(e) => {
                eprintln!(
                    "sweep {}: {e}",
                    run.outcomes.len() + run.failed_sweeps as usize
                );
                run.failed_sweeps += 1;
                if run.failed_sweeps > 3 {
                    break;
                }
            }
        }
    }
    run.wall_s = start.elapsed().as_secs_f64();
    run.links = pool.drain_logs();
    run
}

/// Peak resident memory of this process plus every live worker, MB.
pub fn peak_rss_mb() -> f64 {
    let kb: u64 = std::iter::once("self".to_string())
        .chain(child_pids())
        .filter_map(|pid| peak_rss_kb(&pid))
        .sum();
    kb as f64 / 1024.0
}

/// Checks every swept outcome against `run_serial` on `grid`.
///
/// # Errors
///
/// The first mismatch or reference failure.
pub fn check(run: &SweepRun, grid: &SweepGrid) -> Result<(), String> {
    let serial = run_serial(grid).map_err(|e| e.to_string())?;
    for (rep, outcome) in run.outcomes.iter().enumerate() {
        assert_outcomes_identical(&format!("sweep {rep} vs serial"), outcome, &serial)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Serial `run_serial` passes over `grid` timed under `sweep.serial`
/// spans (the compute a sweep distributes).
const SERIAL_REPS: u64 = 3;

/// Times the in-process serial run of `grid`, and the sweep's own wire
/// lines and units through the public codec, journal and worker
/// functions, under `sweep.*` spans.
///
/// # Errors
///
/// A failing serial run or unit, a line that does not decode or a
/// journal write that fails.
pub fn layer_probes(
    run: &SweepRun,
    grid: &SweepGrid,
    scratch: &Path,
    tracer: &mut Tracer,
) -> Result<(), String> {
    for _ in 0..SERIAL_REPS {
        tracer
            .span("sweep.serial", || run_serial(grid))
            .map_err(|e| e.to_string())?;
    }
    let units = grid.units(UNIT_TRIALS);
    for unit in &units {
        tracer.span("sweep.wire_encode", || {
            std::hint::black_box(encode_request(unit, 0));
        });
    }
    for line in &run.links.lines {
        tracer
            .span("sweep.wire_decode", || decode_worker_line(line))
            .map_err(|e| e.to_string())?;
    }
    let journal_path: PathBuf = scratch.join(format!("probe-journal-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal_path);
    let mut journal = Journal::open(&journal_path).map_err(|e| e.to_string())?;
    for line in run.links.lines.iter().take(units.len()) {
        tracer
            .span("sweep.journal_append", || journal.append(line))
            .map_err(|e| e.to_string())?;
    }
    drop(journal);
    let _ = std::fs::remove_file(&journal_path);
    for unit in &units {
        tracer
            .span("sweep.worker_unit", || run_unit(unit))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}
