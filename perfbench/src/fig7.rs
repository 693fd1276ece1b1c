//! The `paper_fig7` workload: one slice of the paper's Figure 7.
//!
//! Churn resilience `R = min(Rr, Rd)` at `α = 3` over a grid of malicious
//! rates `p`, for the four schemes, with the parameters the Section III
//! solvers choose (`analysis::solve_*`, then `montecarlo::run_trials`),
//! at N = 10 000, on one thread. The cell order, salts and seeds are those
//! of `emerge_bench::figures::fig7_churn_resilience`, whose output every
//! run checks against. No substrate and no cryptography run here.

use std::time::Instant;

use emerge_bench::figures::{fig7_churn_resilience, TARGET_R};
use emerge_core::analysis;
use emerge_core::config::SchemeParams;
use emerge_core::montecarlo::{run_trials, TrialSpec};
use emerge_sim::shard::TrialDigest;

use crate::protocol::POPULATION;
use crate::trace::Tracer;

/// `α = T / tlife` of the slice (the paper's Fig. 7(c)).
pub const ALPHA: f64 = 3.0;
/// Malicious rates of the slice.
pub const PS: [f64; 4] = [0.1, 0.2, 0.3, 0.4];
/// Model trials per cell.
pub const TRIALS: usize = 40;

/// Seed and size of the recorded reference slice, and its digest.
const GOLDEN_SEED: u64 = 0x70F1_6007;
const GOLDEN_TRIALS: usize = 8;
const GOLDEN_DIGEST: u64 = 0x70b0_59df_f9b1_ad5a;

/// The four series, in the figure's column order, with their seed salts
/// and the span their `run_trials` calls are traced under.
pub const SCHEMES: [(&str, u64, &str); 4] = [
    ("central", 0x11, "model.central"),
    ("disjoint", 0x12, "model.keyed"),
    ("joint", 0x13, "model.keyed"),
    ("share", 0x14, "model.share"),
];

/// One Monte-Carlo cell of the slice.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Malicious rate.
    pub p: f64,
    /// Series index into the scheme list (central, disjoint, joint, share).
    pub scheme: usize,
    /// Solver time, seconds (the central scheme has no solver).
    pub solve_s: f64,
    /// `run_trials` time, seconds.
    pub run_s: f64,
    /// Holders per trial (`node_cost` of the solved parameters).
    pub holders: usize,
    /// Measured `R = min(Rr, Rd)`.
    pub r: f64,
}

/// One finished slice.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Cells in figure order.
    pub cells: Vec<Cell>,
    /// Wall time from the specs to the finished slice, seconds.
    pub wall_s: f64,
    /// Model trials run.
    pub trials: usize,
}

impl Figure {
    /// Digest over every `(p, R)` bit pattern in figure order.
    pub fn digest(&self) -> u64 {
        let mut d = TrialDigest::new();
        for cell in &self.cells {
            d.eat(&cell.p.to_bits().to_le_bytes());
            d.eat(&cell.r.to_bits().to_le_bytes());
        }
        d.finish()
    }
}

/// Computes the slice with `trials` per cell; with a tracer, spans wrap
/// the figure, each solver call and each `run_trials` call.
///
/// # Errors
///
/// A `run_trials` call that fails.
pub fn figure(seed: u64, trials: usize, mut tracer: Option<&mut Tracer>) -> Result<Figure, String> {
    let start = Instant::now();
    let root = tracer.as_deref_mut().map(|t| t.enter("figure"));
    // Cells in row order: the four schemes at each `p` in turn.
    let mut cells = Vec::with_capacity(PS.len() * SCHEMES.len());
    for &p in &PS {
        for (scheme, &(name, salt, span)) in SCHEMES.iter().enumerate() {
            let t0 = Instant::now();
            let solve = || match scheme {
                0 => SchemeParams::Central,
                1 => analysis::solve_disjoint(p, TARGET_R, POPULATION).params,
                2 => analysis::solve_joint(p, TARGET_R, POPULATION).params,
                _ => analysis::solve_share(p, TARGET_R, POPULATION, ALPHA).params,
            };
            let params = match (scheme, tracer.as_deref_mut()) {
                (1.., Some(t)) => t.span("analysis.solve", solve),
                _ => solve(),
            };
            let solve_s = t0.elapsed().as_secs_f64();
            let holders = params.node_cost();
            let spec = TrialSpec {
                params,
                population: POPULATION,
                p,
                alpha: Some(ALPHA),
                unavailability: 0.0,
            };
            let t1 = Instant::now();
            let run = || run_trials(&spec, trials, seed ^ salt);
            let results = match tracer.as_deref_mut() {
                Some(t) => t.span(span, run),
                None => run(),
            }
            .map_err(|e| format!("fig7 cell p={p} {name}: {e}"))?;
            cells.push(Cell {
                p,
                scheme,
                solve_s,
                run_s: t1.elapsed().as_secs_f64(),
                holders,
                r: results.r_min(),
            });
        }
    }
    if let (Some(t), Some(root)) = (tracer, root) {
        t.exit(root);
    }
    Ok(Figure {
        cells,
        wall_s: start.elapsed().as_secs_f64(),
        trials: trials * PS.len() * SCHEMES.len(),
    })
}

/// Checks `fig` against the program's own Figure 7 code for the same
/// seed and trial count.
///
/// # Errors
///
/// The first differing cell.
pub fn check_against_program(fig: &Figure, seed: u64, trials: usize) -> Result<(), String> {
    let table = fig7_churn_resilience(POPULATION, ALPHA, &PS, trials, seed);
    for cell in &fig.cells {
        let row = table
            .row_at(cell.p)
            .ok_or_else(|| format!("program figure lacks p={}", cell.p))?;
        let expected = row[1 + cell.scheme];
        if expected.to_bits() != cell.r.to_bits() {
            return Err(format!(
                "p={} {}: R {} != program's {expected}",
                cell.p, SCHEMES[cell.scheme].0, cell.r
            ));
        }
    }
    Ok(())
}

/// Checks the recorded reference slice, which pins the model's numbers
/// independently of the run's seed.
///
/// # Errors
///
/// A digest other than the recorded one.
pub fn check_golden() -> Result<(), String> {
    let fig = figure(GOLDEN_SEED, GOLDEN_TRIALS, None)?;
    let got = fig.digest();
    if got == GOLDEN_DIGEST {
        Ok(())
    } else {
        Err(format!(
            "reference slice digest {got:#018x} != recorded {GOLDEN_DIGEST:#018x}"
        ))
    }
}
