//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for the given time and prints, as the last line of
//! standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Lines before it (prefixed `# `)
//! carry the host and provenance stamp, the correctness checks and, on
//! a traced run, the per-span table. Exits 1 when a check fails, 2 on a
//! usage error. `perfbench --sweep-worker` serves sweep units on
//! stdin/stdout (the workers of the `sweep_schemes` workload).

use std::io::{BufReader, Write};
use std::path::PathBuf;

use emerge_obs::alloccount::CountingAllocator;
use emerge_sweep::worker::{serve, ServeOutcome};
use perfbench::host;
use perfbench::workloads::{self, Args, WORKLOADS};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scratch = PathBuf::from(".bench_build/perfbench-run");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            "--scratch" => scratch = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scratch,
        worker_command: vec![
            exe.to_string_lossy().into_owned(),
            "--sweep-worker".to_string(),
        ],
    })
}

fn sweep_worker() -> i32 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut reader = BufReader::new(stdin.lock());
    let mut writer = stdout.lock();
    match serve(&mut reader, &mut writer, None) {
        Ok(ServeOutcome::Eof | ServeOutcome::ChaosKilled) => {
            let _ = writer.flush();
            0
        }
        Err(e) => {
            eprintln!("perfbench sweep worker: {e}");
            1
        }
    }
}

fn real_main() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--sweep-worker") {
        return sweep_worker();
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    println!(
        "# host {}",
        host::stamp(&args.workload, args.seed, args.trace)
    );
    match workloads::run(&args) {
        Ok(report) => {
            for note in &report.notes {
                println!("# {note}");
            }
            println!("{}", report.outcome.to_json());
            i32::from(!report.outcome.correct)
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            1
        }
    }
}

fn main() {
    let code = real_main();
    let _ = std::io::stdout().flush();
    std::process::exit(code);
}
