//! The repository benchmark: four workloads that cover the system's three
//! jobs (train, serve, forecast), each run through the public APIs of the
//! workspace crates.  See README.md for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-paper|train-streamed|serve-open|whatif-census|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the run's
//! checks and metrics: the end-to-end metrics untraced (`--trace 0`), the
//! per-layer metrics traced (`--trace 1`).  `--workload all` runs each
//! workload in a child process of its own (so peak memory stays per
//! workload) and prints every metric of every workload.

mod host;
mod probes;
mod report;
mod serve;
mod stats;
mod timed;
mod trace;
mod train;
mod whatif;

use std::io::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;

use report::{json_line, unit_of, Outcome, END_TO_END, PER_LAYER};
use trace::Tracer;

const WORKLOADS: [&str; 4] = [
    "train-paper",
    "train-streamed",
    "serve-open",
    "whatif-census",
];

/// Where traces and result records go, relative to the checkout root.
const OUT_DIR: &str = ".bench_out";

/// What every workload reads: its seed, how long to measure, and the tracer
/// (disabled on untraced runs).
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
}

/// What a call cost: its wall time, the CPU time the whole process (every
/// thread) spent meanwhile, and the CPU time the hypervisor stole from this
/// machine's CPUs meanwhile (all CPUs).  Stolen time lengthens wall time
/// but is not charged as CPU time.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub steal_s: f64,
}

impl Cost {
    /// The field-wise median of several costs.
    pub fn median(costs: &[Cost]) -> Cost {
        let m = |f: fn(&Cost) -> f64| stats::median(&costs.iter().map(f).collect::<Vec<_>>());
        Cost {
            wall_s: m(|c| c.wall_s),
            cpu_s: m(|c| c.cpu_s),
            steal_s: m(|c| c.steal_s),
        }
    }
}

/// `f`'s result and what it cost.
pub fn costed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let (cpu0, steal0) = host::cpu_and_steal_s();
    let t0 = Instant::now();
    let value = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let (cpu1, steal1) = host::cpu_and_steal_s();
    let cost = Cost {
        wall_s,
        cpu_s: cpu1 - cpu0,
        steal_s: steal1 - steal0,
    };
    (value, cost)
}

/// Run `job` at least once, and again while another run is expected to end
/// within `seconds` of the first start.
pub fn repeat_for<T>(seconds: f64, mut job: impl FnMut() -> T) -> Vec<(T, Cost)> {
    let start = Instant::now();
    let mut runs = Vec::new();
    loop {
        let (value, cost) = costed(&mut job);
        runs.push((value, cost));
        if start.elapsed().as_secs_f64() + cost.wall_s > seconds {
            return runs;
        }
    }
}

/// Median set-up cost over the `first` run and `extra` more runs of
/// `setup`, whose results are dropped.  Workloads call this after reading
/// peak memory: memory freed by repeated set-ups stays with the allocator
/// and would make the peak depend on fragmentation.
pub fn setup_median<T>(first: Cost, extra: usize, setup: impl Fn() -> T) -> Cost {
    let mut costs = vec![first];
    costs.extend((0..extra).map(|_| costed(&setup).1));
    Cost::median(&costs)
}

/// Set the end-to-end metrics of a workload whose job is CPU-bound:
/// throughput from CPU time, with the wall-clock figures printed beside it
/// (see README.md for why), and the served latency of its model.
pub fn record_cpu_bound(
    out: &mut Outcome,
    setup: &Cost,
    job: &Cost,
    work: f64,
    served_p50_us: f64,
    quality: f64,
) {
    let e = &mut out.end_to_end;
    e.set("setup_s", setup.wall_s);
    e.set("throughput", work / job.cpu_s);
    e.set("latency_us", served_p50_us);
    e.set("quality", quality);
    out.detail("setup_cpu_s", setup.cpu_s, "s");
    out.detail("job_wall_s", job.wall_s, "s");
    out.detail("job_cpu_s", job.cpu_s, "s");
    out.detail("job_steal_s", job.steal_s, "s");
    out.detail("throughput_wall", work / job.wall_s, "1/s");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }

    let host = host::Host::probe();
    let threads = format!(
        "train {}, serve {} + 2 load threads",
        train::TRAIN_THREADS,
        serve::serve_config().threads
    );
    println!(
        "host: nproc {} | cpu {} | git {} | profile {} | threads {threads}",
        host.nproc, host.cpu_model, host.git_rev, host.profile
    );
    println!(
        "workload {} | seed {} | seconds {} | trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
    };
    let mut outcome = {
        let _s = ctx.tracer.span(&format!("workload.{}", args.workload));
        match args.workload.as_str() {
            "train-paper" => train::paper(&ctx),
            "train-streamed" => train::streamed(&ctx),
            "serve-open" => serve::run(&ctx),
            "whatif-census" => whatif::run(&ctx),
            _ => unreachable!("workload validated by parse_args"),
        }
    };
    if args.trace {
        outcome
            .layers
            .set("trace.spans", ctx.tracer.spans().len() as f64);
    }

    print_human(&outcome, args.trace);
    let (table, metrics) = if args.trace {
        (PER_LAYER, &outcome.layers)
    } else {
        (END_TO_END, &outcome.end_to_end)
    };
    let line = json_line(&outcome, table, metrics);
    if let Err(e) = record(&args, &host, &ctx.tracer, &line) {
        eprintln!("perfbench: could not write {OUT_DIR}: {e}");
    }
    println!("{line}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_human(outcome: &Outcome, traced: bool) {
    for (name, ok) in &outcome.checks {
        println!("check {}: {name}", if *ok { "PASS" } else { "FAIL" });
    }
    println!(
        "attempted {} | failed {}",
        outcome.attempted, outcome.failed
    );
    for (name, value, unit) in &outcome.details {
        println!("  {name:<40} {value:>14.6} {unit}");
    }
    let (table, metrics) = if traced {
        (PER_LAYER, &outcome.layers)
    } else {
        (END_TO_END, &outcome.end_to_end)
    };
    for (name, value) in metrics.iter() {
        println!("  {name:<40} {value:>14.6} {}", unit_of(table, name));
    }
}

/// Append the result with its host to `results.jsonl`, and on traced runs
/// write every span.
fn record(args: &Args, host: &host::Host, tracer: &Tracer, line: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let mut results = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(format!("{OUT_DIR}/results.jsonl"))?;
    writeln!(
        results,
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {{\"nproc\": {}, \"cpu\": \"{}\", \"git\": \"{}\", \"profile\": \"{}\", \
         \"train_threads\": {}, \"serve_threads\": {}}}, \"result\": {line}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        host.nproc,
        host.cpu_model.replace('"', "'"),
        host.git_rev,
        host.profile,
        train::TRAIN_THREADS,
        serve::serve_config().threads,
    )?;
    if args.trace {
        std::fs::write(
            format!("{OUT_DIR}/trace-{}-seed{}.jsonl", args.workload, args.seed),
            tracer.to_json_lines(),
        )?;
    }
    Ok(())
}

/// Run every workload in its own child process and print all metrics.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("run a workload child process");
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        ok &= output.status.success();
        rows.push((workload, stdout.lines().last().unwrap_or("").to_string()));
    }
    println!("\nsummary (last line of each workload):");
    for (workload, line) in &rows {
        println!("{workload}: {line}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
