//! `ledger --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]`
//!
//! Runs one benchmark workload, prints each metric as
//! `<name> <value> <unit> (n=<samples>)`, then the result as one JSON
//! object on the last line of standard output. Exits 1 when an output
//! check failed and 2 on bad arguments.

use std::process::ExitCode;

use busbw_ledger::{layer_moves, run, Config, Workload, WORKERS};

const USAGE: &str = "usage: ledger --workload <sweep-cold|sweep-warm|regret|topo|open> \
                     [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]";

struct Args {
    cfg: Config,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds: f64 = 12.0;
    let mut trace = false;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds < 0.0 {
                    return Err("--seconds must be a finite number >= 0".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--trace-out" => trace_out = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if trace_out.is_some() && !trace {
        return Err("--trace-out needs --trace 1".into());
    }
    Ok(Args {
        cfg: Config::new(workload, seed, seconds, trace),
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.cfg;
    println!(
        "# ledger {} seed={} scale={} workers={WORKERS} available_parallelism={} trace={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.workload.scale() * cfg.size,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        u8::from(cfg.trace)
    );
    let report = run(cfg);
    println!("# figures fnv1a64 {:016x}", report.digest);
    for m in &report.metrics {
        let moves = layer_moves(&m.name).map_or(String::new(), |(e2e, workloads)| {
            format!("  -> {e2e} on {}", workloads.join(","))
        });
        println!("{} {} {} (n={}){moves}", m.name, m.value, m.unit, m.samples);
    }
    for e in &report.errors {
        eprintln!("ledger: check failed: {e}");
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, report.spans.to_jsonl()) {
            eprintln!("ledger: writing {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
