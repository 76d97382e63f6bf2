//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints the result line last on stdout.  A human
//! summary goes to stderr; the full report (and, when traced, every span)
//! is written under `perfbench/out/`.  Exits non-zero on a wrong answer, a
//! failed reconciliation, or a schema problem.

use std::process::ExitCode;

use perfbench::trace;
use perfbench::workload::{self, RunConfig, Workload};

const USAGE: &str = "usage: perfbench --workload <query-warm|query-cold|serve-tcp> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(f64::is_finite(seconds) && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match workload::run(cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let schema = perfbench::validate(&report);
    let correct = report.gate.is_empty() && schema.is_empty();

    let stem = format!(
        "perfbench/out/{}-seed{}-trace{}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    let full = perfbench::report_json(&report, &schema).render();
    let written = std::fs::create_dir_all("perfbench/out")
        .and_then(|()| std::fs::write(format!("{stem}.json"), format!("{full}\n")))
        .and_then(|()| {
            if cfg.trace {
                std::fs::write(format!("{stem}.spans.csv"), trace::to_csv(&report.spans))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write the report under perfbench/out: {e}");
        return ExitCode::FAILURE;
    }

    eprintln!(
        "{} seed {}: {} samples ({} beyond p90), setup reps {:?}",
        cfg.workload.name(),
        cfg.seed,
        report.samples.0,
        report.samples.2,
        report.setup_s
    );
    for k in &report.per_key {
        eprintln!(
            "  {:<26} {:>6} answered  p50 {:>9.3} ms  p90 {:>9.3} ms",
            k.label,
            k.answered,
            k.p50_ns as f64 / 1e6,
            k.p90_ns as f64 / 1e6
        );
    }
    for m in &report.metrics {
        eprintln!("  {:<42} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for p in report.gate.iter().chain(&schema) {
        eprintln!("  FAILED: {p}");
    }
    println!("{}", perfbench::result_line(&report, correct).render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
