//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics; the last line of standard
//! output is one JSON object. Exits non-zero when any correctness check
//! fails. A traced run writes its last traced episode's spans to
//! `.bench_out/spans-<workload>-<seed>.csv`.

use std::io::{BufWriter, Write};
use std::process::ExitCode;

use acp_perfbench::runner::{self, Report};
use acp_perfbench::workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {value}: must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(42),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn write_spans(report: &Report, seed: u64) -> std::io::Result<String> {
    let Some(last) = report
        .episodes
        .iter()
        .zip(&report.traced)
        .rev()
        .find(|(_, &t)| t)
        .map(|(e, _)| e)
    else {
        return Ok(String::new());
    };
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/spans-{}-{seed}.csv", report.workload.name());
    let mut out = BufWriter::new(std::fs::File::create(&path)?);
    last.tracer.write_csv(&mut out)?;
    out.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <paper_steady|scale_churn|chaos_lossy> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut report = runner::run(args.workload, args.seed, args.seconds, args.trace);
    if args.trace {
        match write_spans(&report, args.seed) {
            Ok(path) => println!("spans {path}"),
            Err(e) => report.breaches.push(format!("writing spans: {e}")),
        }
    }
    println!(
        "workload {} seed {} episodes {} ({} traced)",
        args.workload.name(),
        args.seed,
        report.episodes.len(),
        report.traced.iter().filter(|&&t| t).count()
    );
    for note in &report.notes {
        println!("{note}");
    }
    for m in &report.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for b in &report.breaches {
        println!("CHECK FAILED: {b}");
    }
    println!("{}", runner::json_line(&report));
    if report.breaches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
