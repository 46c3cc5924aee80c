//! Command line: `spillbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`.
//!
//! Prints a header, the descriptor, the deterministic counts, one line per
//! metric and any notes, then — as the last line of standard output — the
//! result object. Spans and the full record are written under
//! `.bench_out/`. Exits 1 when any output check failed, 2 on a usage
//! error.

use spillbench::run::{run, Config};
use spillbench::workload::{Kind, Size};
use spillopt_driver::Json;
use std::process::ExitCode;

const USAGE: &str = "usage: spillbench --workload <stress_cold|spec_pgo|drift_warm> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Config {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::full(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("spillbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&cfg);
    println!(
        "# spillbench {} seed={} seconds={} trace={}",
        cfg.kind.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!("descriptor {}", outcome.descriptor.to_compact());
    println!("counts {}", outcome.counts.to_compact());
    for m in &outcome.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for n in &outcome.notes {
        println!("note {n}");
    }
    let result = outcome.result_json();
    let mut record = Json::obj()
        .with("descriptor", outcome.descriptor.clone())
        .with("counts", outcome.counts.clone())
        .with("result", result.clone())
        .with("passes", outcome.passes.clone())
        .with(
            "notes",
            Json::Array(outcome.notes.iter().map(Json::str).collect()),
        );
    if let Some(spans) = &outcome.spans {
        record = record.with("spans", spans.clone());
    }
    let path = format!(
        ".bench_out/{}-seed{}-trace{}.json",
        cfg.kind.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    if let Err(e) = std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::write(&path, record.to_compact()))
    {
        eprintln!("spillbench: could not write {path}: {e}");
    }
    println!("{}", result.to_compact());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
