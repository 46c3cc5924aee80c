//! The benchmark's own tests, at smoke size: every metric is reported
//! with its unit on every workload, the traced replay reproduces the
//! session, and the correctness gate catches a corrupted output.

use spillbench::gate;
use spillbench::replay::{Expected, ModuleJob, Profiles, ReplayArena, Replayer, Source};
use spillbench::run::{run, Config, END_TO_END, PER_LAYER};
use spillbench::workload::{Bench, Kind, Size};
use spillopt_ir::{FuncId, InstKind, MemKind};

fn smoke(kind: Kind, trace: bool) -> Config {
    Config {
        kind,
        seed: 7,
        seconds: 0.2,
        trace,
        size: Size::smoke(),
    }
}

/// The names and units `BENCHMARK.json` declares, in file order.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("key present");
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = open + rest[open..].find('"').expect("value closes");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn as_owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_the_reported_metrics() {
    assert_eq!(declared("end_to_end"), as_owned(&END_TO_END));
    assert_eq!(declared("per_layer"), as_owned(&PER_LAYER));
}

#[test]
fn every_metric_is_reported_with_its_unit_on_every_workload() {
    for kind in Kind::ALL {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let outcome = run(&smoke(kind, trace));
            assert!(
                outcome.correct,
                "{} trace={trace}: {:?}",
                kind.name(),
                outcome.notes
            );
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);
            let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, table, "{} trace={trace}", kind.name());
            for m in &outcome.metrics {
                assert!(
                    m.value.is_finite(),
                    "{} {} = {}",
                    kind.name(),
                    m.name,
                    m.value
                );
            }
            let line = outcome.result_json().to_compact();
            for (name, unit) in table {
                assert!(
                    line.contains(&format!("\"{name}\":{{\"value\":")),
                    "{name} missing"
                );
                assert!(line.contains(&format!("\"unit\":\"{unit}\"")));
            }
            if trace {
                assert!(outcome.spans.is_some());
                assert!(!outcome.notes.iter().any(|n| n.contains("differ")));
            }
        }
    }
}

#[test]
fn replay_detects_a_report_it_does_not_reproduce() {
    let (mut bench, _) = Bench::setup(Kind::StressCold, 3, Size::smoke());
    let pass = bench.pass(1);
    let unit = &bench.corpus.units[0];
    let out = pass.modules[0].as_ref().expect("smoke module optimizes");
    let target = bench.corpus.targets[unit.target].to_target();
    let job = ModuleJob {
        pass: 1,
        module: 0,
        target: &target,
        costs: bench.corpus.targets[unit.target].costs,
        source: Source::Text(&unit.text),
        profiles: Profiles::Synthetic,
        print: true,
    };
    let faithful = Expected {
        report: &out.run.report,
        applied_text: &out.best_text,
    };
    Replayer::new(true)
        .module(&mut ReplayArena::default(), &job, Some(faithful))
        .expect("the replay reproduces the session");

    let tampered_text = format!("{}\n", out.best_text);
    let tampered = Expected {
        applied_text: &tampered_text,
        ..faithful
    };
    assert!(Replayer::new(true)
        .module(&mut ReplayArena::default(), &job, Some(tampered))
        .is_err());
}

#[test]
fn gate_catches_a_corrupted_applied_module() {
    let (mut bench, _) = Bench::setup(Kind::StressCold, 7, Size::smoke());
    let mut pass = bench.pass(1);
    assert!(gate::check(&bench.corpus, &pass, false).failed.is_empty());

    // Drop every callee-saved restore from the applied modules: the
    // caller must observe a clobbered register.
    let mut removed = 0;
    for out in pass.modules.iter_mut().flatten() {
        for fi in 0..out.best.num_funcs() {
            let func = out.best.func_mut(FuncId::from_index(fi));
            let blocks: Vec<_> = func.block_ids().collect();
            for b in blocks {
                let insts = &mut func.block_mut(b).insts;
                let before = insts.len();
                insts.retain(|i| {
                    !matches!(
                        i.kind,
                        InstKind::Load {
                            kind: MemKind::CalleeSave,
                            ..
                        }
                    )
                });
                removed += before - insts.len();
            }
        }
    }
    assert!(removed > 0, "the smoke corpus places callee-saved code");
    let g = gate::check(&bench.corpus, &pass, false);
    assert!(!g.failed.is_empty(), "corruption went unnoticed");
    assert!(!g.messages.is_empty());
}
