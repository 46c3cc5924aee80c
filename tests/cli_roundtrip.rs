//! End-to-end CLI round-trip: module text → `spillopt optimize` →
//! parseable optimized module, and `spillopt report` → deterministic
//! JSON, driving the real binary.

use spillopt_ir::{
    display, parse_module, Callee, Cond, FunctionBuilder, Module, Reg, RegDiscipline,
};
use std::path::PathBuf;
use std::process::Command;

/// A small module whose functions keep values live across calls, so the
/// allocator must use callee-saved registers and the placement pass has
/// real work to do.
fn sample_module() -> Module {
    let mut module = Module::new("sample");
    for i in 0..3 {
        let mut fb = FunctionBuilder::new(format!("f{i}"), 2);
        let entry = fb.create_block(Some("entry"));
        let cold = fb.create_block(Some("cold"));
        let join = fb.create_block(Some("join"));
        fb.switch_to(entry);
        let a = fb.li(10 + i);
        let b = fb.li(3);
        // Taken edge to `join` (b < a always holds), falling through to
        // the never-executed `cold` block, which is next in layout.
        fb.branch(Cond::Lt, Reg::Virt(b), Reg::Virt(a), join, cold);
        fb.switch_to(cold);
        // A value live across a call: forces callee-saved usage here.
        let _ = fb.call(Callee::External(0), &[]);
        fb.jump(join);
        fb.switch_to(join);
        fb.ret(Some(Reg::Virt(a)));
        module.add_func(fb.finish());
    }
    module
}

fn spillopt(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_spillopt"))
        .args(args)
        .output()
        .expect("spawn spillopt")
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spillopt-cli-{}-{name}", std::process::id()));
    p
}

#[test]
fn optimize_round_trips_through_text() {
    let module = sample_module();
    let input = temp_path("input.ir");
    let output = temp_path("optimized.ir");
    std::fs::write(&input, display::module_to_string(&module)).expect("write input");

    let out = spillopt(&[
        "optimize",
        "--input",
        input.to_str().unwrap(),
        "--out",
        output.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "optimize failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The optimized text parses back into a physical, verifier-clean
    // module with the same function count.
    let text = std::fs::read_to_string(&output).expect("read optimized");
    let optimized = parse_module(&text).expect("parse optimized");
    assert_eq!(optimized.num_funcs(), module.num_funcs());
    for f in optimized.func_ids() {
        let errs = spillopt_ir::verify_function(optimized.func(f), RegDiscipline::Physical);
        assert!(errs.is_empty(), "{:?}", errs);
    }

    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&output);
}

#[test]
fn report_json_is_deterministic_across_thread_counts() {
    let module = sample_module();
    let input = temp_path("report-input.ir");
    std::fs::write(&input, display::module_to_string(&module)).expect("write input");

    let mut reports = Vec::new();
    for threads in ["1", "4"] {
        let out = spillopt(&[
            "report",
            "--input",
            input.to_str().unwrap(),
            "--compact",
            "--threads",
            threads,
        ]);
        assert!(
            out.status.success(),
            "report failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        reports.push(String::from_utf8(out.stdout).expect("utf8"));
    }
    assert_eq!(reports[0], reports[1], "report depends on thread count");
    assert!(reports[0].contains(r#""module":"sample""#));
    assert!(reports[0].contains(r#""strategy":"hier-jump""#));

    let _ = std::fs::remove_file(&input);
}

#[test]
fn bad_usage_exits_with_code_two() {
    let out = spillopt(&["optimize"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    // `bench` is no subcommand: the benchmark is `spillbench/`.
    let out = spillopt(&["bench", "--json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand `bench`"));
}

/// Hostile `--input` files fail cleanly: exit 1 with a message naming
/// the problem, never a panic or an allocator abort.
#[test]
fn hostile_inputs_exit_one_without_a_panic() {
    let func = "func @f(0) {\n  vregs 1\nblock A:\n  ret v0\n  v0 = li 1\n}\n";
    let duplicate_func = format!("module m\n\n{func}\n{func}");
    let cases = [
        (
            "huge-vregs.ir",
            "module m\n\nfunc @f(0) {\n  vregs 99999999999\nblock A:\n  ret\n}\n",
            &[][..],
            "line 4: vreg count 99999999999 exceeds the limit",
        ),
        (
            "foreign-preg.ir",
            "module m\n\nfunc @f(0) {\nblock A:\n  r99 = li 1\n  ret\n}\n",
            &[],
            "function `f` uses physical register r99, outside target",
        ),
        (
            "duplicate-func.ir",
            duplicate_func.as_str(),
            &[],
            "line 10: duplicate function `@f` (first defined on line 3)",
        ),
        (
            "duplicate-block.ir",
            "module m\n\nfunc @f(0) {\nblock A:\n  jmp A\nblock A:\n  ret\n}\n",
            &[],
            "line 6: duplicate block label `A` (first defined on line 4)",
        ),
        (
            "huge-threads.ir",
            "module m\n\nfunc @f(0) {\nblock A:\n  ret\n}\n",
            &["--threads", "200000"],
            "200000 worker threads requested; the limit is 1024",
        ),
    ];
    for (name, text, extra, needle) in cases {
        let input = temp_path(name);
        std::fs::write(&input, text).expect("write input");
        for target in ["pa-risc-like", "all"] {
            let mut args = vec![
                "report",
                "--input",
                input.to_str().unwrap(),
                "--target",
                target,
            ];
            args.extend_from_slice(extra);
            let out = spillopt(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name} on {target}: {stderr}");
            assert!(stderr.contains(needle), "{name} on {target}: {stderr}");
            assert!(!stderr.contains("panic"), "{name} on {target}: {stderr}");
        }
        let _ = std::fs::remove_file(&input);
    }
}
