//! Integration tests of the `spgemm` command-line tool, driven through
//! the real binary.

use std::path::PathBuf;
use std::process::Command;

fn spgemm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spgemm"))
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oocgemm_cli_{}_{name}", std::process::id()))
}

#[test]
fn generated_input_runs_every_executor() {
    for executor in [
        "cpu",
        "gpu-sync",
        "gpu-async",
        "hybrid",
        "multi-gpu:2",
        "unified",
    ] {
        let out = spgemm()
            .args(["--gen", "rmat:10:8000:7", "--executor", executor])
            .output()
            .expect("spawn spgemm");
        assert!(
            out.status.success(),
            "executor {executor} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("GFLOPS"),
            "{executor}: no GFLOPS line:\n{stdout}"
        );
        assert!(
            stdout.contains("nnz(C)"),
            "{executor}: no result size:\n{stdout}"
        );
    }
}

#[test]
fn mtx_roundtrip_through_cli() {
    // Write an input, multiply via CLI, read the result back, verify.
    let a = sparse::gen::erdos_renyi(80, 80, 0.06, 3);
    let input = temp("in.mtx");
    let output = temp("out.mtx");
    sparse::io::write_matrix_market(&input, &a).unwrap();

    let out = spgemm()
        .args([
            "--input",
            input.to_str().unwrap(),
            "--executor",
            "gpu-async",
            "--out",
            output.to_str().unwrap(),
        ])
        .output()
        .expect("spawn spgemm");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let c = sparse::io::read_matrix_market(&output).unwrap();
    let expect = cpu_spgemm::reference::multiply(&a, &a).unwrap();
    assert!(c.approx_eq(&expect, 1e-9), "CLI result diverged");
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&output).ok();
}

#[test]
fn trace_output_is_valid_chrome_json() {
    let trace = temp("trace.json");
    let out = spgemm()
        .args([
            "--gen",
            "rmat:9:4000:1",
            "--executor",
            "gpu-async",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("spawn spgemm");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&trace).unwrap();
    let events: serde_json::Value = serde_json::from_str(&json).unwrap();
    let events = events.as_array().unwrap();
    assert!(!events.is_empty());
    assert!(events.iter().all(|e| e["ph"] == "X"));
    std::fs::remove_file(&trace).ok();
}

#[test]
fn suite_input_and_auto_ratio() {
    let out = spgemm()
        .args([
            "--suite",
            "nlp:tiny",
            "--executor",
            "hybrid",
            "--ratio",
            "auto",
        ])
        .output()
        .expect("spawn spgemm");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("assignment:"),
        "no hybrid assignment line:\n{stdout}"
    );
}

#[test]
fn bad_arguments_exit_nonzero() {
    for args in [
        vec!["--executor", "warp-drive"],
        vec!["--gen", "not-a-spec"],
        vec!["--suite", "not-a-matrix"],
    ] {
        let out = spgemm().args(&args).output().expect("spawn spgemm");
        assert!(
            !out.status.success(),
            "args {args:?} unexpectedly succeeded"
        );
    }
}

#[test]
fn estimator_flags_run_and_report() {
    for kind in ["exact", "upper-bound", "row-sample", "hash-sketch"] {
        let out = spgemm()
            .args(["--gen", "rmat:10:8000:7", "--estimator", kind])
            .output()
            .expect("spawn spgemm");
        assert!(
            out.status.success(),
            "--estimator {kind}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        if kind == "exact" {
            assert!(!stdout.contains("estimator:"), "{stdout}");
        } else {
            assert!(
                stdout.contains(&format!("estimator: {kind}")),
                "no estimator line for {kind}:\n{stdout}"
            );
        }
    }
}

#[test]
fn host_fault_and_budget_flags_run_and_report() {
    let out = spgemm()
        .args([
            "--gen",
            "rmat:10:8000:7",
            "--executor",
            "gpu-async",
            "--host-fault-seed",
            "11",
            "--host-fault-rate",
            "0.3",
            "--fault-seed",
            "11",
            "--fault-rate",
            "0.1",
            "--deadline-ns",
            "900000000000",
        ])
        .output()
        .expect("spawn spgemm");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("host fault injection: seed 11"),
        "no host-fault line:\n{stdout}"
    );
    assert!(
        stdout.contains("run budget: 900000000000 ns"),
        "no budget line:\n{stdout}"
    );
    assert!(
        stdout.contains("recovery:") && stdout.contains("host faults"),
        "no recovery summary:\n{stdout}"
    );
}

#[test]
fn unmeetable_deadline_is_a_clean_error() {
    // A 1 ns budget cannot be met; the executor must return the
    // DeadlineExceeded error (exit 1 with a message), never hang or
    // panic.
    let out = spgemm()
        .args([
            "--gen",
            "rmat:10:8000:7",
            "--executor",
            "gpu-async",
            "--deadline-ns",
            "1",
        ])
        .output()
        .expect("spawn spgemm");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("deadline exceeded"),
        "wrong failure: {stderr}"
    );
}

#[test]
fn bad_supervision_flags_exit_2() {
    for args in [
        vec!["--gen", "rmat:10:8000:7", "--host-fault-rate", "NaN"],
        vec!["--gen", "rmat:10:8000:7", "--host-fault-rate", "-0.5"],
        vec!["--gen", "rmat:10:8000:7", "--host-fault-rate", "1.5"],
        vec!["--gen", "rmat:10:8000:7", "--host-fault-rate", "bogus"],
        vec!["--gen", "rmat:10:8000:7", "--host-fault-seed", "-3"],
        vec!["--gen", "rmat:10:8000:7", "--deadline-ns", "0"],
        vec!["--gen", "rmat:10:8000:7", "--deadline-ns", "-1"],
        vec!["--gen", "rmat:10:8000:7", "--deadline-ns", "bogus"],
    ] {
        let out = spgemm().args(&args).output().expect("spawn spgemm");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?} must exit 2, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn bad_estimator_flags_exit_2() {
    for args in [
        vec!["--gen", "rmat:10:8000:7", "--estimator", "crystal-ball"],
        vec!["--gen", "rmat:10:8000:7", "--sample-rate", "0"],
        vec!["--gen", "rmat:10:8000:7", "--sample-rate", "1.5"],
        vec!["--gen", "rmat:10:8000:7", "--sample-rate", "bogus"],
        vec!["--gen", "rmat:10:8000:7", "--headroom", "0.5"],
        vec!["--gen", "rmat:10:8000:7", "--headroom", "inf"],
        vec!["--gen", "rmat:10:8000:7", "--headroom", "bogus"],
    ] {
        let out = spgemm().args(&args).output().expect("spawn spgemm");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?} must exit 2, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn cpu_kernel_flag_outside_cpu_executor_warns() {
    for executor in ["cpu", "gpu-async", "hybrid"] {
        let out = spgemm()
            .args([
                "--gen",
                "rmat:6:200:1",
                "--executor",
                executor,
                "--cpu-kernel",
                "merge",
            ])
            .output()
            .expect("spawn spgemm");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{executor}: {stderr}");
        let warned = stderr.contains("--cpu-kernel has no effect") && stderr.contains("ignored");
        assert_eq!(
            warned,
            executor != "cpu",
            "{executor}: unexpected warning state:\n{stderr}"
        );
    }
}

#[test]
fn cpu_and_unified_executors_write_metrics() {
    for executor in ["cpu", "unified"] {
        let path = temp(&format!("metrics_{executor}.json"));
        let out = spgemm()
            .args([
                "--gen",
                "rmat:10:8000:7",
                "--executor",
                executor,
                "--device-mb",
                "1",
                "--metrics-out",
                path.to_str().unwrap(),
            ])
            .output()
            .expect("spawn spgemm");
        assert!(
            out.status.success(),
            "{executor}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let m: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        // completion_ns is the executor's simulated time, which the
        // summary line prints in ms.
        let ns = m["completion_ns"].as_u64().expect("completion_ns");
        assert!(ns > 0, "{executor}");
        let done = format!("done: {:.3} ms simulated", ns as f64 / 1e6);
        assert!(
            stdout.contains(&done),
            "{executor}: no `{done}` in\n{stdout}"
        );
        let degradations = m["degradations"].as_array().unwrap();
        if executor == "unified" {
            // A 1 MiB device thrashes on this input.
            assert!(stdout.contains("(thrashing)"), "{stdout}");
            assert_eq!(degradations.len(), 1);
            assert_eq!(degradations[0]["cause"], "unified_thrash");
        } else {
            assert!(degradations.is_empty());
        }
    }
}
