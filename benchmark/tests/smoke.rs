//! `--smoke`: every workload at about a twentieth of the work, both passes,
//! with the same correctness checks as a measured run.

use std::process::Command;

#[test]
fn smoke_suite_runs_every_workload_correctly() {
    let out_dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let out = out_dir.join("smoke.json");
    let started = std::time::Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_spotlake-bench"))
        .args(["--smoke", "--seed", "5", "--out"])
        .arg(&out)
        .current_dir(&out_dir)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    for workload in [
        "sim_experiment",
        "collect_mem",
        "collect_durable",
        "serve_point",
        "serve_scan",
        "live",
    ] {
        assert!(
            stdout.contains(&format!("{workload}: "))
                && stdout.contains(&format!("== {workload} · traced pass")),
            "{workload} missing from:\n{stdout}"
        );
    }
    assert!(
        !stdout.contains("INCORRECT") && !stdout.contains("FAILED"),
        "{stdout}"
    );
    let written = std::fs::read_to_string(&out).expect("--out was written");
    assert!(written.starts_with("{\"schema\":\"spotlake-bench/1\",\"seed\":5,"));
    // Scratch directories are gone once every child has exited.
    let scratch = out_dir.join("target/spotlake-bench");
    let leftovers: Vec<_> = std::fs::read_dir(&scratch)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.path().is_dir())
                .map(|e| e.path())
                .collect()
        })
        .unwrap_or_default();
    assert!(leftovers.is_empty(), "scratch left behind: {leftovers:?}");
    println!("smoke suite took {:.1?}", started.elapsed());
}
