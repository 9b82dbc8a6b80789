//! `run.sh --smoke`: every workload, untraced and traced, for two seconds,
//! against freshly built servers. Only the checks inside each run are
//! judged (conservation, client tallies against the servers' own, clean
//! drains, equal registry digests, span closure); two-second numbers mean
//! nothing.

use std::process::Command;

#[test]
fn every_workload_passes_its_checks_in_a_two_second_run() {
    let run_sh = concat!(env!("CARGO_MANIFEST_DIR"), "/run.sh");
    let output = Command::new("sh")
        .arg(run_sh)
        .arg("--smoke")
        .output()
        .expect("run.sh starts");
    assert!(
        output.status.success(),
        "run.sh --smoke failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
