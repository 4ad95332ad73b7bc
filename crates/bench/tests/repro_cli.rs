//! `repro` rejects a malformed command line with the usage line and exit
//! code 2 instead of panicking.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn flags_missing_or_with_bad_values_exit_2_with_usage() {
    for args in [
        &["--out"][..],
        &["--json"],
        &["--threads"],
        &["--threads", "x"],
        &["--effort", "fast"],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    }
}
