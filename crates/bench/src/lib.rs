//! # qld-bench
//!
//! Criterion benchmarks, one per experiment table of `EXPERIMENTS.md`
//! (E2–E9 and E12).  The benchmarks time exactly the workloads defined in
//! `qld_harness::workloads`, so the rows of the experiment tables and the bench
//! results refer to the same instances.
//!
//! Run with `cargo bench --workspace`; individual experiments with e.g.
//! `cargo bench -p qld-bench --bench e4_solvers`.

#![forbid(unsafe_code)]

/// Shared Criterion configuration: short measurement windows so that the full suite
/// regenerates every table-backing series in a few minutes.
pub fn quick() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
}

/// `target/<file_name>`, located from the bench executable's own path
/// (`target/<profile>/deps/<bench>-…`).  `None` when the executable path is
/// unavailable or too shallow to contain a target directory.
pub fn trajectory_path(file_name: &str) -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    // deps -> profile -> target
    let target = exe.parent()?.parent()?.parent()?;
    Some(target.join(file_name))
}

/// The repo-root mirror of a trajectory file: `BENCH_<file_name>` in the
/// workspace directory (two levels above this crate's manifest, captured at
/// compile time).  `None` when the build tree no longer exists — e.g. a bench
/// binary copied to another machine.
pub fn mirror_path(file_name: &str) -> Option<std::path::PathBuf> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()?
        .parent()?;
    root.is_dir()
        .then(|| root.join(format!("BENCH_{file_name}")))
}

/// Appends one JSON line to the `target/<file_name>` trajectory file, creating
/// the directory if it does not exist (a wiped or redirected `target/` must
/// not lose the measurement).  The same line is mirrored to the repo-root
/// `BENCH_<file_name>` so the perf history survives `cargo clean`; the mirror
/// is best effort and never fails the append.  Returns the primary path
/// written, or a readable single-line error that includes the path it tried
/// and the JSON line itself, so a failed append still leaves the measurement
/// in the bench log.
pub fn append_trajectory(file_name: &str, line: &str) -> Result<std::path::PathBuf, String> {
    let path = trajectory_path(file_name)
        .ok_or_else(|| format!("could not locate the target directory; line: {line}"))?;
    append_line(&path, line)
        .map_err(|e| format!("could not write {}: {e}; line: {line}", path.display()))?;
    if let Some(mirror) = mirror_path(file_name) {
        let _ = append_line(&mirror, line);
    }
    Ok(path)
}

fn append_line(path: &std::path::Path, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"))
}

#[cfg(test)]
mod tests {
    #[test]
    fn append_trajectory_creates_and_appends() {
        // The test binary also lives under target/<profile>/deps, so the
        // helper resolves the same way it does for benches.
        let name = format!("trajectory-helper-test-{}.json", std::process::id());
        let path = super::append_trajectory(&name, "{\"probe\":1}").unwrap();
        let path2 = super::append_trajectory(&name, "{\"probe\":2}").unwrap();
        assert_eq!(path, path2);
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "{\"probe\":1}\n{\"probe\":2}\n");
        let _ = std::fs::remove_file(&path);
        // The repo-root mirror got the same lines (perf history that
        // survives `cargo clean`).
        let mirror = super::mirror_path(&name).expect("repo root exists in the build tree");
        assert!(mirror.ends_with(format!("BENCH_{name}")));
        assert_eq!(std::fs::read_to_string(&mirror).unwrap(), body);
        let _ = std::fs::remove_file(&mirror);
    }
}
