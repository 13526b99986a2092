// utk-lint: class=test
// The compliant idiom: every temp path carries a unique component
// (the process id, a per-test tag), so concurrent tests never share
// a fixture file.

use std::path::PathBuf;

fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fixture_{}_{tag}", std::process::id()))
}

#[test]
fn reads_its_own_fixture() {
    let path = scratch_path("hotels.csv");
    std::fs::write(&path, "a,b\n1,2\n").unwrap();
    let dir = std::env::temp_dir();
    let _ = dir.join(format!("queries_{}.txt", std::process::id()));
    // A directory that is already unique may take fixed names.
    let unique = scratch_path("run");
    let _ = unique.join("queries.txt");
}
