// utk-lint: class=test
// Fixed-name temp paths: concurrent tests (parallel threads, parallel
// test binaries) share them, so one writer truncates a fixture while
// another test's child process reads it.

use std::path::PathBuf;

fn hotels_file() -> PathBuf {
    let path = std::env::temp_dir().join("hotels.csv"); //~ shared-temp-path
    std::fs::write(&path, "a,b\n1,2\n").unwrap();
    path
}

#[test]
fn reads_the_fixture() {
    let dir = std::env::temp_dir();
    let queries = dir.join("queries.txt"); //~ shared-temp-path
    let _ = (hotels_file(), queries);
}
