//! End-to-end tests of the `utk` command-line binary.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

const HOTELS_CSV: &str = "\
hotel,service,cleanliness,location
p1,8.3,9.1,7.2
p2,2.4,9.6,8.6
p3,5.4,1.6,4.1
p4,2.6,6.9,9.4
p5,7.3,3.1,2.4
p6,7.9,6.4,6.6
p7,8.6,7.1,4.3
";

/// A scratch path unique to this test process. Test binaries run
/// concurrently (and their tests run on parallel threads), so a fixed
/// fixture name would let one writer truncate a file another test's
/// child `utk` is reading.
fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("utk_cli_test_{}_{tag}", std::process::id()))
}

/// The Figure 1 hotels CSV, written once per process and never
/// rewritten while child processes read it.
fn hotels_file() -> PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let path = scratch_path("hotels.csv");
        std::fs::write(&path, HOTELS_CSV).unwrap();
        path
    })
    .clone()
}

fn utk(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_utk"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn utk1_reports_figure1_answer() {
    let data = hotels_file();
    let (stdout, _, ok) = utk(&[
        "utk1",
        "--data",
        data.to_str().unwrap(),
        "--k",
        "2",
        "--lo",
        "0.05,0.05",
        "--hi",
        "0.45,0.25",
    ]);
    assert!(ok);
    for p in ["p1", "p2", "p4", "p6"] {
        assert!(stdout.contains(p), "missing {p} in:\n{stdout}");
    }
    assert!(!stdout.contains("p7"));
    assert!(stdout.contains("4 records"));
}

#[test]
fn utk2_center_width_form() {
    let data = hotels_file();
    let (stdout, _, ok) = utk(&[
        "utk2",
        "--data",
        data.to_str().unwrap(),
        "--k",
        "2",
        "--center",
        "0.25,0.15",
        "--width",
        "0.2",
    ]);
    assert!(ok);
    assert!(stdout.contains("distinct top-2 sets"));
    assert!(stdout.contains("around w ="));
}

#[test]
fn topk_matches_known_ranking() {
    let data = hotels_file();
    let (stdout, _, ok) = utk(&[
        "topk",
        "--data",
        data.to_str().unwrap(),
        "--k",
        "2",
        "--weights",
        "0.3,0.5,0.2",
    ]);
    assert!(ok);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].contains("p1"));
    assert!(lines[1].contains("p2"));
}

#[test]
fn generate_pipes_back_into_queries() {
    let (csv, _, ok) = utk(&[
        "generate", "--dist", "ind", "--n", "50", "--d", "3", "--seed", "5",
    ]);
    assert!(ok);
    assert_eq!(csv.lines().count(), 50);
    let path = scratch_path("gen.csv");
    std::fs::write(&path, &csv).unwrap();
    let (stdout, _, ok) = utk(&[
        "utk1",
        "--data",
        path.to_str().unwrap(),
        "--k",
        "3",
        "--lo",
        "0.2,0.2",
        "--hi",
        "0.3,0.3",
    ]);
    assert!(ok);
    assert!(stdout.contains("can enter the top-3"));
}

#[test]
fn lp_scoring_flag() {
    let data = hotels_file();
    let (stdout, _, ok) = utk(&[
        "utk1",
        "--data",
        data.to_str().unwrap(),
        "--k",
        "2",
        "--lo",
        "0.05,0.05",
        "--hi",
        "0.45,0.25",
        "--lp",
        "2",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("top-2"));
}

#[test]
fn helpful_errors() {
    let (_, stderr, ok) = utk(&["utk1", "--k", "2"]);
    assert!(!ok);
    assert!(stderr.contains("--data"));

    let data = hotels_file();
    let (_, stderr, ok) = utk(&["utk1", "--data", data.to_str().unwrap(), "--k", "2"]);
    assert!(!ok);
    assert!(stderr.contains("region"));

    let (_, stderr, ok) = utk(&["frobnicate", "--x", "1"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn serve_refuses_the_removed_transport_flag() {
    // Parsing fails before anything binds: no server ever starts.
    let (_, stderr, ok) = utk(&["serve", "--transport", "evented"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown flag --transport"),
        "stderr: {stderr}"
    );
}

#[test]
fn malformed_flags_name_the_offender() {
    let data = hotels_file();
    let d = data.to_str().unwrap();

    // A flag with its value missing is pinpointed.
    let (_, stderr, ok) = utk(&["utk1", "--data", d, "--k"]);
    assert!(!ok);
    assert!(stderr.contains("--k"), "stderr: {stderr}");
    assert!(stderr.contains("missing its value"), "stderr: {stderr}");

    // A bare word where a --flag belongs is quoted back.
    let (_, stderr, ok) = utk(&["utk1", "--data", d, "k", "2"]);
    assert!(!ok);
    assert!(stderr.contains("\"k\""), "stderr: {stderr}");

    // Unknown flags are rejected by name.
    let (_, stderr, ok) = utk(&["utk1", "--data", d, "--frobnicate", "1"]);
    assert!(!ok);
    assert!(stderr.contains("--frobnicate"), "stderr: {stderr}");

    // A non-numeric value names the flag it belongs to.
    let (_, stderr, ok) = utk(&[
        "utk1", "--data", d, "--k", "2", "--lo", "a,b", "--hi", "1,1",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--lo"), "stderr: {stderr}");

    // A known flag on a command that never reads it is rejected, not
    // silently dropped.
    let (_, stderr, ok) = utk(&[
        "topk",
        "--data",
        d,
        "--k",
        "2",
        "--weights",
        "0.3,0.5,0.2",
        "--algo",
        "sk",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("--algo") && stderr.contains("topk"),
        "stderr: {stderr}"
    );
    let (_, stderr, ok) = utk(&["generate", "--n", "10", "--json"]);
    assert!(!ok);
    assert!(stderr.contains("--json"), "stderr: {stderr}");

    // Inverted, NaN, and negative-width regions are errors, not
    // panics.
    let (_, stderr, ok) = utk(&[
        "utk1", "--data", d, "--k", "2", "--lo", "0.4,0.4", "--hi", "0.1,0.1",
    ]);
    assert!(!ok);
    assert!(stderr.contains("inverted"), "stderr: {stderr}");
    let (_, stderr, ok) = utk(&[
        "utk1", "--data", d, "--k", "2", "--lo", "nan,0.1", "--hi", "0.2,0.2",
    ]);
    assert!(!ok);
    assert!(stderr.contains("finite"), "stderr: {stderr}");
    let (_, stderr, ok) = utk(&[
        "utk1", "--data", d, "--k", "2", "--center", "0.3,0.3", "--width", "-0.2",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--width"), "stderr: {stderr}");

    // Unnormalized weights are rejected with a typed error.
    let (_, stderr, ok) = utk(&["topk", "--data", d, "--k", "2", "--weights", "2,3,5"]);
    assert!(!ok);
    assert!(stderr.contains("preference domain"), "stderr: {stderr}");
}

#[test]
fn algo_flag_selects_algorithms() {
    let data = hotels_file();
    let d = data.to_str().unwrap();
    let base = [
        "utk1",
        "--data",
        d,
        "--k",
        "2",
        "--lo",
        "0.05,0.05",
        "--hi",
        "0.45,0.25",
    ];
    for algo in ["auto", "rsa", "jaa", "sk", "on"] {
        let mut args = base.to_vec();
        args.extend(["--algo", algo]);
        let (stdout, _, ok) = utk(&args);
        assert!(ok, "--algo {algo} failed");
        for p in ["p1", "p2", "p4", "p6"] {
            assert!(stdout.contains(p), "--algo {algo}: missing {p} in {stdout}");
        }
    }

    // Algorithms that cannot answer UTK2 are typed errors, not panics.
    let (_, stderr, ok) = utk(&[
        "utk2",
        "--data",
        d,
        "--k",
        "2",
        "--lo",
        "0.05,0.05",
        "--hi",
        "0.45,0.25",
        "--algo",
        "sk",
    ]);
    assert!(!ok);
    assert!(stderr.contains("cannot answer"), "stderr: {stderr}");

    let (_, stderr, ok) = utk(&["utk1", "--data", d, "--k", "2", "--algo", "frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown algorithm"), "stderr: {stderr}");
}

#[test]
fn json_output_is_machine_readable() {
    let data = hotels_file();
    let d = data.to_str().unwrap();

    let (stdout, _, ok) = utk(&[
        "utk1",
        "--data",
        d,
        "--k",
        "2",
        "--lo",
        "0.05,0.05",
        "--hi",
        "0.45,0.25",
        "--json",
    ]);
    assert!(ok);
    // `--algo auto` reports the algorithm that actually answered.
    assert!(
        stdout.starts_with(r#"{"query":"utk1","k":2,"algo":"rsa""#),
        "{stdout}"
    );
    for frag in [
        r#""records":[{"id":0,"name":"p1"}"#,
        r#"{"id":5,"name":"p6"}"#,
        r#""stats":{"candidates":"#,
        r#""filter_cache_hits":0"#,
        r#""superset_hits":0"#,
        r#""filter_cache_bytes":"#,
        r#""evictions":0"#,
        r#""screen_prefix_skips":"#,
    ] {
        assert!(stdout.contains(frag), "missing {frag} in {stdout}");
    }
    assert!(!stdout.contains("p7"));

    let (stdout, _, ok) = utk(&[
        "utk2",
        "--data",
        d,
        "--k",
        "2",
        "--lo",
        "0.05,0.05",
        "--hi",
        "0.45,0.25",
        "--json",
    ]);
    assert!(ok);
    for frag in [
        r#""query":"utk2""#,
        r#""distinct_sets":4"#,
        r#""cells":[{"interior":["#,
        r#""top_k":["#,
    ] {
        assert!(stdout.contains(frag), "missing {frag} in {stdout}");
    }

    let (stdout, _, ok) = utk(&[
        "topk",
        "--data",
        d,
        "--k",
        "2",
        "--weights",
        "0.3,0.5,0.2",
        "--json",
    ]);
    assert!(ok);
    assert!(
        stdout
            .contains(r#""ranking":[{"rank":1,"id":0,"name":"p1"},{"rank":2,"id":1,"name":"p2"}]"#),
        "{stdout}"
    );
}

#[test]
fn json_mode_errors_are_machine_parsable_objects() {
    let data = hotels_file();
    let d = data.to_str().unwrap();

    // Engine-rejected query under --json: stdout carries the same
    // {"error":…} object a failed batch line produces.
    let (stdout, stderr, ok) = utk(&["utk1", "--data", d, "--k", "0", "--json"]);
    assert!(!ok);
    assert!(stdout.starts_with(r#"{"error":""#), "stdout: {stdout}");
    assert!(stdout.contains("region"), "stdout: {stdout}");
    assert!(stderr.contains("error:"), "stderr keeps the human message");

    // Unknown flags and unknown subcommands keep the promise too —
    // the check runs on raw argv, before parsing can fail.
    let (stdout, _, ok) = utk(&["utk1", "--data", d, "--frobnicate", "1", "--json"]);
    assert!(!ok);
    assert!(stdout.starts_with(r#"{"error":""#), "stdout: {stdout}");
    assert!(stdout.contains("--frobnicate"), "stdout: {stdout}");

    let (stdout, _, ok) = utk(&["frobnicate", "--json"]);
    assert!(!ok);
    assert!(stdout.starts_with(r#"{"error":""#), "stdout: {stdout}");
    assert!(stdout.contains("unknown command"), "stdout: {stdout}");

    // Commands whose output is always JSON lines (batch, client) emit
    // JSON errors without needing --json.
    let (stdout, stderr, ok) = utk(&["batch", "--data", d]);
    assert!(!ok);
    assert!(stdout.starts_with(r#"{"error":""#), "stdout: {stdout}");
    assert!(stdout.contains("--file"), "stdout: {stdout}");
    assert!(stderr.contains("--file"), "stderr: {stderr}");

    // Without --json, stdout stays clean (errors go to stderr only).
    let (stdout, _, ok) = utk(&["utk1", "--data", d, "--k", "0"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "stdout: {stdout}");

    // The error text is valid JSON even when the message itself
    // contains quotes (quoted flag values in parse errors).
    let (stdout, _, ok) = utk(&["utk1", "--data", d, "k", "2", "--json"]);
    assert!(!ok);
    let parsed = utk::server::json::parse(stdout.trim()).expect("stdout is valid JSON");
    assert!(parsed
        .get("error")
        .and_then(utk::server::json::Value::as_str)
        .expect("error field")
        .contains("\"k\""));
}

#[test]
fn parallel_flag_agrees_with_sequential() {
    let data = hotels_file();
    let d = data.to_str().unwrap();
    let (seq, _, ok1) = utk(&[
        "utk1",
        "--data",
        d,
        "--k",
        "2",
        "--lo",
        "0.05,0.05",
        "--hi",
        "0.45,0.25",
    ]);
    let (par, _, ok2) = utk(&[
        "utk1",
        "--data",
        d,
        "--k",
        "2",
        "--lo",
        "0.05,0.05",
        "--hi",
        "0.45,0.25",
        "--parallel",
        "--threads",
        "2",
    ]);
    assert!(ok1 && ok2);
    assert_eq!(seq, par);
}

#[test]
fn help_prints_usage() {
    let (stdout, _, ok) = utk(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("utk1"));
    assert!(stdout.contains("generate"));
}

// --- batch mode ------------------------------------------------------

const BATCH_QUERIES: &str = "\
# mixed batch: valid, malformed, engine-rejected
utk1 --k 2 --lo 0.05,0.05 --hi 0.45,0.25

frobnicate --k 2
topk --k 2 --weights 0.3,0.5,0.2
utk2 --k 2 --lo 0.05,0.05 --hi 0.45,0.25 --parallel
utk1 --k 0 --lo 0.05,0.05 --hi 0.45,0.25
utk1 --k 2 --json
";

fn batch_file() -> PathBuf {
    let path = scratch_path("batch.txt");
    std::fs::write(&path, BATCH_QUERIES).unwrap();
    path
}

#[test]
fn batch_mode_emits_one_json_line_per_query_in_order() {
    let data = hotels_file();
    let queries = batch_file();
    let (stdout, stderr, ok) = utk(&[
        "batch",
        "--data",
        data.to_str().unwrap(),
        "--file",
        queries.to_str().unwrap(),
        "--threads",
        "2",
    ]);
    assert!(ok, "batch run failed: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    // Comments and blank lines are skipped; 6 queries remain.
    assert_eq!(lines.len(), 6, "one JSON line per query:\n{stdout}");

    assert!(lines[0].contains(r#""query":"utk1""#), "{}", lines[0]);
    for p in ["p1", "p2", "p4", "p6"] {
        assert!(lines[0].contains(p), "missing {p}: {}", lines[0]);
    }
    // A parse failure keeps its slot, names its line, and never
    // aborts the rest.
    assert!(lines[1].contains(r#"{"error":""#), "{}", lines[1]);
    assert!(lines[1].contains("line 4"), "{}", lines[1]);
    assert!(lines[2].contains(r#""query":"topk""#), "{}", lines[2]);
    assert!(lines[3].contains(r#""query":"utk2""#), "{}", lines[3]);
    assert!(lines[3].contains(r#""partitions":"#), "{}", lines[3]);
    // Engine-rejected query (k = 0): typed error, sibling queries fine.
    assert!(lines[4].contains(r#"{"error":""#), "{}", lines[4]);
    assert!(lines[4].contains("positive"), "{}", lines[4]);
    // Per-line flags that belong to the batch level are rejected.
    assert!(lines[5].contains(r#"{"error":""#), "{}", lines[5]);
    assert!(lines[5].contains("--json"), "{}", lines[5]);
}

#[test]
fn batch_utk1_line_matches_single_query_json_records() {
    let data = hotels_file();
    let path = scratch_path("batch_single.txt");
    std::fs::write(&path, "utk1 --k 2 --lo 0.05,0.05 --hi 0.45,0.25\n").unwrap();
    let (batch_out, _, ok1) = utk(&[
        "batch",
        "--data",
        data.to_str().unwrap(),
        "--file",
        path.to_str().unwrap(),
    ]);
    let (single_out, _, ok2) = utk(&[
        "utk1",
        "--data",
        data.to_str().unwrap(),
        "--k",
        "2",
        "--lo",
        "0.05,0.05",
        "--hi",
        "0.45,0.25",
        "--json",
    ]);
    assert!(ok1 && ok2);
    // Identical wire format modulo the batch-grouping marker.
    let normalize = |s: &str| s.replace(r#""batch_group_count":1"#, r#""batch_group_count":0"#);
    assert_eq!(normalize(batch_out.trim()), normalize(single_out.trim()));
}

/// `utk batch --mutations --wal`: the first run writes every mutation
/// to the log before applying it; a re-run over the same log resumes
/// — committed steps replay instead of re-applying, and only the
/// final run point is (re-)answered, byte-identically.
#[test]
fn batch_wal_resume_skips_committed_mutations() {
    let data = hotels_file();
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let queries = dir.join(format!("utk_cli_wal_q_{pid}.txt"));
    std::fs::write(&queries, "utk1 --k 2 --lo 0.05,0.05 --hi 0.45,0.25\n").unwrap();
    let mutations = dir.join(format!("utk_cli_wal_m_{pid}.txt"));
    std::fs::write(&mutations, "delete 2\ninsert p8,9.9,9.8,9.7\n").unwrap();
    let log = dir.join(format!("utk_cli_wal_{pid}.wal"));
    let _ = std::fs::remove_file(&log);

    let run = || {
        utk(&[
            "batch",
            "--data",
            data.to_str().unwrap(),
            "--file",
            queries.to_str().unwrap(),
            "--mutations",
            mutations.to_str().unwrap(),
            "--wal",
            log.to_str().unwrap(),
        ])
    };

    // First run: two receipts (epochs 1 and 2), then the answer.
    let (first, stderr, ok) = run();
    assert!(ok, "first batch --wal run failed: {stderr}");
    let first_lines: Vec<&str> = first.lines().collect();
    assert_eq!(first_lines.len(), 3, "{first}");
    assert!(first_lines[0].contains(r#""epoch":1"#), "{first}");
    assert!(first_lines[1].contains(r#""epoch":2"#), "{first}");
    assert!(first_lines[2].contains("p8"), "{first}");
    assert!(log.exists(), "the mutation log was written");

    // Re-run over the same log: the committed mutations replay, the
    // two update steps are skipped, and the single surviving run
    // point answers byte-identically to the first run's.
    let (second, stderr, ok) = run();
    assert!(ok, "resumed batch --wal run failed: {stderr}");
    let second_lines: Vec<&str> = second.lines().collect();
    assert_eq!(second_lines.len(), 1, "{second}");
    assert_eq!(second_lines[0], first_lines[2], "resume must be exact");
    let _ = std::fs::remove_file(&log);
}

#[test]
fn batch_requires_its_inputs() {
    let data = hotels_file();
    let (_, stderr, ok) = utk(&["batch", "--data", data.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("--file"), "{stderr}");
}

#[test]
fn utk2_accepts_parallel_flags() {
    let data = hotels_file();
    let (stdout, stderr, ok) = utk(&[
        "utk2",
        "--data",
        data.to_str().unwrap(),
        "--k",
        "2",
        "--lo",
        "0.05,0.05",
        "--hi",
        "0.45,0.25",
        "--threads",
        "2",
        "--json",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains(r#""pool_threads":2"#), "{stdout}");
    assert!(stdout.contains(r#""distinct_sets":4"#), "{stdout}");
}
