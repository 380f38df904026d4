//! Golden output of `squatphi repro` at 1/2000 haystack scale: every
//! experiment report and the run summary JSON, byte for byte. A change
//! that moves a reproduced table or figure shows up here as a diff
//! against the committed files. The output does not depend on the
//! thread count. After checking that a diff is intended, regenerate with
//!
//! ```text
//! squatphi repro --scale 2000 --threads 2 all  > crates/cli/tests/golden/repro-2000-all.txt
//! squatphi repro --scale 2000 --threads 2 --json > crates/cli/tests/golden/repro-2000.json
//! ```

use squatphi_cli::{commands, parse_args};

fn run(line: &str) -> String {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    commands::run(&parse_args(&args).expect("parses")).expect("runs")
}

/// Names the first differing line instead of dumping both outputs.
fn assert_golden(actual: &str, golden: &str, name: &str) {
    if actual == golden {
        return;
    }
    let mut expected = golden.lines();
    for (i, line) in actual.lines().enumerate() {
        let want = expected.next();
        assert_eq!(Some(line), want, "{name}: line {} differs", i + 1);
    }
    panic!(
        "{name}: differs in length or line endings ({} bytes, golden {})",
        actual.len(),
        golden.len()
    );
}

#[test]
fn repro_reports_match_golden() {
    assert_golden(
        &run("repro --scale 2000 --threads 2 all"),
        include_str!("golden/repro-2000-all.txt"),
        "repro-2000-all.txt",
    );
}

#[test]
fn repro_summary_json_matches_golden() {
    assert_golden(
        &run("repro --scale 2000 --threads 2 --json"),
        include_str!("golden/repro-2000.json"),
        "repro-2000.json",
    );
}
