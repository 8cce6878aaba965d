//! Drives the `repro` binary end to end: the experiment registry, usage
//! errors and the fuzz oracle report. Nothing here archives under
//! `results/`: no test runs an experiment.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro starts")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn list_names_every_experiment() {
    let out = repro(&["list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let ids = [
        "fig01a",
        "fig01b",
        "fig05",
        "fig06",
        "fig07",
        "fig08",
        "fig10",
        "fig11",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "fig18a",
        "fig18b",
        "table1",
        "table2",
        "ablation_age_norm",
        "ablation_table",
        "ablation_scope",
        "ext_designs",
        "resilience",
        "supervision",
        "fuzz",
    ];
    let listed: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("  "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(listed, ids, "repro list:\n{text}");
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    let out = repro(&["run", "nosuch"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("repro list"), "{}", stderr(&out));
}

#[test]
fn unknown_flag_is_a_usage_error() {
    for args in [
        &["run", "fig15", "--thread", "4"][..],
        &["run", "fig15", "--ful"],
        &["serve", "--shards", "2"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = stderr(&out);
        let flag = args.iter().find(|a| a.starts_with("--")).expect("a flag");
        assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
        assert!(err.contains("usage: repro"), "{err}");
    }
}

#[test]
fn flag_missing_its_value_is_a_usage_error() {
    let out = repro(&["run", "fig15", "--threads"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("--threads requires a value"), "{}", stderr(&out));
}

#[test]
fn fuzz_reports_the_three_property_oracles() {
    let out = repro(&["fuzz", "--count", "2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("through 3 property oracles"), "{text}");
}

#[test]
fn closed_stdout_exits_quietly() {
    // `repro --list-workloads | head -5` with `head` already gone: the
    // read end is closed before `repro` writes its first line.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--list-workloads")
        .stdout(writer)
        .output()
        .expect("repro starts");
    let err = stderr(&out);
    assert!(!err.contains("panicked"), "repro panicked on a closed stdout:\n{err}");
    assert!(out.status.success(), "{:?}\n{err}", out.status);
}
