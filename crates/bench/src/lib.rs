//! Shared helpers of the experiment binaries and Criterion benches that
//! regenerate the paper's tables and figures.
//!
//! Every experiment is deterministic for fixed parameters; environment
//! variables scale the budgets:
//!
//! | variable | default | used by |
//! |---|---|---|
//! | `EEA_EVALS` | 10,000 | `fig5`, `fig6`, `headline` (paper: 100,000) |
//! | `EEA_SEED` | 2014 | exploration seed |
//! | `EEA_CUT_GATES` | 1,500 | `table1` CUT size |
//! | `EEA_PRP_MAX` | 16,384 | `table1` largest PRP count (paper: 500,000) |
//! | `EEA_THREADS` | auto | worker threads for evaluation (results are bit-identical at any count) |
//! | `EEA_OUT_DIR` | `.` (repo root) | where `fig5`, `fig6`, `bench_parallel`, `fleet_campaign` write their CSV/JSON artifacts |
//! | `EEA_FLEET_VEHICLES` | 100,000 | `fleet_campaign` fleet size |
//! | `EEA_FLEET_EVALS` | 2,000 | `fleet_campaign` exploration budget for the blueprint front |
//! | `EEA_FLEET_SCALE` | `100000,1000000,10000000` | `fleet_campaign` scale-sweep fleet sizes (comma-separated; empty disables the sweep) |
//! | `EEA_TRANSPORTS` | per binary | comma-separated transport backends (`classic-can`, `can-fd`, `flexray`); `fig5`/`fig6` default to `classic-can`, `fleet_campaign` to all three |
//! | `EEA_SOAK_SCALE` | `100000,1000000,10000000` | `gateway_soak` fleet sizes (comma-separated; empty disables the sweep) |
//! | `EEA_SOAK_QUEUE` | 8,192 | `gateway_soak` ingest queue capacity (also sizes its shed probe) |
//! | `EEA_SCHED_VEHICLES` | 100,000 | `sched_campaign` fleet size for the flat-vs-schedule window comparison |

// Library targets are panic-free by policy (see DESIGN.md, "Error
// taxonomy"): unwrap/expect/panic! are denied outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use eea_bist::paper_table1;
use eea_dse::{
    augment, explore, DiagSpec, DseConfig, DseResult, EeaError, TransportConfig, TransportKind,
};
use eea_model::{paper_case_study, CaseStudy};

/// Reads a `usize` environment knob with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a `u64` environment knob with a default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads the `EEA_TRANSPORTS` knob: a comma-separated list of transport
/// labels (`classic-can`, `can-fd`, `flexray`, as printed by
/// [`TransportKind::label`]). Unknown labels are reported on stderr and
/// skipped; an unset variable — or one that yields no usable backend —
/// falls back to `default`.
pub fn env_transports(default: &[TransportKind]) -> Vec<TransportKind> {
    let Ok(raw) = std::env::var("EEA_TRANSPORTS") else {
        return default.to_vec();
    };
    let mut kinds = Vec::new();
    for label in raw.split(',').map(str::trim).filter(|l| !l.is_empty()) {
        match TransportKind::ALL.iter().find(|k| k.label() == label) {
            Some(&k) if !kinds.contains(&k) => kinds.push(k),
            Some(_) => {}
            None => eprintln!("EEA_TRANSPORTS: unknown backend {label:?} (skipped)"),
        }
    }
    if kinds.is_empty() {
        eprintln!("EEA_TRANSPORTS selected no backend; using the default set");
        return default.to_vec();
    }
    kinds
}

/// Reads a comma-separated `u64` list knob (`EEA_FLEET_SCALE`,
/// `EEA_SOAK_SCALE`, ...). Unparsable entries are skipped; an unset
/// variable falls back to `default`; a set-but-empty (or all-garbage)
/// variable yields an empty list, which disables the sweep it drives.
pub fn env_u64_list(name: &str, default: &[u64]) -> Vec<u64> {
    let Ok(raw) = std::env::var(name) else {
        return default.to_vec();
    };
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .collect()
}

/// Reads the `EEA_FLEET_SCALE` knob: the fleet sizes for the
/// `fleet_campaign` scale sweep.
pub fn env_scale_sweep(default: &[u64]) -> Vec<u64> {
    env_u64_list("EEA_FLEET_SCALE", default)
}

/// The process's peak resident-set size ("VmHWM" high-water mark) in KiB,
/// read from `/proc/self/status`. Returns `None` off Linux or when the
/// field is missing — callers report the value as unavailable rather than
/// failing the run. Note the high-water mark is monotone over the process
/// lifetime: when sampling a sweep, run the scale points in ascending
/// order so each sample reflects the largest campaign seen so far.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resolves where an experiment artifact (CSV/JSON) lands: inside
/// `$EEA_OUT_DIR` when the variable is set and non-empty (the directory is
/// created if missing), the current directory otherwise. Falls back to the
/// bare name when the directory cannot be created, so binaries keep
/// working in read-only-ish environments.
pub fn out_path(name: &str) -> std::path::PathBuf {
    match std::env::var("EEA_OUT_DIR") {
        Ok(dir) if !dir.is_empty() => {
            let dir = std::path::PathBuf::from(dir);
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("EEA_OUT_DIR {}: {e}; writing to current dir", dir.display());
                return std::path::PathBuf::from(name);
            }
            dir.join(name)
        }
        _ => std::path::PathBuf::from(name),
    }
}

/// Merges `sections` — `(key, raw JSON value)` pairs — into
/// `BENCH_fleet.json` under [`out_path`] with [`merge_top_level`], prints
/// the document and writes it back. Every fleet binary records its
/// results through this one writer, so whichever ran last, the other
/// binaries' sections survive.
pub fn write_bench_fleet(sections: &[(&str, String)]) {
    let path = out_path("BENCH_fleet.json");
    let json = merge_top_level(std::fs::read_to_string(&path).ok().as_deref(), sections);
    println!("{json}");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Replaces the given top-level keys of a JSON object document in place,
/// keeps every other key in its original order, and appends the keys the
/// document lacks. An absent `existing`, or one that is not a single
/// JSON object, yields a fresh document of just `sections`.
///
/// Values are kept as raw text: the scanner only finds each top-level
/// value's extent (string- and nesting-aware) and never parses it — the
/// workspace has no JSON dependency by design.
pub fn merge_top_level(existing: Option<&str>, sections: &[(&str, String)]) -> String {
    let mut entries = existing.and_then(top_level_entries).unwrap_or_default();
    for &(key, ref value) in sections {
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some(entry) => entry.1.clone_from(value),
            None => entries.push((key.to_string(), value.clone())),
        }
    }
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// The `(key, raw value)` pairs of a document that is exactly one JSON
/// object, or `None` when it is not.
fn top_level_entries(doc: &str) -> Option<Vec<(String, String)>> {
    let bytes = doc.as_bytes();
    let mut i = skip_ws(bytes, 0);
    if bytes.get(i) != Some(&b'{') {
        return None;
    }
    i = skip_ws(bytes, i + 1);
    let mut entries = Vec::new();
    if bytes.get(i) == Some(&b'}') {
        return (skip_ws(bytes, i + 1) == bytes.len()).then_some(entries);
    }
    loop {
        if bytes.get(i) != Some(&b'"') {
            return None;
        }
        let key_end = string_end(bytes, i)?;
        let key = doc[i + 1..key_end - 1].to_string();
        i = skip_ws(bytes, key_end);
        if bytes.get(i) != Some(&b':') {
            return None;
        }
        let start = skip_ws(bytes, i + 1);
        let end = value_end(bytes, start)?;
        let value = doc[start..end].trim_end();
        if value.is_empty() {
            return None;
        }
        entries.push((key, value.to_string()));
        if bytes.get(end) == Some(&b'}') {
            return (skip_ws(bytes, end + 1) == bytes.len()).then_some(entries);
        }
        i = skip_ws(bytes, end + 1);
    }
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
        i += 1;
    }
    i
}

/// Index just past the closing quote of the string opening at `start`.
fn string_end(bytes: &[u8], start: usize) -> Option<usize> {
    let mut i = start + 1;
    loop {
        match bytes.get(i)? {
            b'\\' => i += 2,
            b'"' => return Some(i + 1),
            _ => i += 1,
        }
    }
}

/// Index of the `,` or `}` that ends the object member value starting at
/// `i` — the first one outside strings and nested brackets.
fn value_end(bytes: &[u8], mut i: usize) -> Option<usize> {
    let mut depth = 0usize;
    loop {
        match bytes.get(i)? {
            b'"' => {
                i = string_end(bytes, i)?;
                continue;
            }
            b'{' | b'[' => depth += 1,
            b',' | b'}' if depth == 0 => return Some(i),
            b']' if depth == 0 => return None,
            b'}' | b']' => depth -= 1,
            _ => {}
        }
        i += 1;
    }
}

/// The paper's augmented case study: all 36 Table I profiles on all 15
/// ECUs.
///
/// # Errors
///
/// Propagates any [`EeaError`] from the augmentation (the paper case study
/// itself always augments cleanly).
pub fn paper_diag_spec() -> Result<(CaseStudy, DiagSpec), EeaError> {
    let case = paper_case_study();
    let diag = augment(&case, &paper_table1())?;
    Ok((case, diag))
}

/// Runs the case-study exploration with the standard experiment knobs,
/// over the classic mirrored-CAN transport.
///
/// `threads = 0` means one worker per available CPU (overridable via
/// `EEA_THREADS`); the result is bit-identical at any thread count.
pub fn run_case_study_exploration(
    evaluations: usize,
    seed: u64,
    threads: usize,
) -> Result<(CaseStudy, DiagSpec, DseResult), EeaError> {
    run_case_study_exploration_with_transport(
        evaluations,
        seed,
        threads,
        TransportConfig::MirroredCan,
    )
}

/// [`run_case_study_exploration`] over an explicit transport backend: the
/// Eq. (5) shut-off objective prices its remote transfers through
/// `transport`, so fronts explored on different backends genuinely differ.
pub fn run_case_study_exploration_with_transport(
    evaluations: usize,
    seed: u64,
    threads: usize,
    transport: TransportConfig,
) -> Result<(CaseStudy, DiagSpec, DseResult), EeaError> {
    let (case, diag) = paper_diag_spec()?;
    let cfg = DseConfig {
        nsga2: eea_moea::Nsga2Config {
            population: 100.min(evaluations.max(2)),
            evaluations,
            seed,
            ..eea_moea::Nsga2Config::default()
        },
        threads,
        transport,
        ..DseConfig::default()
    };
    let result = explore(&diag, &cfg, |evals, archive| {
        if evals % 2_000 < 100 {
            eprintln!("  {evals} evaluations, archive = {archive}");
        }
    });
    Ok((case, diag, result))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_parse() {
        std::env::remove_var("EEA_TEST_KNOB");
        assert_eq!(env_usize("EEA_TEST_KNOB", 7), 7);
        std::env::set_var("EEA_TEST_KNOB", "42");
        assert_eq!(env_usize("EEA_TEST_KNOB", 7), 42);
        assert_eq!(env_u64("EEA_TEST_KNOB", 7), 42);
        std::env::set_var("EEA_TEST_KNOB", "garbage");
        assert_eq!(env_usize("EEA_TEST_KNOB", 7), 7);
        std::env::remove_var("EEA_TEST_KNOB");
    }

    #[test]
    fn out_path_honors_env() {
        std::env::remove_var("EEA_OUT_DIR");
        assert_eq!(out_path("x.json"), std::path::PathBuf::from("x.json"));
        let dir = std::env::temp_dir().join("eea-out-test");
        std::env::set_var("EEA_OUT_DIR", &dir);
        assert_eq!(out_path("x.json"), dir.join("x.json"));
        assert!(dir.is_dir(), "out_path creates the directory");
        std::env::remove_var("EEA_OUT_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn transport_knob_parses() {
        std::env::remove_var("EEA_TRANSPORTS");
        assert_eq!(
            env_transports(&[TransportKind::MirroredCan]),
            vec![TransportKind::MirroredCan]
        );
        std::env::set_var("EEA_TRANSPORTS", "can-fd, flexray,can-fd,bogus");
        assert_eq!(
            env_transports(&[TransportKind::MirroredCan]),
            vec![TransportKind::CanFd, TransportKind::FlexRay]
        );
        std::env::set_var("EEA_TRANSPORTS", "bogus");
        assert_eq!(
            env_transports(&TransportKind::ALL),
            TransportKind::ALL.to_vec()
        );
        std::env::remove_var("EEA_TRANSPORTS");
    }

    #[test]
    fn scale_sweep_knob_parses() {
        std::env::remove_var("EEA_FLEET_SCALE");
        assert_eq!(env_scale_sweep(&[100_000]), vec![100_000]);
        std::env::set_var("EEA_FLEET_SCALE", "1000, 2000,garbage,3000");
        assert_eq!(env_scale_sweep(&[100_000]), vec![1000, 2000, 3000]);
        std::env::set_var("EEA_FLEET_SCALE", "");
        assert_eq!(env_scale_sweep(&[100_000]), Vec::<u64>::new());
        std::env::remove_var("EEA_FLEET_SCALE");
        std::env::remove_var("EEA_TEST_LIST");
        assert_eq!(env_u64_list("EEA_TEST_LIST", &[5, 6]), vec![5, 6]);
        std::env::set_var("EEA_TEST_LIST", "7, 8,bad");
        assert_eq!(env_u64_list("EEA_TEST_LIST", &[5, 6]), vec![7, 8]);
        std::env::remove_var("EEA_TEST_LIST");
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        // The helper is best-effort by contract, but on the Linux CI
        // machines it must produce a plausible nonzero figure.
        if cfg!(target_os = "linux") {
            let kb = peak_rss_kb().expect("VmHWM present on Linux");
            assert!(kb > 0);
        }
    }

    fn sections(pairs: &[(&'static str, &str)]) -> Vec<(&'static str, String)> {
        pairs.iter().map(|&(k, v)| (k, v.to_string())).collect()
    }

    #[test]
    fn fresh_document_holds_only_the_sections() {
        let doc = merge_top_level(None, &sections(&[("a", "1"), ("b", "[\n    2\n  ]")]));
        assert_eq!(doc, "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}\n");
        assert_eq!(
            top_level_entries(&doc),
            Some(vec![
                ("a".to_string(), "1".to_string()),
                ("b".to_string(), "[\n    2\n  ]".to_string()),
            ])
        );
    }

    #[test]
    fn rerun_replaces_keys_in_place() {
        let doc =
            "{\n  \"a\": {\"s\": \"x,}]\\\"\"},\n  \"b\": [1, {\"c\": 2}],\n  \"d\": null\n}\n";
        let merged = merge_top_level(Some(doc), &sections(&[("b", "3"), ("e", "true")]));
        assert_eq!(
            merged,
            "{\n  \"a\": {\"s\": \"x,}]\\\"\"},\n  \"b\": 3,\n  \"d\": null,\n  \"e\": true\n}\n"
        );
        // Re-running the same writer is a fixed point.
        let again = merge_top_level(Some(&merged), &sections(&[("b", "3"), ("e", "true")]));
        assert_eq!(again, merged);
    }

    #[test]
    fn other_sections_survive_any_run_order() {
        // The four BENCH_fleet.json writers, each owning its own keys.
        let writers: [&[&str]; 4] = [
            &["machine_cores", "transports", "scale_sweep"],
            &["noisy_campaign"],
            &["sched_campaign"],
            &["gateway_soak"],
        ];
        // Every permutation of the four writers, each run twice over.
        let orders = (0..256usize)
            .map(|n| [n % 4, n / 4 % 4, n / 16 % 4, n / 64])
            .filter(|o| (0..4).all(|w| o.contains(&w)));
        for order in orders {
            let mut doc: Option<String> = None;
            for (run, &w) in order.iter().chain(order.iter()).enumerate() {
                let value = format!("{{\"run\": {run}}}");
                let pairs: Vec<(&str, String)> =
                    writers[w].iter().map(|&k| (k, value.clone())).collect();
                doc = Some(merge_top_level(doc.as_deref(), &pairs));
            }
            let entries = doc
                .as_deref()
                .and_then(top_level_entries)
                .expect("valid doc");
            assert_eq!(entries.len(), 6, "order {order:?}: every key kept once");
            for (pos, &w) in order.iter().enumerate() {
                for &key in writers[w] {
                    let want = format!("{{\"run\": {}}}", pos + 4);
                    assert!(
                        entries.iter().any(|(k, v)| k == key && *v == want),
                        "order {order:?}: {key} holds the last run's value"
                    );
                }
            }
        }
    }

    #[test]
    fn garbage_input_gives_a_fresh_document() {
        let fresh = merge_top_level(None, &sections(&[("k", "{}")]));
        for garbage in [
            "",
            "garbage",
            "[1, 2]",
            "{\"a\": 1",
            "{\"a\": 1} trailing",
            "{\"a\" 1}",
            "{\"a\": }",
            "{\"a\": [1}",
            "{a: 1}",
        ] {
            assert_eq!(
                merge_top_level(Some(garbage), &sections(&[("k", "{}")])),
                fresh,
                "{garbage:?}"
            );
        }
        assert_eq!(
            merge_top_level(Some(" {} \n"), &sections(&[("k", "{}")])),
            fresh
        );
    }

    #[test]
    fn paper_spec_shape() {
        let (case, diag) = paper_diag_spec().expect("paper case study augments");
        assert_eq!(case.ecus().len(), 15);
        assert_eq!(diag.options.len(), 540);
    }

    #[test]
    fn tiny_exploration_runs() {
        let (_, _, res) =
            run_case_study_exploration(50, 1, 1).expect("paper case study augments");
        assert_eq!(res.evaluations, 50);
        assert!(!res.front.is_empty());
    }
}
