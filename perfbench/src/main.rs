//! Pipeline benchmark of the diagnosis-aware DSE reproduction.
//!
//! ```text
//! eea-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|smoke]
//! ```
//!
//! Workloads: `dse-paper`, `fleet-campaign`, `gateway-noisy-soak`,
//! `bist-profiles` (see `perfbench/README.md` for why each exists). An
//! untraced run prints the end-to-end metrics, a traced run the per-layer
//! metrics. Every run checks its outputs; the last stdout line is the
//! result object, and the exit code is non-zero when a check fails.

mod dse;
mod fleet;
mod host;
mod profiles;
mod report;
mod soak;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use report::{peak_rss_mb, RunReport};
use trace::Tracer;

/// Worker threads every workload runs with: the benchmark machine's core
/// count, so the numbers measure the program rather than the scheduler.
pub const THREADS: usize = 2;

/// Largest share of the traced wall time that may fall outside every span;
/// more means the spans miss work the run does.
pub const MAX_UNATTRIBUTED_SHARE: f64 = 0.05;

/// Input sizes: `Full` is what the benchmark measures, `Smoke` a tiny
/// instance of the same workload for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// Per-layer metrics, printed by every traced run; a layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("sat.decode_us_p50", "us"),
    ("sat.decode_us_tail", "us"),
    ("sat.conflicts_per_decode", "count"),
    ("sat.propagations_per_decode", "count"),
    ("sat.decodes", "count"),
    ("core.objective_eval_us_p50", "us"),
    ("core.encode_s", "s"),
    ("core.batch_s", "s"),
    ("moea.bookkeeping_s", "s"),
    ("moea.generations", "count"),
    ("moea.archive_size", "count"),
    ("fleet.sim_ns_per_vehicle", "ns"),
    ("fleet.simulate_s", "s"),
    ("fleet.merge_s", "s"),
    ("fleet.diagnose_s", "s"),
    ("fleet.fold_s", "s"),
    ("gateway.accept_ns_per_arrival", "ns"),
    ("gateway.queue_high_water", "count"),
    ("gateway.shed", "count"),
    ("gateway.duplicates", "count"),
    ("gateway.malformed", "count"),
    ("snapshot.merge_ms_p50", "ms"),
    ("snapshot.merge_ms_sum", "ms"),
    ("snapshot.diagnose_ms_p50", "ms"),
    ("snapshot.diagnose_ms_sum", "ms"),
    ("snapshot.diagnose_lookup_ms_p50", "ms"),
    ("snapshot.diagnose_lookup_ms_sum", "ms"),
    ("snapshot.fold_ms_p50", "ms"),
    ("snapshot.fold_ms_sum", "ms"),
    ("bist.diagnose_us_per_query", "us"),
    ("bist.distinct_diag_keys", "count"),
    ("bist.dict_build_s", "s"),
    ("can.impaired_uploads", "count"),
    ("can.retransmitted_frames", "count"),
    ("atpg.run_s", "s"),
    ("atpg.cubes", "count"),
    ("atpg.targeted_faults", "count"),
    ("atpg.aborted", "count"),
    ("atpg.untestable", "count"),
    ("faultsim.prp_sim_s", "s"),
    ("faultsim.patterns_per_s", "1/s"),
    ("netlist.synth_s", "s"),
    ("model.self_s", "s"),
    ("netlist.self_s", "s"),
    ("faultsim.self_s", "s"),
    ("atpg.self_s", "s"),
    ("bist.self_s", "s"),
    ("sat.self_s", "s"),
    ("core.self_s", "s"),
    ("moea.self_s", "s"),
    ("can.self_s", "s"),
    ("fleet.self_s", "s"),
    ("gateway.self_s", "s"),
    ("snapshot.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// What a workload's untraced run measured, before it becomes metrics.
///
/// A run repeats one round of work, split into timed items, until it has
/// `rounds` rounds and `--seconds` have passed; an item's time is its
/// median over the first `rounds` rounds ([`report::item_medians`]). The
/// count is fixed per workload, so both commits of a comparison take the
/// same statistic however fast they run. Every time is reported divided by
/// the host's slowdown over the run ([`host::HostClock`]).
#[derive(Debug, Default)]
pub struct Measured {
    /// Median set-up time, in s.
    pub setup_s: f64,
    /// Rounds the statistics are taken over.
    pub rounds: usize,
    /// Work one round does, in the throughput's unit (evaluations,
    /// vehicles, arrivals, profiles).
    pub work_per_round: f64,
    /// Per round, the seconds of the timed items that together do the
    /// round's work.
    pub work_rounds_s: Vec<Vec<f64>>,
    /// Per round, the latency of every user-facing operation, in ms.
    pub latency_rounds_ms: Vec<Vec<f64>>,
    /// The workload's own names of the throughput and of the latency p50
    /// and tail, repeated in the detail line.
    pub names: [&'static str; 3],
    pub quality: f64,
    /// The host's slowdown over the run and the kernel samples it rests on.
    pub host_slowdown: f64,
    pub host_samples: usize,
}

/// What a workload's traced run measured: per-layer values keyed by
/// [`PER_LAYER`] name, plus the untraced and traced wall time of the pass
/// both variants ran.
#[derive(Debug, Default)]
pub struct Traced {
    pub values: BTreeMap<&'static str, f64>,
    pub untraced_pass_s: f64,
    pub traced_pass_s: f64,
    /// Wall time of all untraced comparison passes. They run inside the
    /// traced run but belong to no layer, so the wall time the self times
    /// account for leaves them out.
    pub untraced_total_s: f64,
}

impl Args {
    /// Whether a run goes on with another round: until it has `rounds` of
    /// them and `--seconds` have passed since `start`.
    pub fn another_round(&self, start: std::time::Instant, done: usize, rounds: usize) -> bool {
        done < rounds || start.elapsed().as_secs_f64() < self.seconds
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err("--scale takes full or smoke".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "dse-paper",
    "fleet-campaign",
    "gateway-noisy-soak",
    "bist-profiles",
];

fn end_to_end(rep: &mut RunReport, m: Measured) {
    let work = report::item_medians(&m.work_rounds_s, m.rounds);
    let latency = report::item_medians(&m.latency_rounds_ms, m.rounds);
    rep.check(
        work.is_some() && latency.is_some(),
        format!(
            "fewer than {} rounds, or rounds split into different items",
            m.rounds
        ),
    );
    let (work, latency) = (work.unwrap_or_default(), latency.unwrap_or_default());
    rep.check(!latency.is_empty(), "no latency samples");
    rep.check(
        m.host_slowdown.is_finite() && m.host_slowdown > 0.0,
        "no host speed measured",
    );
    let slowdown = m.host_slowdown;
    let raw_throughput = m.work_per_round / work.iter().sum::<f64>();
    let throughput = raw_throughput * slowdown;
    let p50 = report::median(&latency) / slowdown;
    let (tail, pct, items) = report::tail(&latency);
    let tail = tail / slowdown;
    rep.metric("setup_s", m.setup_s / slowdown, "s");
    rep.metric("throughput_per_s", throughput, "1/s");
    rep.metric("latency_p50_ms", p50, "ms");
    rep.metric("latency_tail_ms", tail, "ms");
    rep.metric("quality", m.quality, "ratio");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    let [throughput_name, p50_name, tail_name] = m.names;
    rep.detail(throughput_name, format!("{throughput:?}"));
    rep.detail(p50_name, format!("{p50:?}"));
    rep.detail(tail_name, format!("{tail:?}"));
    rep.detail("latency_tail_percentile", format!("{pct:.2}"));
    rep.detail("latency_items", items);
    rep.detail("work_items", work.len());
    rep.detail("rounds_counted", m.rounds);
    rep.detail("rounds_run", m.work_rounds_s.len());
    rep.detail("host_slowdown", format!("{slowdown:?}"));
    rep.detail("host_samples", m.host_samples);
    rep.detail("raw_throughput_per_s", format!("{raw_throughput:?}"));
    rep.detail("raw_setup_s", format!("{:?}", m.setup_s));
}

fn per_layer(args: &Args, rep: &mut RunReport, tr: &Tracer, t: Traced) {
    for name in t.values.keys() {
        rep.check(
            PER_LAYER.iter().any(|(n, _)| n == name),
            format!("workload set unknown per-layer metric {name}"),
        );
    }
    let wall = tr.elapsed_s() - t.untraced_total_s;
    let layers = tr.layer_self_times();
    let attributed: f64 = layers.values().sum();
    let unattributed = wall - attributed;
    for (layer, self_s) in &layers {
        rep.check(
            *self_s >= -1e-6,
            format!("layer {layer} has negative self time {self_s}"),
        );
    }
    rep.check(
        (-1e-6..=MAX_UNATTRIBUTED_SHARE * wall).contains(&unattributed),
        format!("unattributed time {unattributed:.6} s of {wall:.6} s traced wall"),
    );
    let mut values = t.values;
    for (layer, self_s) in &layers {
        values.insert(self_name(layer), *self_s);
    }
    values.insert("trace.unattributed_s", unattributed);
    values.insert("trace.wall_s", wall);
    values.insert("trace.overhead_s", t.traced_pass_s - t.untraced_pass_s);
    values.insert(
        "trace.overhead_share",
        (t.traced_pass_s - t.untraced_pass_s) / t.untraced_pass_s.max(1e-12),
    );
    values.insert("trace.spans", tr.len() as f64);
    for (name, unit) in PER_LAYER {
        rep.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
    rep.detail("run_id", tr.run_id);
    let path = format!(
        ".perfbench-out/trace-{}-seed{}.json",
        args.workload, args.seed
    );
    let written = std::fs::create_dir_all(".perfbench-out")
        .and_then(|()| std::fs::write(&path, tr.to_json(&args.workload)));
    match written {
        Ok(()) => rep.detail("trace_file", format!("{path:?}")),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn self_name(layer: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| n.strip_suffix(".self_s") == Some(layer))
        .unwrap_or("trace.unattributed_s")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rep = RunReport::default();
    if args.trace {
        // One id shared by every span of this run.
        let stamp = format!(
            "{}:{}:{:?}",
            args.workload,
            args.seed,
            std::time::SystemTime::now()
        );
        let mut tr = Tracer::new(report::fnv1a(stamp.as_bytes()));
        let traced = match args.workload.as_str() {
            "dse-paper" => dse::traced(&args, &mut rep, &mut tr),
            "fleet-campaign" => fleet::traced(&args, &mut rep, &mut tr),
            "gateway-noisy-soak" => soak::traced(&args, &mut rep, &mut tr),
            _ => profiles::traced(&args, &mut rep, &mut tr),
        };
        let traced = traced.unwrap_or_else(|e| {
            rep.check(false, e);
            Traced::default()
        });
        per_layer(&args, &mut rep, &tr, traced);
    } else {
        let measured = match args.workload.as_str() {
            "dse-paper" => dse::measure(&args, &mut rep),
            "fleet-campaign" => fleet::measure(&args, &mut rep),
            "gateway-noisy-soak" => soak::measure(&args, &mut rep),
            _ => profiles::measure(&args, &mut rep),
        };
        let measured = measured.unwrap_or_else(|e| {
            rep.check(false, e);
            Measured::default()
        });
        end_to_end(&mut rep, measured);
    }
    let rep = rep.finish();
    println!("{}", rep.detail_line());
    println!("{}", rep.result_line());
    if rep.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_cover_every_layer() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for layer in trace::LAYERS {
            assert_eq!(self_name(layer).strip_suffix(".self_s"), Some(layer));
        }
    }
}
