//! `bist-profiles`: Table I profile generation ([`generate_profiles`]) on a
//! synthesized CUT — the first stage of the pipeline and the only workload
//! where ATPG, fault simulation and netlist synthesis do real work.

use std::hint::black_box;
use std::time::Instant;

use eea_atpg::{generate_tests_for, AtpgConfig, AtpgRun};
use eea_bist::{
    generate_profiles, lfsr_pattern_block, BistProfile, CoverageTarget, Lfsr, ProfileConfig,
};
use eea_faultsim::{resolve_threads, FaultUniverse, ParFaultSim, PatternBlock};
use eea_fleet::CutConfig;
use eea_netlist::{synthesize, Circuit, ScanChains, SynthConfig};

use crate::host::{HostClock, Reach};
use crate::report::{fnv1a, RunReport, SetupSampler};
use crate::trace::{step, Tracer};
use crate::{Args, Measured, Scale, Traced, THREADS};

/// Set-ups per run, spread over the measured window; `setup_s` is their
/// median.
pub const SETUP_REPEATS: usize = 51;

/// The CUT is the fleet workloads' substrate, [`CutConfig::default`]
/// (150 gates, 10 inputs, 12 scan cells, 4 chains): a geometry the
/// repository already runs, small enough that one call fits the run many
/// times over. It is fixed because ATPG effort differs several-fold between
/// synthesized circuits of one size, so a per-seed circuit would measure the
/// circuit lottery. The seed drives the TPG stream and the ATPG fill.
pub fn synth_config() -> SynthConfig {
    let cut = CutConfig::default();
    SynthConfig {
        gates: cut.gates,
        inputs: cut.inputs,
        dffs: cut.dffs,
        seed: cut.seed,
        ..SynthConfig::default()
    }
}

/// The coverage targets of the Table I generator
/// (`crates/bench/src/bin/table1.rs`) at the smallest and the largest of its
/// four standard PRP counts. Each PRP count adds about 0.2 s of ATPG to a
/// call; two keep a call near 0.5 s, so a run repeats each call often.
pub fn profile_config(scale: Scale, seed: u64) -> ProfileConfig {
    let prp_counts = match scale {
        Scale::Full => vec![256, 4_096],
        Scale::Smoke => vec![256],
    };
    ProfileConfig {
        prp_counts,
        targets: vec![
            CoverageTarget::Max,
            CoverageTarget::Max,
            CoverageTarget::OfMax(0.98),
            CoverageTarget::OfMax(0.95),
        ],
        num_chains: CutConfig::default().chains,
        lfsr_seed: 0xACE1 ^ (seed << 16),
        atpg: AtpgConfig {
            fill_seed: 0xA7F6 ^ (seed << 20),
            ..AtpgConfig::default()
        },
        threads: THREADS,
        ..ProfileConfig::default()
    }
}

/// Calls per round, each with its own TPG and fill seeds drawn from the
/// run's seed.
pub const CALLS: u64 = 4;

/// Rounds the statistics are taken over; a round takes about 2 s on the
/// baseline machine.
fn rounds(scale: Scale) -> usize {
    match scale {
        Scale::Full => 8,
        Scale::Smoke => 2,
    }
}

/// The generator configuration of the run's `i`-th call.
fn call_config(args: &Args, i: u64) -> ProfileConfig {
    profile_config(args.scale, args.seed * CALLS + i)
}

/// Digest of the whole profile table (every field, bit for bit).
pub fn table_digest(profiles: &[BistProfile]) -> u64 {
    fnv1a(format!("{profiles:?}").as_bytes())
}

/// Counts of the replayed generator.
#[derive(Debug, Default)]
struct Replay {
    patterns: u64,
    cubes: u64,
    targeted: u64,
    aborted: u64,
    untestable: u64,
    /// `(deterministic patterns, coverage)` per profile row.
    rows: Vec<(u64, f64)>,
}

impl Replay {
    fn add(&mut self, run: &AtpgRun) {
        self.cubes += run.cubes.len() as u64;
        self.targeted += run.total_faults as u64;
        self.aborted += run.aborted as u64;
        self.untestable += run.untestable as u64;
    }
}

/// The two phases of [`generate_profiles`] driven from outside: one shared
/// LFSR stream fault-simulated with snapshots at every PRP count, then the
/// ATPG top-off per snapshot and coverage target.
fn replay(
    circuit: &Circuit,
    cfg: &ProfileConfig,
    mut tr: Option<&mut Tracer>,
) -> Result<Replay, String> {
    let chains = step(&mut tr, "netlist.scan", || {
        ScanChains::balanced(circuit, cfg.num_chains)
    })
    .map_err(|e| format!("scan: {e}"))?;
    let mut counts = cfg.prp_counts.clone();
    counts.sort_unstable();
    counts.dedup();
    let mut out = Replay::default();

    let mut universe = step(&mut tr, "faultsim.collapse", || {
        FaultUniverse::collapsed(circuit)
    });
    let mut sim = ParFaultSim::new(circuit, resolve_threads(cfg.threads));
    let mut lfsr = Lfsr::new32(cfg.lfsr_seed);
    let mut snapshots = Vec::with_capacity(counts.len());
    for &target in &counts {
        while out.patterns < target {
            let count = (target - out.patterns).min(PatternBlock::CAPACITY as u64) as usize;
            let block = step(&mut tr, "bist.lfsr_block", || {
                lfsr_pattern_block(circuit, &chains, &mut lfsr, count)
            });
            step(&mut tr, "faultsim.detect_block", || {
                sim.detect_block(&block, &mut universe)
            });
            out.patterns += count as u64;
        }
        snapshots.push(universe.clone());
    }

    let mut rows = Vec::new();
    for snapshot in &snapshots {
        let mut atpg = |u: &mut FaultUniverse, c: AtpgConfig| -> AtpgRun {
            let run = step(&mut tr, "atpg.run", || generate_tests_for(circuit, u, &c));
            out.add(&run);
            run
        };
        let mut max_universe = snapshot.clone();
        let max_run = atpg(
            &mut max_universe,
            AtpgConfig {
                stop_at_coverage: None,
                ..cfg.atpg.clone()
            },
        );
        let max_coverage = max_universe.coverage();
        for (ti, target) in cfg.targets.iter().enumerate() {
            let row = match target {
                CoverageTarget::Max if ti == 0 => (max_run.cubes.len() as u64, max_coverage),
                CoverageTarget::Max => {
                    let mut u = snapshot.clone();
                    let run = atpg(
                        &mut u,
                        AtpgConfig {
                            fill_seed: cfg.atpg.fill_seed ^ (0x5EED << ti),
                            stop_at_coverage: None,
                            ..cfg.atpg.clone()
                        },
                    );
                    (run.cubes.len() as u64, u.coverage())
                }
                CoverageTarget::OfMax(f) => {
                    let mut u = snapshot.clone();
                    let run = atpg(
                        &mut u,
                        AtpgConfig {
                            stop_at_coverage: Some(f * max_coverage),
                            ..cfg.atpg.clone()
                        },
                    );
                    (run.cubes.len() as u64, u.coverage())
                }
            };
            rows.push(row);
        }
    }
    out.rows = rows;
    Ok(out)
}

/// The table has one row per PRP count and target, rows of a group order by
/// coverage target, and the replay reproduces every row.
fn check_table(rep: &mut RunReport, cfg: &ProfileConfig, profiles: &[BistProfile], r: &Replay) {
    let groups = cfg.prp_counts.len();
    let per_group = cfg.targets.len();
    rep.check(profiles.len() == groups * per_group, "wrong profile count");
    for g in profiles.chunks(per_group) {
        rep.check(
            g.windows(2)
                .skip(1)
                .all(|w| w[0].coverage >= w[1].coverage - 1e-12),
            "coverage does not fall with the target inside a group",
        );
        rep.check(
            g.iter().all(|p| p.coverage > 0.0 && p.coverage <= 1.0),
            "coverage outside (0, 1]",
        );
    }
    let rows: Vec<(u64, f64)> = profiles
        .iter()
        .map(|p| (p.deterministic_patterns, p.coverage))
        .collect();
    rep.check(
        rows == r.rows,
        "replayed generator disagrees with generate_profiles",
    );
}

pub fn measure(args: &Args, rep: &mut RunReport) -> Result<Measured, String> {
    let synth = synth_config();
    let configs: Vec<ProfileConfig> = (0..CALLS).map(|i| call_config(args, i)).collect();
    let chains = configs[0].num_chains;
    // Set-up builds the CUT model: the netlist, its scan chains and the
    // collapsed fault list.
    let set_up = || -> Result<Circuit, String> {
        let c = synthesize(&synth).map_err(|e| format!("synthesize: {e}"))?;
        black_box(ScanChains::balanced(&c, chains).map_err(|e| format!("scan: {e}"))?);
        black_box(FaultUniverse::collapsed(&c));
        Ok(c)
    };
    let mut setups = SetupSampler::new(args.seconds, SETUP_REPEATS);
    let cut = setups.sample(set_up)?;

    let mut host = HostClock::new(1, Reach::L1);
    let start = Instant::now();
    let mut call_rounds = Vec::new();
    let mut digests: Vec<Vec<u64>> = Vec::new();
    let mut tables = Vec::new();
    let rounds = rounds(args.scale);
    while args.another_round(start, digests.len(), rounds) {
        let (mut call_s, mut round) = (Vec::new(), Vec::new());
        tables.clear();
        for cfg in &configs {
            let t = Instant::now();
            let profiles = generate_profiles(&cut, cfg).map_err(|e| format!("profiles: {e}"))?;
            call_s.push(t.elapsed().as_secs_f64());
            round.push(table_digest(&profiles));
            tables.push(profiles);
            host.tick();
            while setups.due(start.elapsed().as_secs_f64()) {
                setups.sample(set_up)?;
            }
        }
        digests.push(round);
        call_rounds.push(call_s);
    }
    rep.check(
        digests.iter().all(|d| *d == digests[0]),
        "repeated generation produced different tables",
    );
    let (mut aborted, mut targeted) = (0, 0);
    for (cfg, profiles) in configs.iter().zip(&tables) {
        let r = replay(&cut, cfg, None)?;
        check_table(rep, cfg, profiles, &r);
        aborted += r.aborted;
        targeted += r.targeted;
    }

    let per_round: usize = tables.iter().map(Vec::len).sum();
    let generated = (per_round * digests.len()) as u64;
    let mean_coverage =
        tables.iter().flatten().map(|p| p.coverage).sum::<f64>() / per_round.max(1) as f64;
    rep.attempted = generated;
    rep.failed = 0;
    rep.detail(
        "failed_ops_ratio",
        format!("{:?}", aborted as f64 / targeted.max(1) as f64),
    );
    rep.detail("atpg_aborted", aborted);
    rep.detail("atpg_targeted_faults", targeted);
    rep.detail("cut_gates", synth.gates);
    rep.detail("mean_coverage", format!("{mean_coverage:?}"));
    let digest_list: Vec<String> = digests[0]
        .iter()
        .map(|d| format!("\"{d:#018x}\""))
        .collect();
    rep.detail("table_digests", format!("[{}]", digest_list.join(", ")));
    Ok(Measured {
        setup_s: setups.median_s(),
        rounds,
        work_per_round: per_round as f64,
        latency_rounds_ms: call_rounds
            .iter()
            .map(|r| r.iter().map(|s| s * 1e3).collect())
            .collect(),
        work_rounds_s: call_rounds,
        names: ["profiles_per_s", "call_p50_ms", "call_tail_ms"],
        quality: mean_coverage,
        host_slowdown: host.slowdown(),
        host_samples: host.samples(),
    })
}

pub fn traced(args: &Args, rep: &mut RunReport, tr: &mut Tracer) -> Result<Traced, String> {
    let synth = synth_config();
    let cfg = call_config(args, 0);
    let cut = tr
        .span("netlist.synth", |_| synthesize(&synth))
        .map_err(|e| format!("synthesize: {e}"))?;

    let t = Instant::now();
    let profiles = generate_profiles(&cut, &cfg).map_err(|e| format!("profiles: {e}"))?;
    let untraced_pass_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let r = replay(&cut, &cfg, Some(tr))?;
    let traced_pass_s = t.elapsed().as_secs_f64();
    check_table(rep, &cfg, &profiles, &r);

    rep.attempted = profiles.len() as u64;
    rep.failed = 0;
    let prp_s = tr.total("faultsim.detect_block");
    let mut t = Traced {
        untraced_pass_s,
        traced_pass_s,
        untraced_total_s: untraced_pass_s,
        ..Traced::default()
    };
    let v = &mut t.values;
    v.insert("atpg.run_s", tr.total("atpg.run"));
    v.insert("atpg.cubes", r.cubes as f64);
    v.insert("atpg.targeted_faults", r.targeted as f64);
    v.insert("atpg.aborted", r.aborted as f64);
    v.insert("atpg.untestable", r.untestable as f64);
    v.insert("faultsim.prp_sim_s", prp_s);
    v.insert(
        "faultsim.patterns_per_s",
        r.patterns as f64 / prp_s.max(1e-12),
    );
    v.insert("netlist.synth_s", tr.total("netlist.synth"));
    Ok(t)
}
