//! `fleet-campaign`: one-shot [`Campaign::run_timed`] over blueprints built
//! from a small DSE front, on a clean channel — the deployment-scale
//! throughput path. Also the set-up shared with `gateway-noisy-soak`.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use eea_dse::explore::{explore, DseConfig};
use eea_dse::{augment, TransportConfig};
use eea_fleet::{
    blueprints_from_front_configured, Campaign, CampaignConfig, ChannelConfig, CutConfig,
    CutFamily, CutModel, FleetReport, VehicleBlueprint,
};
use eea_moea::Nsga2Config;

use crate::host::{HostClock, Reach};
use crate::report::{fnv1a, median, RunReport, SetupSampler};
use crate::trace::{step, Tracer};
use crate::{Args, Measured, Scale, Traced, THREADS};

/// Set-ups per run, spread over the measured window; `setup_s` is their
/// median.
pub const SETUP_REPEATS: usize = 7;

/// NSGA-II seed of the front the blueprints come from. The front is the
/// fleet's design and stays fixed; the run's seed draws the fleet (which
/// vehicles carry defects, their shut-off windows) and the channel noise.
/// A per-seed front would change the blueprint mix, and with it the
/// simulation cost per vehicle, from seed to seed.
pub const FRONT_SEED: u64 = 2014;

/// Everything a campaign borrows: the blueprints of a small exploration
/// front and the CUT model with its fault dictionary.
pub struct FleetSetup {
    pub blueprints: Vec<VehicleBlueprint>,
    pub cut: CutModel,
}

/// Builds the campaign substrate: blueprints from a small exploration
/// front, with `channel` stamped on every blueprint, and the CUT model.
pub fn setup(
    scale: Scale,
    channel: ChannelConfig,
    mut tr: Option<&mut Tracer>,
) -> Result<FleetSetup, String> {
    let case = step(&mut tr, "model.case_study", eea_model::paper_case_study);
    let diag = step(&mut tr, "core.augment", || {
        augment(&case, &eea_bist::paper_table1())
    })
    .map_err(|e| format!("augment: {e}"))?;
    let evaluations = match scale {
        Scale::Full => 300,
        Scale::Smoke => 60,
    };
    let cfg = DseConfig {
        nsga2: Nsga2Config {
            population: 20,
            evaluations,
            seed: FRONT_SEED,
            ..Nsga2Config::default()
        },
        threads: THREADS,
        ..DseConfig::default()
    };
    let front = step(&mut tr, "core.explore", || explore(&diag, &cfg, |_, _| {})).front;
    let blueprints = step(&mut tr, "fleet.blueprints", || {
        blueprints_from_front_configured(
            &diag,
            &front,
            &TransportConfig::MirroredCan,
            CutFamily::Logic,
            None,
            channel,
        )
    })
    .map_err(|e| format!("blueprints: {e}"))?;
    let cut = step(&mut tr, "fleet.cut_build", || {
        CutModel::build(CutConfig {
            threads: THREADS,
            ..CutConfig::default()
        })
    })
    .map_err(|e| format!("CUT model: {e}"))?;
    Ok(FleetSetup { blueprints, cut })
}

pub fn campaign_config(vehicles: u32, seed: u64) -> CampaignConfig {
    CampaignConfig {
        vehicles,
        seed: seed ^ 0xF1EE_7CA4,
        threads: THREADS,
        shards: THREADS,
        ..CampaignConfig::default()
    }
}

/// Campaigns per round, each over its own fleet drawn from the run's seed.
pub const CAMPAIGNS: u64 = 8;

/// Rounds the statistics are taken over; a round takes about 0.9 s on the
/// baseline machine.
fn rounds(scale: Scale) -> usize {
    match scale {
        Scale::Full => 20,
        Scale::Smoke => 2,
    }
}

/// Vehicles per campaign: enough that vehicle simulation dominates a
/// campaign's time.
fn vehicles(scale: Scale) -> u32 {
    match scale {
        Scale::Full => 1_000_000,
        Scale::Smoke => 20_000,
    }
}

/// The fleet seed of the run's `i`-th campaign.
fn campaign_seed(args: &Args, i: u64) -> u64 {
    args.seed * CAMPAIGNS + i
}

/// FNV-1a over the `Debug` rendering: digest equality is bit equality of
/// the whole report.
pub fn report_digest(report: &FleetReport) -> u64 {
    fnv1a(format!("{report:?}").as_bytes())
}

/// Localized share of detected defects.
pub fn localization_rate(report: &FleetReport) -> f64 {
    report.localized as f64 / report.detected.max(1) as f64
}

pub fn measure(args: &Args, rep: &mut RunReport) -> Result<Measured, String> {
    let mut setups = SetupSampler::new(args.seconds, SETUP_REPEATS);
    let s = setups.sample(|| setup(args.scale, ChannelConfig::Clean, None))?;
    let n = vehicles(args.scale);
    let campaigns = (0..CAMPAIGNS)
        .map(|i| {
            Campaign::new(
                &s.cut,
                &s.blueprints,
                campaign_config(n, campaign_seed(args, i)),
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("campaign: {e}"))?;

    let mut host = HostClock::new(THREADS, Reach::L2);
    let start = Instant::now();
    let mut run_rounds = Vec::new();
    let mut digests: Vec<Vec<u64>> = Vec::new();
    let mut reports = Vec::new();
    let rounds = rounds(args.scale);
    while args.another_round(start, digests.len(), rounds) {
        let (mut run_s, mut round) = (Vec::new(), Vec::new());
        reports.clear();
        for campaign in &campaigns {
            let t = Instant::now();
            let (r, _) = campaign.run_timed();
            run_s.push(t.elapsed().as_secs_f64());
            round.push(report_digest(&r));
            reports.push(r);
            host.tick();
        }
        digests.push(round);
        run_rounds.push(run_s);
        while setups.due(start.elapsed().as_secs_f64()) {
            setups.sample(|| setup(args.scale, ChannelConfig::Clean, None))?;
        }
    }
    rep.check(
        digests.iter().all(|d| *d == digests[0]),
        "repeated campaigns produced different reports",
    );
    // The direct sharded path at other thread and shard counts must agree
    // bit for bit with the gateway path `run_timed` takes.
    let other = Campaign::new(
        &s.cut,
        &s.blueprints,
        CampaignConfig {
            threads: 1,
            shards: 3,
            ..campaign_config(n, campaign_seed(args, 0))
        },
    )
    .map_err(|e| format!("campaign: {e}"))?;
    let direct = other.aggregate(&other.simulate());
    rep.check(
        report_digest(&direct) == digests[0][0],
        "direct simulate+aggregate report differs from run_timed",
    );
    rep.check(
        reports.iter().all(|r| r.detected > 0),
        "a campaign detected no defect",
    );

    let runs = digests.len() as u64;
    let rejected: u64 = reports
        .iter()
        .map(|r| r.robustness.as_ref().map_or(0, |r| r.rejected_uploads))
        .sum();
    let per_round = u64::from(n) * CAMPAIGNS;
    rep.attempted = per_round * runs;
    rep.failed = rejected * runs;
    rep.detail(
        "failed_ops_ratio",
        format!("{:?}", rep.failed as f64 / rep.attempted as f64),
    );
    let rate = reports.iter().map(localization_rate).sum::<f64>() / reports.len() as f64;
    rep.detail("localization_rate", format!("{rate:?}"));
    rep.detail("vehicles", n);
    rep.detail(
        "detected",
        format!(
            "{:?}",
            reports.iter().map(|r| r.detected).collect::<Vec<_>>()
        ),
    );
    rep.detail("blueprints", s.blueprints.len());
    let digest_list: Vec<String> = digests[0]
        .iter()
        .map(|d| format!("\"{d:#018x}\""))
        .collect();
    rep.detail("report_digests", format!("[{}]", digest_list.join(", ")));
    Ok(Measured {
        setup_s: setups.median_s(),
        rounds,
        work_per_round: per_round as f64,
        latency_rounds_ms: run_rounds
            .iter()
            .map(|r| r.iter().map(|s| s * 1e3).collect())
            .collect(),
        work_rounds_s: run_rounds,
        names: [
            "fleet_vehicles_per_s",
            "campaign_p50_ms",
            "campaign_tail_ms",
        ],
        quality: rate,
        host_slowdown: host.slowdown(),
        host_samples: host.samples(),
    })
}

/// A serial pass over the fleet's arrivals: simulation cost per vehicle in
/// ns.
pub fn sim_ns_per_vehicle(campaign: &Campaign<'_>, tr: &mut Tracer) -> f64 {
    let produced = tr.span("fleet.arrivals", |_| {
        campaign.arrivals().fold(0u64, |n, a| {
            black_box(a);
            n + 1
        })
    });
    tr.total("fleet.arrivals") * 1e9 / produced.max(1) as f64
}

/// Passes of the traced run (each variant).
const TRACED_PASSES: usize = 3;

pub fn traced(args: &Args, rep: &mut RunReport, tr: &mut Tracer) -> Result<Traced, String> {
    let s = setup(args.scale, ChannelConfig::Clean, Some(tr))?;
    let n = vehicles(args.scale);
    let campaign = tr
        .span("fleet.campaign", |_| {
            Campaign::new(
                &s.cut,
                &s.blueprints,
                campaign_config(n, campaign_seed(args, 0)),
            )
        })
        .map_err(|e| format!("campaign: {e}"))?;
    let sim_ns = sim_ns_per_vehicle(&campaign, tr);

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut stages = Vec::new();
    let mut digests = Vec::new();
    let mut last = None;
    for _ in 0..TRACED_PASSES {
        let t = Instant::now();
        let (plain, _) = campaign.run_timed();
        untraced.push(t.elapsed().as_secs_f64());
        digests.push(tr.span("bench.digest", |_| report_digest(&plain)));
        let t = Instant::now();
        let (r, timings) = tr.span("fleet.run_timed", |_| campaign.run_timed());
        traced.push(t.elapsed().as_secs_f64());
        digests.push(tr.span("bench.digest", |_| report_digest(&r)));
        stages.push(timings);
        last = Some(r);
    }
    let r = last.ok_or("no traced pass ran")?;
    rep.check(
        digests.iter().all(|&d| d == digests[0]),
        "traced and untraced campaigns produced different reports",
    );
    // Clean uploads diagnose their fault's own fail data.
    let faults: BTreeSet<u32> = r.findings.iter().map(|f| f.fault_index).collect();
    for &i in &faults {
        let fail = s.cut.fail_data(i);
        black_box(tr.span("bist.diagnose", |_| s.cut.diagnose(fail)));
    }
    let rob = r.robustness.as_ref();
    rep.attempted = u64::from(n);
    rep.failed = rob.map_or(0, |r| r.rejected_uploads);

    let stage =
        |f: fn(&eea_fleet::StageTimings) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
    let mut t = Traced {
        untraced_pass_s: median(&untraced),
        traced_pass_s: median(&traced),
        untraced_total_s: untraced.iter().sum(),
        ..Traced::default()
    };
    let v = &mut t.values;
    v.insert("fleet.sim_ns_per_vehicle", sim_ns);
    v.insert("fleet.simulate_s", stage(|t| t.simulate_s));
    v.insert("fleet.merge_s", stage(|t| t.merge_s));
    v.insert("fleet.diagnose_s", stage(|t| t.diagnose_s));
    v.insert("fleet.fold_s", stage(|t| t.fold_s));
    v.insert(
        "bist.diagnose_us_per_query",
        tr.total("bist.diagnose") * 1e6 / faults.len().max(1) as f64,
    );
    v.insert("bist.distinct_diag_keys", faults.len() as f64);
    v.insert("bist.dict_build_s", s.cut.dict_build_seconds());
    v.insert(
        "can.impaired_uploads",
        rob.map_or(0, |r| r.impaired_uploads) as f64,
    );
    v.insert(
        "can.retransmitted_frames",
        rob.map_or(0, |r| r.retransmitted_frames) as f64,
    );
    Ok(t)
}
