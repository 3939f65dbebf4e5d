//! `gateway-noisy-soak`: a long-lived [`GatewayService`] fed serially from
//! [`Campaign::arrivals`] through `accept` over a noisy, truncating channel,
//! with snapshots interleaved between arrivals. Closed loop: one in-process
//! producer offers the next arrival as soon as `accept` returns.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use eea_bist::{FailData, FAIL_ENTRY_BYTES};
use eea_can::{Impairment, ImpairmentKind};
use eea_fleet::{
    Campaign, ChannelConfig, FleetError, GatewayService, GatewaySnapshot, NoisyChannel,
    StageTimings, VehicleArrival,
};

use crate::fleet::{
    campaign_config, localization_rate, report_digest, setup, sim_ns_per_vehicle, SETUP_REPEATS,
};
use crate::host::{HostClock, Reach};
use crate::report::{median, RunReport, SetupSampler};
use crate::trace::Tracer;
use crate::{Args, Measured, Scale, Traced};

/// Snapshots interleaved with one pass over the fleet (plus the final one).
fn snapshots(scale: Scale) -> usize {
    match scale {
        Scale::Full => 256,
        Scale::Smoke => 24,
    }
}

/// Rounds (passes) the statistics are taken over; a pass takes about
/// 2 s on the baseline machine.
fn rounds(scale: Scale) -> usize {
    match scale {
        Scale::Full => 8,
        Scale::Smoke => 2,
    }
}

fn vehicles(scale: Scale) -> u32 {
    match scale {
        Scale::Full => 1_000_000,
        Scale::Smoke => 20_000,
    }
}

/// A 1 % frame-error bus with proportionate payload corruption and window
/// loss, and a 48-byte truncation cap (four fail-memory entries).
fn channel(seed: u64) -> ChannelConfig {
    ChannelConfig::Noisy(NoisyChannel {
        frame_error_rate: 0.01,
        corruption_rate: 0.04,
        window_loss_rate: 0.02,
        truncation_cap_bytes: 48,
        seed: seed ^ 0x0B5E_55ED_CA4B_005E,
    })
}

/// The payload diagnosis sees for `fail` under `imp`: truncate to the cap,
/// then lose or corrupt one entry of what arrived.
fn observed_payload(fail: &FailData, imp: Impairment) -> FailData {
    let capped = fail.truncated_to(u64::from(imp.cap_entries) * FAIL_ENTRY_BYTES);
    match imp.kind {
        ImpairmentKind::Intact => capped,
        ImpairmentKind::WindowLost { slot } => capped.without_window_slot(usize::from(slot)),
        ImpairmentKind::CorruptedSyndrome { salt } => capped.with_corrupted_window(salt),
    }
}

/// One soak pass: every arrival of the fleet, with a snapshot after each
/// `1/snapshots` of it, then the final snapshot at the horizon.
#[derive(Default)]
struct Pass {
    offered: u64,
    /// Seconds of each stretch of arrivals between two snapshots.
    ingest_s: Vec<f64>,
    snapshot_ms: Vec<f64>,
    timings: Vec<StageTimings>,
    monotone: bool,
    last: Option<GatewaySnapshot>,
}

/// Hooks of the traced pass; the untraced pass runs with `None`.
struct Probe<'t> {
    tr: &'t mut Tracer,
    keys: BTreeSet<(u32, Impairment)>,
    queue_high_water: usize,
}

fn accept(svc: &mut GatewayService<'_>, a: VehicleArrival) -> Result<(), String> {
    match svc.accept(a) {
        // Counted by the service; a rejected frame is a failed operation.
        Ok(()) | Err(FleetError::MalformedUpload { .. }) => Ok(()),
        Err(e) => Err(format!("accept: {e}")),
    }
}

fn pass(
    campaign: &Campaign<'_>,
    snapshots: usize,
    mut probe: Option<&mut Probe<'_>>,
    mut host: Option<&mut HostClock>,
) -> Result<Pass, String> {
    let mut svc = campaign.gateway().map_err(|e| format!("gateway: {e}"))?;
    let cfg = campaign.config();
    let n = cfg.vehicles as usize;
    let stride = n.div_ceil(snapshots);
    let mut arrivals = campaign.arrivals();
    let mut p = Pass {
        monotone: true,
        ..Pass::default()
    };
    let mut detected = 0;
    for k in 0..=snapshots {
        let at_s = if k == snapshots {
            cfg.horizon_s
        } else {
            let t = Instant::now();
            match probe.as_deref_mut() {
                None => {
                    for a in arrivals.by_ref().take(stride) {
                        accept(&mut svc, a)?;
                        p.offered += 1;
                    }
                }
                Some(hooks) => {
                    let chunk: Vec<VehicleArrival> = hooks.tr.span("fleet.produce", |_| {
                        arrivals.by_ref().take(stride).collect()
                    });
                    for up in chunk.iter().filter_map(|a| a.upload.as_ref()) {
                        hooks.keys.insert((up.fault_index, up.impairment));
                    }
                    let mut high = hooks.queue_high_water;
                    hooks.tr.span("gateway.accept", |_| -> Result<(), String> {
                        for &a in &chunk {
                            accept(&mut svc, a)?;
                            high = high.max(svc.queue_len());
                        }
                        Ok(())
                    })?;
                    hooks.queue_high_water = high;
                    p.offered += chunk.len() as u64;
                }
            }
            p.ingest_s.push(t.elapsed().as_secs_f64());
            cfg.horizon_s * p.offered as f64 / n as f64
        };
        let t = Instant::now();
        let (snap, timings) = match probe.as_deref_mut() {
            None => (svc.snapshot_at(at_s), StageTimings::default()),
            Some(hooks) => hooks
                .tr
                .span("snapshot.take", |_| svc.snapshot_at_timed(at_s)),
        };
        p.snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(h) = host.as_deref_mut() {
            h.tick();
        }
        p.timings.push(timings);
        p.monotone &= snap.report.detected >= detected;
        detected = snap.report.detected;
        p.last = Some(snap);
    }
    Ok(p)
}

/// Checks one pass; returns the final snapshot.
fn check_pass(rep: &mut RunReport, p: &Pass) -> Result<GatewaySnapshot, String> {
    let last = p.last.clone().ok_or("pass took no snapshot")?;
    rep.check(p.monotone, "detected is not monotone across snapshots");
    rep.check(
        last.ingested + last.shed + last.malformed + last.duplicates == p.offered,
        format!(
            "ingested {} + shed {} + malformed {} + duplicates {} != offered {}",
            last.ingested, last.shed, last.malformed, last.duplicates, p.offered
        ),
    );
    Ok(last)
}

pub fn measure(args: &Args, rep: &mut RunReport) -> Result<Measured, String> {
    let mut setups = SetupSampler::new(args.seconds, SETUP_REPEATS);
    let s = setups.sample(|| setup(args.scale, channel(args.seed), None))?;
    let n = vehicles(args.scale);
    let campaign = Campaign::new(&s.cut, &s.blueprints, campaign_config(n, args.seed))
        .map_err(|e| format!("campaign: {e}"))?;

    let mut host = HostClock::new(1, Reach::L2);
    let start = Instant::now();
    let (mut offered, mut failed) = (0u64, 0u64);
    let (mut ingest_rounds, mut snapshot_rounds) = (Vec::new(), Vec::new());
    let mut digests = Vec::new();
    let mut last = None;
    let rounds = rounds(args.scale);
    while args.another_round(start, digests.len(), rounds) {
        let p = pass(&campaign, snapshots(args.scale), None, Some(&mut host))?;
        let fin = check_pass(rep, &p)?;
        rep.check(
            p.offered == u64::from(n),
            "a pass offered a different number of arrivals",
        );
        offered += p.offered;
        failed += fin.shed + fin.malformed;
        ingest_rounds.push(p.ingest_s);
        snapshot_rounds.push(p.snapshot_ms);
        digests.push(report_digest(&fin.report));
        last = Some(fin);
        while setups.due(start.elapsed().as_secs_f64()) {
            setups.sample(|| setup(args.scale, channel(args.seed), None))?;
        }
    }
    let fin = last.ok_or("no soak pass ran")?;
    rep.check(
        digests.iter().all(|&d| d == digests[0]),
        "repeated soak passes produced different final snapshots",
    );
    // The one-shot parallel path must reach the same report bit for bit.
    rep.check(
        report_digest(&campaign.run()) == digests[0],
        "final soak snapshot differs from the one-shot campaign report",
    );
    let rob = fin.report.robustness.as_ref();
    rep.check(
        rob.is_some_and(|r| r.impaired_uploads > 0),
        "noisy channel impaired no upload",
    );

    rep.attempted = offered;
    rep.failed = failed;
    rep.detail(
        "failed_ops_ratio",
        format!("{:?}", failed as f64 / offered as f64),
    );
    rep.detail(
        "localization_rate",
        format!("{:?}", localization_rate(&fin.report)),
    );
    rep.detail("vehicles", n);
    rep.detail("snapshots_per_pass", snapshots(args.scale) + 1);
    rep.detail("impaired_uploads", rob.map_or(0, |r| r.impaired_uploads));
    rep.detail("report_digest", format!("\"{:#018x}\"", digests[0]));
    Ok(Measured {
        setup_s: setups.median_s(),
        rounds,
        work_per_round: f64::from(n),
        work_rounds_s: ingest_rounds,
        // Every pass takes the same snapshots.
        latency_rounds_ms: snapshot_rounds,
        names: [
            "ingest_arrivals_per_s",
            "snapshot_p50_ms",
            "snapshot_tail_ms",
        ],
        quality: localization_rate(&fin.report),
        host_slowdown: host.slowdown(),
        host_samples: host.samples(),
    })
}

pub fn traced(args: &Args, rep: &mut RunReport, tr: &mut Tracer) -> Result<Traced, String> {
    let s = setup(args.scale, channel(args.seed), Some(tr))?;
    let n = vehicles(args.scale);
    let campaign = tr
        .span("fleet.campaign", |_| {
            Campaign::new(&s.cut, &s.blueprints, campaign_config(n, args.seed))
        })
        .map_err(|e| format!("campaign: {e}"))?;
    let sim_ns = sim_ns_per_vehicle(&campaign, tr);

    let t = Instant::now();
    let plain = pass(&campaign, snapshots(args.scale), None, None)?;
    let untraced_pass_s = t.elapsed().as_secs_f64();
    let plain_fin = check_pass(rep, &plain)?;

    let mut probe = Probe {
        tr: &mut *tr,
        keys: BTreeSet::new(),
        queue_high_water: 0,
    };
    let t = Instant::now();
    let p = pass(&campaign, snapshots(args.scale), Some(&mut probe), None)?;
    let traced_pass_s = t.elapsed().as_secs_f64();
    let Probe {
        keys,
        queue_high_water,
        ..
    } = probe;
    let fin = check_pass(rep, &p)?;
    let same = tr.span("bench.digest", |_| {
        report_digest(&fin.report) == report_digest(&plain_fin.report)
    });
    rep.check(
        same,
        "traced and untraced soak passes produced different final snapshots",
    );

    // Diagnosis of every distinct impaired payload the soak uploaded.
    let mut queries = 0usize;
    for &(fault, imp) in keys.iter().filter(|(_, imp)| !imp.is_none()) {
        let observed = observed_payload(s.cut.fail_data(fault), imp);
        black_box(tr.span("bist.diagnose", |_| s.cut.diagnose(&observed)));
        queries += 1;
    }

    let rob = fin.report.robustness.as_ref();
    rep.attempted = p.offered;
    rep.failed = fin.shed + fin.malformed;
    let ms = |f: fn(&StageTimings) -> f64| -> Vec<f64> {
        p.timings.iter().map(|t| f(t) * 1e3).collect()
    };
    let (merge, diagnose, lookup, fold) = (
        ms(|t| t.merge_s),
        ms(|t| t.diagnose_s),
        ms(|t| t.diagnose_lookup_s),
        ms(|t| t.fold_s),
    );
    let mut t = Traced {
        untraced_pass_s,
        traced_pass_s,
        untraced_total_s: untraced_pass_s,
        ..Traced::default()
    };
    let v = &mut t.values;
    v.insert("fleet.sim_ns_per_vehicle", sim_ns);
    v.insert(
        "gateway.accept_ns_per_arrival",
        tr.total("gateway.accept") * 1e9 / p.offered.max(1) as f64,
    );
    v.insert("gateway.queue_high_water", queue_high_water as f64);
    v.insert("gateway.shed", fin.shed as f64);
    v.insert("gateway.duplicates", fin.duplicates as f64);
    v.insert("gateway.malformed", fin.malformed as f64);
    v.insert("snapshot.merge_ms_p50", median(&merge));
    v.insert("snapshot.merge_ms_sum", merge.iter().sum());
    v.insert("snapshot.diagnose_ms_p50", median(&diagnose));
    v.insert("snapshot.diagnose_ms_sum", diagnose.iter().sum());
    v.insert("snapshot.diagnose_lookup_ms_p50", median(&lookup));
    v.insert("snapshot.diagnose_lookup_ms_sum", lookup.iter().sum());
    v.insert("snapshot.fold_ms_p50", median(&fold));
    v.insert("snapshot.fold_ms_sum", fold.iter().sum());
    v.insert(
        "bist.diagnose_us_per_query",
        tr.total("bist.diagnose") * 1e6 / queries.max(1) as f64,
    );
    v.insert("bist.distinct_diag_keys", keys.len() as f64);
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
