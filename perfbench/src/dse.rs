//! `dse-paper`: NSGA-II SAT-decoding exploration of the paper case study
//! (15 ECUs, all 36 Table I profiles per ECU = 540 BIST options) over
//! classic mirrored CAN — the paper's own headline workload.

use std::hint::black_box;
use std::time::Instant;

use eea_dse::explore::{explore, DseConfig, DseProblem, ExploredImplementation, EVAL_LANES};
use eea_dse::{augment, encode, evaluate_with_transport, DiagSpec, TransportConfig, MAX_SHUTOFF_S};
use eea_moea::{dominates, hypervolume, run, Nsga2Config, Problem};
use eea_sat::SolveResult;

use crate::host::{HostClock, Reach};
use crate::report::{fnv1a, median, tail, RunReport, SetupSampler};
use crate::trace::Tracer;
use crate::{Args, Measured, Scale, Traced, THREADS};

/// Set-ups per run, spread over the measured window; `setup_s` is their
/// median.
pub const SETUP_REPEATS: usize = 101;

/// Hypervolume box of the minimised objectives `[cost, -quality,
/// shutoff_s]`. `front_hypervolume` is the volume dominated inside
/// `[HV_IDEAL, HV_REFERENCE]` as a share of the box; front points beyond
/// the reference cost add nothing.
pub const HV_IDEAL: [f64; 3] = [400.0, -1.0, 0.0];
pub const HV_REFERENCE: [f64; 3] = [520.0, 0.0, MAX_SHUTOFF_S];

/// Explorations per round, each with its own NSGA-II seed derived from the
/// run's seed: the cost of a search trajectory differs between seeds, and a
/// round of several averages that out of the run-to-run spread.
pub const SEEDS_PER_ROUND: u64 = 2;

/// Rounds the statistics are taken over; a round takes about 2.3 s on the
/// baseline machine.
fn rounds(scale: Scale) -> usize {
    match scale {
        Scale::Full => 8,
        Scale::Smoke => 2,
    }
}

fn nsga2(args: &Args, seed: u64) -> Nsga2Config {
    let (population, evaluations) = match args.scale {
        Scale::Full => (100, 1_000),
        Scale::Smoke => (16, 160),
    };
    Nsga2Config {
        population,
        evaluations,
        seed,
        ..Nsga2Config::default()
    }
}

fn round_seeds(args: &Args) -> Vec<u64> {
    (0..SEEDS_PER_ROUND)
        .map(|i| args.seed * SEEDS_PER_ROUND + i)
        .collect()
}

fn paper_diag() -> Result<DiagSpec, String> {
    eea_bench::paper_diag_spec()
        .map(|(_, diag)| diag)
        .map_err(|e| format!("case study: {e}"))
}

pub fn normalized_hypervolume(front: &[ExploredImplementation]) -> f64 {
    let points: Vec<Vec<f64>> = front
        .iter()
        .map(|e| e.objectives.to_minimized())
        .filter(|p| p.iter().zip(&HV_REFERENCE).all(|(x, r)| x <= r))
        .collect();
    let volume: f64 = HV_IDEAL
        .iter()
        .zip(&HV_REFERENCE)
        .map(|(i, r)| r - i)
        .product();
    hypervolume(&points, &HV_REFERENCE) / volume
}

/// Digest of the sorted front objectives plus the front size.
pub fn front_digest(front: &[ExploredImplementation]) -> u64 {
    let mut objs: Vec<[u64; 3]> = front
        .iter()
        .map(|e| {
            let o = e.objectives;
            [
                o.cost.to_bits(),
                o.test_quality.to_bits(),
                o.shutoff_s.to_bits(),
            ]
        })
        .collect();
    objs.sort_unstable();
    let mut bytes = (front.len() as u64).to_le_bytes().to_vec();
    for o in objs.iter().flatten() {
        bytes.extend_from_slice(&o.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Every front member is a valid implementation whose objectives re-evaluate
/// exactly, and no member dominates another.
fn check_front(rep: &mut RunReport, diag: &DiagSpec, front: &[ExploredImplementation]) {
    rep.check(!front.is_empty(), "empty front");
    for e in front {
        rep.check(
            diag.spec.validate_implementation(&e.implementation).is_ok(),
            "front implementation violates the specification",
        );
        let (o, _) =
            evaluate_with_transport(diag, &e.implementation, &TransportConfig::MirroredCan);
        rep.check(o == e.objectives, "front objectives do not re-evaluate");
    }
    let vs: Vec<Vec<f64>> = front.iter().map(|e| e.objectives.to_minimized()).collect();
    let dominated = vs.iter().any(|a| vs.iter().any(|b| dominates(b, a)));
    rep.check(!dominated, "front member is dominated");
}

pub fn measure(args: &Args, rep: &mut RunReport) -> Result<Measured, String> {
    let set_up = || -> Result<DiagSpec, String> {
        let d = paper_diag()?;
        black_box(encode(&d));
        Ok(d)
    };
    let mut setups = SetupSampler::new(args.seconds, SETUP_REPEATS);
    let diag = setups.sample(set_up)?;
    let configs: Vec<DseConfig> = round_seeds(args)
        .into_iter()
        .map(|seed| DseConfig {
            nsga2: nsga2(args, seed),
            threads: THREADS,
            ..DseConfig::default()
        })
        .collect();
    let population = configs[0].nsga2.population;

    let mut host = HostClock::new(THREADS, Reach::Chase);
    let start = Instant::now();
    let mut evaluations = 0u64;
    let mut infeasible = 0u64;
    let mut work_rounds = Vec::new();
    let mut generation_rounds = Vec::new();
    let mut digests: Vec<Vec<u64>> = Vec::new();
    let mut fronts = Vec::new();
    let rounds = rounds(args.scale);
    while args.another_round(start, digests.len(), rounds) {
        let (mut round, mut work_s, mut generation_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut round_evaluations = 0;
        fronts.clear();
        for cfg in &configs {
            // The items are the stretches between consecutive progress
            // callbacks, one per generation, and the stretch after the
            // last; the generation latency is that of the main NSGA-II
            // phase, one population apart (the functional warm-up runs
            // smaller generations).
            let mut last = Instant::now();
            let mut last_evals = None;
            let res = explore(&diag, cfg, |evals, _| {
                let now = Instant::now();
                let dt = (now - last).as_secs_f64();
                work_s.push(dt);
                if last_evals.is_some_and(|prev| evals - prev == population) {
                    generation_ms.push(dt * 1e3);
                }
                host.tick();
                (last, last_evals) = (Instant::now(), Some(evals));
            });
            work_s.push(last.elapsed().as_secs_f64());
            round_evaluations += res.evaluations as u64;
            infeasible += res.infeasible as u64;
            round.push(front_digest(&res.front));
            fronts.push(res.front);
            while setups.due(start.elapsed().as_secs_f64()) {
                setups.sample(set_up)?;
            }
        }
        evaluations += round_evaluations;
        digests.push(round);
        work_rounds.push((work_s, round_evaluations));
        generation_rounds.push(generation_ms);
    }
    rep.check(
        digests.iter().all(|d| *d == digests[0]),
        "explorations with one seed produced different fronts",
    );
    for front in &fronts {
        check_front(rep, &diag, front);
    }

    let hv = fronts
        .iter()
        .map(|f| normalized_hypervolume(f))
        .sum::<f64>()
        / fronts.len() as f64;
    rep.check(
        work_rounds.iter().all(|w| w.1 == work_rounds[0].1),
        "rounds made different numbers of evaluations",
    );
    rep.attempted = evaluations;
    rep.failed = infeasible;
    rep.detail(
        "failed_ops_ratio",
        format!("{:?}", infeasible as f64 / evaluations as f64),
    );
    rep.detail("front_hypervolume", format!("{hv:?}"));
    rep.detail("hv_ideal", format!("{HV_IDEAL:?}"));
    rep.detail("hv_reference", format!("{HV_REFERENCE:?}"));
    rep.detail("nsga2_seeds", format!("{:?}", round_seeds(args)));
    rep.detail(
        "front_sizes",
        format!("{:?}", fronts.iter().map(Vec::len).collect::<Vec<_>>()),
    );
    let digest_list: Vec<String> = digests[0]
        .iter()
        .map(|d| format!("\"{d:#018x}\""))
        .collect();
    rep.detail("front_digests", format!("[{}]", digest_list.join(", ")));
    Ok(Measured {
        setup_s: setups.median_s(),
        rounds,
        work_per_round: work_rounds[0].1 as f64,
        work_rounds_s: work_rounds.into_iter().map(|w| w.0).collect(),
        latency_rounds_ms: generation_rounds,
        names: ["dse_evals_per_s", "generation_p50_ms", "generation_tail_ms"],
        quality: hv,
        host_slowdown: host.slowdown(),
        host_samples: host.samples(),
    })
}

/// Times every batch the optimizer evaluates (`core.batch`) and records the
/// genotypes and results for the decode replay.
struct TimedProblem<'t, P> {
    inner: P,
    tracer: &'t mut Tracer,
    batches: Vec<Vec<Vec<f64>>>,
    results: Vec<Vec<Option<Vec<f64>>>>,
}

impl<P: Problem> Problem for TimedProblem<'_, P> {
    fn genotype_len(&self) -> usize {
        self.inner.genotype_len()
    }

    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }

    fn evaluate(&mut self, genotype: &[f64]) -> Option<Vec<f64>> {
        self.evaluate_batch(&[genotype.to_vec()]).pop().flatten()
    }

    fn evaluate_batch(&mut self, genotypes: &[Vec<f64>]) -> Vec<Option<Vec<f64>>> {
        let inner = &mut self.inner;
        let out = self
            .tracer
            .span("core.batch", |_| inner.evaluate_batch(genotypes));
        self.batches.push(genotypes.to_vec());
        self.results.push(out.clone());
        out
    }
}

/// The traced run: the optimizer loop over a timing wrapper (MOEA
/// bookkeeping = `run` wall minus batch time), then a replay of every
/// recorded genotype on the benchmark's own encoding, with the library's
/// lane scheme, to split a batch into SAT decode and objective evaluation.
pub fn traced(args: &Args, rep: &mut RunReport, tr: &mut Tracer) -> Result<Traced, String> {
    let case = tr.span("model.case_study", |_| eea_model::paper_case_study());
    let diag = tr
        .span("core.augment", |_| {
            augment(&case, &eea_bist::paper_table1())
        })
        .map_err(|e| format!("augment: {e}"))?;
    let enc = tr.span("core.encode", |_| encode(&diag));
    let mut cfg = nsga2(args, round_seeds(args)[0]);

    // The same optimizer loop untraced, for the tracing overhead.
    let mut plain = tr.span("core.problem", |_| DseProblem::with_threads(&diag, THREADS));
    cfg.seeds = tr.span("core.corner_genotypes", |_| plain.corner_genotypes());
    let t = Instant::now();
    let plain_res = run(&mut plain, &cfg, |_, _| {});
    let untraced_pass_s = t.elapsed().as_secs_f64();

    let inner = tr.span("core.problem", |_| DseProblem::with_threads(&diag, THREADS));
    let id = tr.enter("moea.run");
    let t = Instant::now();
    let mut timed = TimedProblem {
        inner,
        tracer: &mut *tr,
        batches: Vec::new(),
        results: Vec::new(),
    };
    let res = run(&mut timed, &cfg, |_, _| {});
    let TimedProblem {
        inner,
        batches,
        results,
        ..
    } = timed;
    let traced_pass_s = t.elapsed().as_secs_f64();
    tr.exit(id);
    let objectives = |r: &eea_moea::Nsga2Result| -> Vec<Vec<f64>> {
        r.archive
            .entries()
            .iter()
            .map(|e| e.objectives.clone())
            .collect()
    };
    let same = tr.span("bench.check", |_| {
        objectives(&res) == objectives(&plain_res)
    });
    rep.check(same, "timing wrapper changed the optimizer's archive");
    // Freeing a problem's solvers takes milliseconds; spanned so the time
    // is attributed.
    tr.span("core.drop", |_| drop((plain, inner)));

    let mvars = enc.mapping_vars();
    let n = mvars.len();
    let mut lanes: Vec<eea_sat::Solver> = tr.span("bench.replay", |_| {
        (0..EVAL_LANES).map(|_| enc.solver.clone()).collect()
    });
    let (mut conflicts, mut propagations, mut mismatches) = (0u64, 0u64, 0usize);
    for (batch, outs) in batches.iter().zip(&results) {
        for (i, (genotype, out)) in batch.iter().zip(outs).enumerate() {
            let solver = &mut lanes[i % EVAL_LANES];
            tr.span("bench.replay", |_| {
                for (k, &(_, _, v)) in mvars.iter().enumerate() {
                    solver.set_priority(v, genotype[k].max(1e-9));
                    solver.set_polarity(v, genotype[n + k] > 0.5);
                }
            });
            let (c0, p0) = (solver.num_conflicts(), solver.num_propagations());
            let sat = tr.span("sat.decode", |_| solver.solve());
            conflicts += solver.num_conflicts() - c0;
            propagations += solver.num_propagations() - p0;
            let replayed = match sat {
                SolveResult::Sat => {
                    let x = tr.span("core.extract", |_| enc.extract_model(solver, &diag.spec));
                    let (o, _) = tr.span("core.objective_eval", |_| {
                        evaluate_with_transport(&diag, &x, &TransportConfig::MirroredCan)
                    });
                    Some(o.to_minimized())
                }
                SolveResult::Unsat => None,
            };
            if replayed.as_ref() != out.as_ref() {
                mismatches += 1;
            }
        }
    }
    rep.check(
        mismatches == 0,
        format!("{mismatches} replayed decodes differ from the optimizer's"),
    );
    tr.span("bench.replay", |_| drop(lanes));
    tr.span("core.drop", |_| drop(enc));

    let decode_us: Vec<f64> = tr.durations("sat.decode").iter().map(|s| s * 1e6).collect();
    let decodes = decode_us.len() as f64;
    let (decode_tail, pct, _) = tail(&decode_us);
    let eval_us: Vec<f64> = tr
        .durations("core.objective_eval")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    let batch_s = tr.total("core.batch");
    rep.attempted = res.evaluations as u64;
    rep.failed = res.infeasible as u64;
    rep.detail("sat_decode_tail_percentile", format!("{pct:.2}"));
    let mut t = Traced {
        untraced_pass_s,
        traced_pass_s,
        untraced_total_s: untraced_pass_s,
        ..Traced::default()
    };
    let v = &mut t.values;
    v.insert("sat.decode_us_p50", median(&decode_us));
    v.insert("sat.decode_us_tail", decode_tail);
    v.insert(
        "sat.conflicts_per_decode",
        conflicts as f64 / decodes.max(1.0),
    );
    v.insert(
        "sat.propagations_per_decode",
        propagations as f64 / decodes.max(1.0),
    );
    v.insert("sat.decodes", decodes);
    v.insert("core.objective_eval_us_p50", median(&eval_us));
    v.insert("core.encode_s", tr.total("core.encode"));
    v.insert("core.batch_s", batch_s);
    v.insert("moea.bookkeeping_s", tr.total("moea.run") - batch_s);
    v.insert("moea.generations", batches.len() as f64);
    v.insert("moea.archive_size", res.archive.len() as f64);
    Ok(t)
}
