//! The SP&R flow: physical pipeline and calibrated fast surface.

use crate::cache::QorCache;
use crate::noise::{gaussian_draw, ToolNoise};
use crate::options::SpnrOptions;
use crate::record::{FlowStep, StepRecord};
use crate::FlowError;
use ideaflow_faults::{Fault, FaultInjector};
use ideaflow_netlist::generate::DesignSpec;
use ideaflow_netlist::graph::Netlist;
use ideaflow_place::cts::{synthesize, CtsStyle};
use ideaflow_place::floorplan::Floorplan;
use ideaflow_place::placement::{net_hpwl, total_hpwl};
use ideaflow_place::placer::{anneal_placement, partition_seeded_placement, PlacerConfig};
use ideaflow_route::drv::{behavior_from_congestion, simulate, DrvConfig, DrvTrajectory};
use ideaflow_route::global::{GlobalRoute, RouteConfig};
use ideaflow_timing::graph::TimingGraph;
use ideaflow_timing::model::{Constraints, Corner, WireModel};
use ideaflow_timing::pba::{max_frequency_ghz, pba};
use ideaflow_timing::si::apply_coupling;
use ideaflow_trace::Journal;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// QoR returned by one (fast-surface) SP&R run.
#[derive(Debug, Clone, PartialEq)]
pub struct QorSample {
    /// The target frequency that was asked for, GHz.
    pub target_ghz: f64,
    /// Post-route cell area, um².
    pub area_um2: f64,
    /// Signoff worst negative slack, ps (>= 0 means timing met).
    pub wns_ps: f64,
    /// Leakage power, nW.
    pub leakage_nw: f64,
    /// Wall-clock runtime of the run, hours (model value).
    pub runtime_hours: f64,
}

impl QorSample {
    /// Whether the run closed timing.
    #[must_use]
    pub fn meets_timing(&self) -> bool {
        self.wns_ps >= 0.0
    }
}

/// QoR plus physical artifacts from a full pipeline run.
#[derive(Debug, Clone)]
pub struct PhysicalOutcome {
    /// Headline QoR.
    pub qor: QorSample,
    /// Total placed HPWL, um.
    pub hpwl_um: f64,
    /// Global-routing overflow.
    pub route_overflow: f64,
    /// Fraction of routing bins over capacity.
    pub hot_fraction: f64,
    /// Clock skew from the synthesized clock tree, ps.
    pub clock_skew_ps: f64,
    /// Clock buffers inserted by CTS.
    pub clock_buffers: usize,
    /// The detailed-route DRV trajectory of this run.
    pub drv: DrvTrajectory,
}

/// The synthetic SP&R flow for one design.
///
/// Construction calibrates the fast surface against the design's real
/// timing graph (achievable-frequency estimate) so that the thousands of
/// cheap samples the ML layers draw are anchored to the same physics the
/// full pipeline exercises.
#[derive(Debug, Clone)]
pub struct SpnrFlow {
    spec: DesignSpec,
    seed: u64,
    netlist: Netlist,
    noise: ToolNoise,
    fmax_ref_ghz: f64,
    base_area_um2: f64,
    base_leakage_nw: f64,
    journal: Journal,
    cache: Option<QorCache>,
    faults: Option<FaultInjector>,
}

impl SpnrFlow {
    /// Builds and calibrates the flow for a design.
    #[must_use]
    pub fn new(spec: DesignSpec, seed: u64) -> Self {
        let netlist = spec.generate(seed);
        let graph = TimingGraph::build(&netlist, WireModel::default());
        let fmax_ref_ghz =
            max_frequency_ghz(&graph, &[Corner::SLOW]).expect("generated designs have endpoints");
        let base_area_um2 = netlist.total_area_um2();
        let base_leakage_nw = netlist.total_leakage_nw();
        Self {
            spec,
            seed,
            netlist,
            noise: ToolNoise::default(),
            fmax_ref_ghz,
            base_area_um2,
            base_leakage_nw,
            journal: Journal::disabled(),
            cache: None,
            faults: None,
        }
    }

    /// Overrides the noise law (for calibration ablations).
    #[must_use]
    pub fn with_noise(mut self, noise: ToolNoise) -> Self {
        self.noise = noise;
        self
    }

    /// Attaches a run journal: every subsequent [`SpnrFlow::run`],
    /// [`SpnrFlow::run_logged`] and [`SpnrFlow::run_physical`] emits
    /// structured events into it. Clones of the flow share the journal.
    #[must_use]
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = journal;
        self
    }

    /// Attaches a QoR memo cache: subsequent [`SpnrFlow::run`] calls
    /// reuse memoized `(options, sample)` evaluations. Results are
    /// bit-identical either way (the fast surface is deterministic per
    /// key); only the `flow.cache.hits` / `flow.cache.misses` counters
    /// show the difference. Clones of the flow share the cache.
    #[must_use]
    pub fn with_cache(mut self, cache: QorCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a fault injector: every subsequent [`SpnrFlow::try_run`]
    /// consults the injector's seeded plan for its `(fingerprint,
    /// sample)` key and rehearses the assigned failure mode — crash
    /// (an error), hang (inflated model runtime), or corrupted QoR.
    /// Whether and how a run fails is a pure function of the plan seed
    /// and the run key, never of thread timing, so chaos campaigns are
    /// reproducible bit for bit at any thread count. Clones share the
    /// injector's counters.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The attached fault injector, if any.
    #[must_use]
    pub fn faults(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// The attached QoR cache, if any.
    #[must_use]
    pub fn cache(&self) -> Option<&QorCache> {
        self.cache.as_ref()
    }

    /// The attached journal (disabled unless set).
    #[must_use]
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The design spec.
    #[must_use]
    pub fn spec(&self) -> &DesignSpec {
        &self.spec
    }

    /// The calibrated reference fmax (medium efforts, default floorplan).
    #[must_use]
    pub fn fmax_ref_ghz(&self) -> f64 {
        self.fmax_ref_ghz
    }

    /// The generated netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Effective achievable frequency for an option vector (mean, no
    /// noise).
    #[must_use]
    pub fn fmax_effective_ghz(&self, opts: &SpnrOptions) -> f64 {
        let util_over = ((opts.utilization - 0.70) / 0.25).max(0.0);
        let util_penalty = 1.0 - 0.12 * util_over * util_over;
        let a = opts.aspect_ratio.ln();
        let aspect_penalty = 1.0 - 0.05 * a * a;
        // Aggressive CTS trades skew for clock power: the skew eats setup
        // margin, lowering the achievable frequency slightly.
        let cts_penalty = if opts.cts_aggressive { 0.985 } else { 1.0 };
        self.fmax_ref_ghz
            * opts.combined_fmax_factor()
            * util_penalty
            * aspect_penalty
            * cts_penalty
    }

    /// One fast-surface run (panicking shim). Deterministic in
    /// `(options, sample)`; across `sample` values the QoR noise is
    /// i.i.d. Gaussian with variance growing near the achievable limit
    /// (Fig 3).
    ///
    /// This is the legacy infallible surface: it panics where
    /// [`SpnrFlow::try_run`] returns a typed [`FlowError`]. Orchestrators
    /// that must survive crashes (chaos campaigns, supervised runs)
    /// should call `try_run` — this shim exists only for call sites that
    /// never attach a fault injector.
    ///
    /// # Panics
    ///
    /// Panics if `options` fail [`SpnrOptions::validate`], or if an
    /// attached [`FaultInjector`] crashes this `(options, sample)` run.
    #[must_use]
    pub fn run(&self, options: &SpnrOptions, sample: u32) -> QorSample {
        options.validate().expect("options must validate");
        match self.try_run(options, sample) {
            Ok(qor) => qor,
            Err(e) => panic!("unsupervised tool run failed: {e} (use try_run)"),
        }
    }

    /// One fallible fast-surface run: validates options, consults any
    /// attached fault injector, and reports failures as typed errors
    /// instead of panicking.
    ///
    /// Fault semantics (all pure functions of the plan seed and the
    /// `(fingerprint, sample)` key, so chaos campaigns replay bit for
    /// bit at any thread count):
    ///
    /// - `Crash` → `Err(FlowError::ToolCrash)`, no QoR, nothing cached.
    /// - `Hang { hours }` → the run completes but its *model*
    ///   `runtime_hours` is inflated by `hours`; supervisors compare
    ///   that against their deadline (wall-clock time is never
    ///   consulted).
    /// - `CorruptQor { factor }` → worst slack is degraded by the
    ///   factor, modelling the divergent-outlier tail of Fig 3.
    ///
    /// Hang and corruption are applied *after* memoization: the cache
    /// stores the clean surface value, so cold and warm replays of a
    /// faulty key report the same perturbed QoR.
    pub fn try_run(&self, options: &SpnrOptions, sample: u32) -> Result<QorSample, FlowError> {
        options.validate()?;
        let fp = options.fingerprint() ^ self.seed;
        let fault = self.faults.as_ref().and_then(|inj| inj.inject(fp, sample));
        if let Some(f) = &fault {
            if self.journal.is_enabled() {
                let magnitude = match f {
                    Fault::Crash => 0.0,
                    Fault::Hang { hours } => *hours,
                    Fault::CorruptQor { factor } => *factor,
                };
                self.journal.emit(
                    "fault.injected",
                    &[
                        ("mode", f.mode().into()),
                        ("sample", sample.into()),
                        ("fingerprint", (fp as i64).into()),
                        ("magnitude", magnitude.into()),
                    ],
                );
            }
            self.journal.count("faults.injected", 1);
            self.journal.count(
                match f {
                    Fault::Crash => "faults.crash",
                    Fault::Hang { .. } => "faults.hang",
                    Fault::CorruptQor { .. } => "faults.corrupt_qor",
                },
                1,
            );
        }
        if matches!(fault, Some(Fault::Crash)) {
            return Err(FlowError::ToolCrash {
                fingerprint: fp,
                sample,
            });
        }
        let mut qor = self.evaluate(options, sample, fp);
        match fault {
            Some(Fault::Hang { hours }) => qor.runtime_hours += hours,
            Some(Fault::CorruptQor { factor }) => {
                // Push the reported slack deep into the failing tail; the
                // offset keeps near-zero slacks from corrupting to
                // near-zero.
                qor.wns_ps -= (qor.wns_ps.abs() + 25.0) * (factor - 1.0);
            }
            _ => {}
        }
        Ok(qor)
    }

    /// The deterministic fast surface for one validated `(options,
    /// sample)` key, with memoization. `fp` is the combined cache key
    /// (`options.fingerprint() ^ self.seed`).
    fn evaluate(&self, options: &SpnrOptions, sample: u32, fp: u64) -> QorSample {
        if let Some(cache) = &self.cache {
            if let Some(qor) = cache.get(fp, sample) {
                // Re-emit exactly what the cold run emitted, so cached
                // and cold journals are indistinguishable apart from
                // the cache counters.
                self.emit_sample(&qor, sample, fp);
                self.journal.count("flow.cache.hits", 1);
                return qor;
            }
        }
        let fmax = self.fmax_effective_ghz(options);
        let u = options.target_ghz / fmax;
        let nf = options.combined_noise_factor();

        // Area: optimization pressure near the limit costs area (upsizing,
        // VT swaps, buffering).
        let pressure = 0.25 * u * u / (1.0 - u).max(0.05);
        let area_mean = self.base_area_um2 * options.combined_area_factor() * (1.0 + pressure)
            / (options.utilization / 0.70).powf(0.15);
        let sigma_rel = self.noise.sigma_at(u) * nf;
        let area = area_mean * (1.0 + sigma_rel * gaussian_draw(fp, sample, 1));

        // Timing: mean WNS is the period headroom; noise grows near fmax
        // and scales with the tool's configured noise level (so the
        // noise-calibration ablation affects timing, not just area).
        let wns_mean = 1_000.0 / options.target_ghz - 1_000.0 / fmax;
        let noise_scale = self.noise.sigma0 / ToolNoise::default().sigma0;
        let wns_sigma = (4.0 + 45.0 * u * u) * nf * noise_scale;
        let wns = wns_mean + wns_sigma * gaussian_draw(fp, sample, 2);

        // Leakage: timing pressure forces low-VT usage; aggressive CTS
        // saves clock-buffer leakage.
        let cts_leak = if options.cts_aggressive { 0.97 } else { 1.0 };
        let leak_mean = self.base_leakage_nw * (1.0 + 0.8 * u * u) * cts_leak;
        let leakage = leak_mean * (1.0 + 0.03 * gaussian_draw(fp, sample, 3));

        // Runtime model: size- and effort-dependent, slower near the limit.
        let kinst = self.netlist.instance_count() as f64 / 1_000.0;
        let runtime_mean =
            0.5 * kinst.powf(0.8) * options.combined_runtime_factor() * (1.0 + 0.6 * u.min(1.5));
        let runtime = (runtime_mean * (1.0 + 0.05 * gaussian_draw(fp, sample, 4))).max(0.01);

        let qor = QorSample {
            target_ghz: options.target_ghz,
            area_um2: area,
            wns_ps: wns,
            leakage_nw: leakage,
            runtime_hours: runtime,
        };
        if let Some(cache) = &self.cache {
            // Same rule as the cache's own counters: only the insert
            // that creates the entry is a miss; a worker that computed
            // the key alongside another one counts a hit.
            if cache.insert(fp, sample, qor.clone()) {
                self.journal.count("flow.cache.misses", 1);
            } else {
                self.journal.count("flow.cache.hits", 1);
            }
        }
        self.emit_sample(&qor, sample, fp);
        qor
    }

    fn emit_sample(&self, qor: &QorSample, sample: u32, fp: u64) {
        if self.journal.is_enabled() {
            self.journal.emit(
                "flow.sample",
                &[
                    ("sample", sample.into()),
                    // The combined cache key, bitcast so checkpoint
                    // readers can rebuild the memo cache from the
                    // journal alone (see `QorCache::seed_from_journal`).
                    ("fingerprint", (fp as i64).into()),
                    ("target_ghz", qor.target_ghz.into()),
                    ("area_um2", qor.area_um2.into()),
                    ("wns_ps", qor.wns_ps.into()),
                    ("leakage_nw", qor.leakage_nw.into()),
                    ("runtime_hours", qor.runtime_hours.into()),
                ],
            );
            self.journal.count("flow.samples", 1);
        }
    }

    /// One fast-surface run plus its per-step METRICS records.
    #[must_use]
    pub fn run_logged(&self, options: &SpnrOptions, sample: u32) -> (QorSample, Vec<StepRecord>) {
        let qor = self.run(options, sample);
        let records = self.step_records(options, &qor, sample);
        if self.journal.is_enabled() {
            // These events are the METRICS transport:
            // `metrics::corpus::from_events` rebuilds `records` from
            // them (finite values bit for bit), so the payload carries
            // `flow_run` and every metric in record order.
            for r in &records {
                let fields: Vec<(&str, ideaflow_trace::PayloadValue)> =
                    std::iter::once(("flow_run", r.run_id.as_str().into()))
                        .chain(r.metrics.iter().map(|(k, v)| (k.as_str(), (*v).into())))
                        .collect();
                self.journal
                    .emit(&format!("flow.step.{}", r.step.name()), &fields);
            }
        }
        (qor, records)
    }

    /// The per-step METRICS records a finished run with this QoR would
    /// stream, in flow order, without journaling anything. Supervisors
    /// walk prefixes of this sequence to ask an early-kill predictor
    /// whether the in-flight run is doomed.
    #[must_use]
    pub fn step_records(
        &self,
        options: &SpnrOptions,
        qor: &QorSample,
        sample: u32,
    ) -> Vec<StepRecord> {
        let run_id = format!(
            "{}_{:016x}_s{sample}",
            self.netlist.name(),
            options.fingerprint()
        );
        let share = |f: f64| qor.runtime_hours * f;
        let mut records = Vec::with_capacity(FlowStep::ORDER.len());
        for step in FlowStep::ORDER {
            let mut r = StepRecord::new(step, &run_id);
            r.push("target_ghz", qor.target_ghz);
            match step {
                FlowStep::Synthesis => {
                    r.push("instances", self.netlist.instance_count() as f64);
                    r.push("area_um2", qor.area_um2 * 0.92);
                    r.push("runtime_hours", share(0.15));
                }
                FlowStep::Floorplan => {
                    r.push("utilization", options.utilization);
                    r.push("aspect_ratio", options.aspect_ratio);
                    r.push("runtime_hours", share(0.05));
                }
                FlowStep::Place => {
                    r.push("area_um2", qor.area_um2 * 0.97);
                    r.push("wns_ps", qor.wns_ps + 14.0);
                    r.push("runtime_hours", share(0.30));
                }
                FlowStep::Cts => {
                    r.push("wns_ps", qor.wns_ps + 6.0);
                    r.push("cts_aggressive", f64::from(options.cts_aggressive));
                    r.push("runtime_hours", share(0.10));
                }
                FlowStep::Route => {
                    r.push("area_um2", qor.area_um2);
                    r.push("wns_ps", qor.wns_ps + 2.0);
                    r.push("runtime_hours", share(0.30));
                }
                FlowStep::Signoff => {
                    r.push("area_um2", qor.area_um2);
                    r.push("wns_ps", qor.wns_ps);
                    r.push("leakage_nw", qor.leakage_nw);
                    r.push("runtime_hours", share(0.10));
                }
            }
            records.push(r);
        }
        records
    }

    /// Runs the full physical pipeline: floorplan → partition-seeded
    /// placement → annealing → global route → SI-aware multi-corner signoff
    /// → detailed-route DRV simulation.
    ///
    /// # Panics
    ///
    /// Panics if `options` fail validation (as [`SpnrFlow::run`]).
    #[must_use]
    pub fn run_physical(&self, options: &SpnrOptions, sample: u32) -> PhysicalOutcome {
        options.validate().expect("options must validate");
        let run_seed = self.seed ^ options.fingerprint() ^ (u64::from(sample) << 17);
        let flow_run = format!(
            "{}_{:016x}_s{sample}",
            self.netlist.name(),
            options.fingerprint()
        );
        let t_total = Instant::now();
        let span_run = self.journal.span("flow.run_physical");
        let t0 = Instant::now();
        let span = self.journal.span("flow.floorplan");
        let fp = Floorplan::for_netlist(&self.netlist, options.utilization, options.aspect_ratio)
            .expect("validated options fit");
        if self.journal.is_enabled() {
            self.journal.emit(
                "flow.floorplan",
                &[
                    ("flow_run", flow_run.as_str().into()),
                    ("utilization", options.utilization.into()),
                    ("aspect_ratio", options.aspect_ratio.into()),
                    ("secs", t0.elapsed().as_secs_f64().into()),
                ],
            );
        }
        drop(span);
        let t0 = Instant::now();
        let span = self.journal.span("flow.place");
        let start = partition_seeded_placement(&self.netlist, &fp, run_seed)
            .expect("floorplan sized for netlist");
        let moves = match options.place_effort {
            crate::options::Effort::Low => 15_000,
            crate::options::Effort::Medium => 40_000,
            crate::options::Effort::High => 90_000,
        };
        let placed = anneal_placement(
            &self.netlist,
            &fp,
            start,
            PlacerConfig {
                moves,
                t_initial: 60.0,
                t_final: 0.3,
            },
            run_seed.wrapping_add(1),
        );
        let hpwl = total_hpwl(&self.netlist, &fp, &placed.placement);
        if self.journal.is_enabled() {
            self.journal.emit(
                "flow.place",
                &[
                    ("flow_run", flow_run.as_str().into()),
                    ("moves", moves.into()),
                    ("hpwl_um", hpwl.into()),
                    ("secs", t0.elapsed().as_secs_f64().into()),
                ],
            );
            self.journal.observe("flow.place.hpwl_um", hpwl);
        }
        drop(span);
        // Clock-tree synthesis: skew tightens the effective setup budget.
        let t0 = Instant::now();
        let span = self.journal.span("flow.cts");
        let cts = synthesize(
            &self.netlist,
            &fp,
            &placed.placement,
            if options.cts_aggressive {
                CtsStyle::Aggressive
            } else {
                CtsStyle::Balanced
            },
        )
        .expect("generated designs have flops");
        if self.journal.is_enabled() {
            self.journal.emit(
                "flow.cts",
                &[
                    ("flow_run", flow_run.as_str().into()),
                    ("skew_ps", cts.skew_ps().into()),
                    ("buffers", cts.buffer_count.into()),
                    ("secs", t0.elapsed().as_secs_f64().into()),
                ],
            );
        }
        drop(span);
        let t0 = Instant::now();
        let span = self.journal.span("flow.route");
        let route = GlobalRoute::run(
            &self.netlist,
            &fp,
            &placed.placement,
            RouteConfig {
                cols: 16,
                rows: 16,
                capacity: 40.0 / options.utilization,
            },
        );
        if self.journal.is_enabled() {
            self.journal.emit(
                "flow.route",
                &[
                    ("flow_run", flow_run.as_str().into()),
                    ("overflow", route.total_overflow().into()),
                    ("hot_fraction", route.hot_fraction(1.0).into()),
                    ("secs", t0.elapsed().as_secs_f64().into()),
                ],
            );
        }
        drop(span);
        // Timing with placement-derived net lengths.
        let t0 = Instant::now();
        let span = self.journal.span("flow.signoff");
        let lengths: Vec<f64> = (0..self.netlist.net_count())
            .map(|n| net_hpwl(&self.netlist, &fp, &placed.placement, n).max(0.5))
            .collect();
        let mut graph =
            TimingGraph::build_with_lengths(&self.netlist, WireModel::default(), lengths);
        let couple_rate = 0.05 + 0.4 * route.hot_fraction(0.8);
        apply_coupling(&mut graph, couple_rate.min(0.6), run_seed.wrapping_add(2));
        let mut cons = Constraints::at_frequency_ghz(options.target_ghz)
            .expect("validated frequency in range");
        // Worst-case skew is additional setup uncertainty at every capture
        // flop.
        cons.setup_ps += cts.skew_ps();
        let signoff = pba(&graph, &cons, &Corner::STANDARD).expect("endpoints exist");
        if self.journal.is_enabled() {
            self.journal.emit(
                "flow.signoff",
                &[
                    ("flow_run", flow_run.as_str().into()),
                    ("wns_ps", signoff.wns_ps.into()),
                    ("skew_ps", cts.skew_ps().into()),
                    ("secs", t0.elapsed().as_secs_f64().into()),
                ],
            );
            self.journal.observe("flow.signoff.wns_ps", signoff.wns_ps);
        }
        drop(span);
        // Detailed routing.
        let t0 = Instant::now();
        let span = self.journal.span("flow.detail_route");
        let mut rng = StdRng::seed_from_u64(run_seed.wrapping_add(3));
        let behavior = behavior_from_congestion(route.hot_fraction(1.0), &mut rng);
        let initial_drvs =
            (500.0 + route.total_overflow() * 30.0 + self.netlist.net_count() as f64 * 0.5).round()
                as u64;
        let drv = simulate(
            behavior,
            initial_drvs.max(1),
            DrvConfig::default(),
            run_seed.wrapping_add(4),
        )
        .expect("positive initial DRVs");
        if self.journal.is_enabled() {
            self.journal.emit(
                "flow.detail_route",
                &[
                    ("flow_run", flow_run.as_str().into()),
                    ("initial_drvs", initial_drvs.into()),
                    ("final_drvs", drv.counts.last().copied().unwrap_or(0).into()),
                    ("secs", t0.elapsed().as_secs_f64().into()),
                ],
            );
        }
        drop(span);
        let qor = QorSample {
            target_ghz: options.target_ghz,
            area_um2: self.netlist.total_area_um2(),
            wns_ps: signoff.wns_ps,
            leakage_nw: self.netlist.total_leakage_nw(),
            runtime_hours: 0.0,
        };
        if self.journal.is_enabled() {
            self.journal.emit(
                "flow.run_physical",
                &[
                    ("flow_run", flow_run.as_str().into()),
                    ("sample", sample.into()),
                    ("target_ghz", qor.target_ghz.into()),
                    ("wns_ps", qor.wns_ps.into()),
                    ("hpwl_um", hpwl.into()),
                    ("secs", t_total.elapsed().as_secs_f64().into()),
                ],
            );
            self.journal.count("flow.run_physical.calls", 1);
            self.journal
                .observe("flow.run_physical.secs", t_total.elapsed().as_secs_f64());
        }
        drop(span_run);
        PhysicalOutcome {
            qor,
            hpwl_um: hpwl,
            route_overflow: route.total_overflow(),
            hot_fraction: route.hot_fraction(1.0),
            clock_skew_ps: cts.skew_ps(),
            clock_buffers: cts.buffer_count,
            drv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Effort;
    use ideaflow_netlist::generate::DesignClass;

    fn flow() -> SpnrFlow {
        SpnrFlow::new(DesignSpec::new(DesignClass::Cpu, 400).unwrap(), 0xDAC)
    }

    #[test]
    fn calibration_produces_sane_fmax() {
        let f = flow();
        assert!(
            f.fmax_ref_ghz() > 0.05 && f.fmax_ref_ghz() < 10.0,
            "fmax {}",
            f.fmax_ref_ghz()
        );
    }

    #[test]
    fn runs_are_deterministic_per_sample() {
        let f = flow();
        let o = SpnrOptions::with_target_ghz(0.4).unwrap();
        assert_eq!(f.run(&o, 3), f.run(&o, 3));
        assert_ne!(f.run(&o, 3), f.run(&o, 4));
    }

    #[test]
    fn area_noise_grows_near_fmax() {
        let f = flow();
        let fmax = f.fmax_effective_ghz(&SpnrOptions::with_target_ghz(0.4).unwrap());
        let spread = |ghz: f64| {
            let o = SpnrOptions::with_target_ghz(ghz).unwrap();
            let areas: Vec<f64> = (0..60).map(|s| f.run(&o, s).area_um2).collect();
            let m = areas.iter().sum::<f64>() / areas.len() as f64;
            (areas.iter().map(|a| (a - m) * (a - m)).sum::<f64>() / areas.len() as f64).sqrt() / m
        };
        let low = spread(fmax * 0.5);
        let high = spread(fmax * 0.95);
        assert!(high > low * 1.5, "high {high} vs low {low}");
    }

    #[test]
    fn success_rate_declines_with_target() {
        let f = flow();
        let o_easy = SpnrOptions::with_target_ghz(f.fmax_ref_ghz() * 0.6).unwrap();
        let o_hard = SpnrOptions::with_target_ghz(f.fmax_ref_ghz() * 1.2).unwrap();
        let rate =
            |o: &SpnrOptions| (0..40).filter(|&s| f.run(o, s).meets_timing()).count() as f64 / 40.0;
        assert!(rate(&o_easy) > 0.9);
        assert!(rate(&o_hard) < 0.2);
    }

    #[test]
    fn high_effort_expands_fmax_and_runtime() {
        let f = flow();
        let mut hi = SpnrOptions::with_target_ghz(0.4).unwrap();
        hi.synth_effort = Effort::High;
        hi.place_effort = Effort::High;
        hi.route_effort = Effort::High;
        let lo = SpnrOptions::with_target_ghz(0.4).unwrap();
        assert!(f.fmax_effective_ghz(&hi) > f.fmax_effective_ghz(&lo));
        assert!(f.run(&hi, 0).runtime_hours > f.run(&lo, 0).runtime_hours);
    }

    #[test]
    fn over_utilization_hurts_fmax() {
        let f = flow();
        let mut tight = SpnrOptions::with_target_ghz(0.4).unwrap();
        tight.utilization = 0.92;
        let norm = SpnrOptions::with_target_ghz(0.4).unwrap();
        assert!(f.fmax_effective_ghz(&tight) < f.fmax_effective_ghz(&norm));
    }

    #[test]
    fn logged_run_covers_all_steps() {
        let f = flow();
        let o = SpnrOptions::with_target_ghz(0.4).unwrap();
        let (qor, records) = f.run_logged(&o, 1);
        assert_eq!(records.len(), 6);
        let signoff = records.last().unwrap();
        assert_eq!(signoff.metric("wns_ps"), Some(qor.wns_ps));
        // Step runtimes sum to the run's runtime.
        let sum: f64 = records
            .iter()
            .filter_map(|r| r.metric("runtime_hours"))
            .sum();
        assert!((sum - qor.runtime_hours).abs() < 1e-9);
    }

    #[test]
    fn physical_run_produces_consistent_artifacts() {
        let f = SpnrFlow::new(DesignSpec::new(DesignClass::Cpu, 200).unwrap(), 7);
        let o = SpnrOptions::with_target_ghz(f.fmax_ref_ghz() * 0.7).unwrap();
        let p = f.run_physical(&o, 0);
        assert!(p.hpwl_um > 0.0);
        assert!(p.hot_fraction >= 0.0 && p.hot_fraction <= 1.0);
        assert_eq!(p.drv.counts.len(), 20);
        assert!(p.qor.area_um2 > 0.0);
    }

    #[test]
    fn journaled_physical_run_emits_step_events() {
        let f = SpnrFlow::new(DesignSpec::new(DesignClass::Cpu, 200).unwrap(), 7)
            .with_journal(ideaflow_trace::Journal::in_memory("phys"));
        let o = SpnrOptions::with_target_ghz(f.fmax_ref_ghz() * 0.7).unwrap();
        let _ = f.run_physical(&o, 0);
        let _ = f.run(&o, 0);
        let reader = ideaflow_trace::JournalReader {
            events: f.journal().drain_events(),
        };
        assert!(reader.seq_strictly_increasing_per_run());
        for step in [
            "flow.floorplan",
            "flow.place",
            "flow.cts",
            "flow.route",
            "flow.signoff",
            "flow.detail_route",
            "flow.run_physical",
            "flow.sample",
        ] {
            assert_eq!(reader.events_for_step(step).len(), 1, "step {step}");
        }
        let place = &reader.events_for_step("flow.place")[0];
        assert!(place.payload.get("hpwl_um").is_some());
        assert!(place.payload.get("secs").is_some());
    }

    #[test]
    fn physical_run_emits_nested_spans() {
        let f = SpnrFlow::new(DesignSpec::new(DesignClass::Cpu, 200).unwrap(), 7)
            .with_journal(ideaflow_trace::Journal::in_memory("spans"));
        let o = SpnrOptions::with_target_ghz(f.fmax_ref_ghz() * 0.7).unwrap();
        let _ = f.run_physical(&o, 0);
        let reader = ideaflow_trace::JournalReader {
            events: f.journal().drain_events(),
        };
        // Root span + one child per stage, all closed.
        let opens = reader.events_for_step("span.open");
        assert_eq!(opens.len(), 7);
        assert_eq!(reader.events_for_step("span.close").len(), 7);
        // The root is flow.run_physical; every stage span is its child.
        let root = opens
            .iter()
            .find(|e| e.payload.get("name").and_then(|v| v.as_str()) == Some("flow.run_physical"))
            .unwrap();
        let root_id = root.payload.get("id").cloned().unwrap();
        for e in &opens {
            if e.payload.get("name") == root.payload.get("name") {
                continue;
            }
            assert_eq!(e.payload.get("parent"), Some(&root_id), "{:?}", e.payload);
        }
    }

    #[test]
    fn cache_never_changes_results_and_counts_hits() {
        let cache = crate::cache::QorCache::new();
        let cold = flow();
        let warm = flow().with_cache(cache.clone());
        let o = SpnrOptions::with_target_ghz(0.4).unwrap();
        for s in 0..10 {
            assert_eq!(cold.run(&o, s), warm.run(&o, s));
        }
        assert_eq!(cache.misses(), 10);
        // Second pass is served entirely from the cache, bit-identical.
        for s in 0..10 {
            assert_eq!(cold.run(&o, s), warm.run(&o, s));
        }
        assert_eq!(cache.hits(), 10);
        assert_eq!(cache.len(), 10);
    }

    #[test]
    fn cache_hits_emit_the_same_journal_events_as_cold_runs() {
        let o = SpnrOptions::with_target_ghz(0.4).unwrap();
        // Same samples; only the seq counter may differ.
        let samples = |journal: &ideaflow_trace::Journal| {
            let mut events = journal.drain_events();
            events.retain(|e| e.step == "flow.sample");
            events.iter_mut().for_each(|e| e.seq = 0);
            events
        };
        let cold = flow().with_journal(ideaflow_trace::Journal::in_memory("cold"));
        for s in 0..5 {
            let _ = cold.run(&o, s);
        }
        let cold_samples = samples(cold.journal());

        let warm = flow()
            .with_cache(crate::cache::QorCache::new())
            .with_journal(ideaflow_trace::Journal::in_memory("cold"));
        for s in 0..5 {
            let _ = warm.run(&o, s); // populate
        }
        let _ = warm.journal().drain_events();
        for s in 0..5 {
            let _ = warm.run(&o, s); // all hits
        }
        let warm_samples = samples(warm.journal());
        assert_eq!(warm.cache().unwrap().hits(), 5);
        assert_eq!(cold_samples.len(), 5);
        assert_eq!(cold_samples, warm_samples);
    }

    #[test]
    fn disabled_journal_changes_nothing() {
        let base = flow();
        let journaled = flow().with_journal(ideaflow_trace::Journal::in_memory("j"));
        let o = SpnrOptions::with_target_ghz(0.4).unwrap();
        assert_eq!(base.run(&o, 5), journaled.run(&o, 5));
    }

    #[test]
    #[should_panic(expected = "options must validate")]
    fn invalid_options_panic() {
        let f = flow();
        let mut o = SpnrOptions::with_target_ghz(0.4).unwrap();
        o.utilization = 0.05;
        let _ = f.run(&o, 0);
    }

    #[test]
    fn try_run_reports_invalid_options_as_typed_errors() {
        let f = flow();
        let mut o = SpnrOptions::with_target_ghz(0.4).unwrap();
        o.utilization = 0.05;
        match f.try_run(&o, 0) {
            Err(FlowError::InvalidParameter { name, .. }) => assert_eq!(name, "utilization"),
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn try_run_without_faults_matches_run() {
        let f = flow();
        let o = SpnrOptions::with_target_ghz(0.4).unwrap();
        for s in 0..8 {
            assert_eq!(f.try_run(&o, s).unwrap(), f.run(&o, s));
        }
    }

    fn chaotic_flow(rate: f64) -> SpnrFlow {
        flow().with_faults(ideaflow_faults::FaultInjector::new(
            ideaflow_faults::FaultPlan::uniform(0xBAD, rate),
        ))
    }

    #[test]
    fn injected_faults_perturb_runs_deterministically() {
        let f = chaotic_flow(0.15);
        let clean = flow();
        let o = SpnrOptions::with_target_ghz(0.4).unwrap();
        let plan = *f.faults().unwrap().plan();
        let fp = o.fingerprint() ^ 0xDAC;
        let mut crashes = 0u64;
        let mut hangs = 0u64;
        let mut corruptions = 0u64;
        for s in 0..200u32 {
            let faulty = f.try_run(&o, s);
            // Replays are bit-identical, faults included.
            assert_eq!(faulty, f.try_run(&o, s));
            match plan.fault_for(fp, s) {
                Some(ideaflow_faults::Fault::Crash) => {
                    assert_eq!(
                        faulty,
                        Err(FlowError::ToolCrash {
                            fingerprint: fp,
                            sample: s
                        })
                    );
                    crashes += 1;
                }
                Some(ideaflow_faults::Fault::Hang { hours }) => {
                    let q = faulty.unwrap();
                    let base = clean.run(&o, s);
                    assert!((q.runtime_hours - base.runtime_hours - hours).abs() < 1e-12);
                    hangs += 1;
                }
                Some(ideaflow_faults::Fault::CorruptQor { .. }) => {
                    let q = faulty.unwrap();
                    assert!(
                        q.wns_ps < clean.run(&o, s).wns_ps,
                        "corruption degrades slack"
                    );
                    corruptions += 1;
                }
                None => assert_eq!(faulty.unwrap(), clean.run(&o, s)),
            }
        }
        assert!(crashes > 0 && hangs > 0 && corruptions > 0);
        let inj = f.faults().unwrap();
        // try_run ran twice per sample, so every tally is doubled.
        assert_eq!(inj.crashes(), crashes * 2);
        assert_eq!(inj.hangs(), hangs * 2);
        assert_eq!(inj.corruptions(), corruptions * 2);
    }

    #[test]
    fn faults_are_journaled_and_cache_transparent() {
        let cache = crate::cache::QorCache::new();
        let f = chaotic_flow(0.2)
            .with_cache(cache.clone())
            .with_journal(ideaflow_trace::Journal::in_memory("chaos"));
        let o = SpnrOptions::with_target_ghz(0.4).unwrap();
        let cold: Vec<_> = (0..40).map(|s| f.try_run(&o, s)).collect();
        let warm: Vec<_> = (0..40).map(|s| f.try_run(&o, s)).collect();
        // The cache memoizes the clean surface; perturbed replays agree.
        assert_eq!(cold, warm);
        assert!(cache.hits() > 0);
        let reader = ideaflow_trace::JournalReader {
            events: f.journal().drain_events(),
        };
        let injected = reader.events_for_step("fault.injected");
        assert_eq!(injected.len() as u64, f.faults().unwrap().total());
        assert!(injected
            .iter()
            .all(|e| e.payload.get("mode").is_some() && e.payload.get("fingerprint").is_some()));
    }

    #[test]
    fn step_records_match_run_logged() {
        let f = flow().with_journal(ideaflow_trace::Journal::in_memory("steps"));
        let o = SpnrOptions::with_target_ghz(0.4).unwrap();
        let (qor, logged) = f.run_logged(&o, 2);
        let plain = f.step_records(&o, &qor, 2);
        assert_eq!(logged.len(), plain.len());
        for (a, b) in logged.iter().zip(&plain) {
            assert_eq!(a.run_id, b.run_id);
            assert_eq!(a.metrics, b.metrics);
        }
    }
}
