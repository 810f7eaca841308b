//! The four named workloads. Each builds its inputs from the seed, runs one
//! *step* (a fixed batch of seeded runs) through a layer's public entry
//! point, reads the counters the layers already expose, and checks the
//! outputs. The step is the unit the loop in `main.rs` repeats and times.

use crate::cpu_seconds;
use crate::metrics::{max_rate_at_slo, service_gap_ticks, RatePoint};
use crate::trace::Tracer;
use prft_core::analysis::{analyze, honest_ids, AsReplica};
use prft_game::Profile;
use prft_lab::{
    derive_seed, game_registry, report, run_sim, run_workload_sim, BatchRunner, CheckpointStore,
    GameDef, GameEval, GameExplorer, ScenarioSpec, Synchrony, TimelineEvent, WorkloadRunStats,
    WorkloadSpec,
};
use prft_sim::obs::hooks::{self, HookSnapshot};
use prft_sim::{Node, ObsRegistry, Simulation};
use prft_types::TxId;
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Worker threads for the batch workloads (the benchmark host has 2 cores).
const THREADS: usize = 2;

/// Per-layer counts and virtual-time figures of one step, by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// What one step did.
#[derive(Default)]
pub struct Step {
    /// Seeded simulation runs completed.
    pub runs: u64,
    /// Operations attempted (the workload's unit: rounds, client
    /// transactions or runs; see the README).
    pub attempted: u64,
    /// Operations that did not complete (rounds not finalized, client
    /// transactions not committed).
    pub shortfall: u64,
    /// Descriptions of failed checks.
    pub failures: Vec<String>,
    /// A digest of the step's deterministic outputs: every step of a run
    /// uses the same inputs, so every step must reproduce it exactly.
    pub digest: String,
    pub counts: Counts,
}

impl Step {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Failed operations: those that did not complete, or, when more, one
    /// per failed check (a check that fails fails at least one operation),
    /// never more than were attempted.
    pub fn failed(&self) -> u64 {
        self.shortfall
            .max(self.failures.len() as u64)
            .min(self.attempted)
    }
}

fn add(c: &mut Counts, key: &'static str, v: f64) {
    *c.entry(key).or_insert(0.0) += v;
}

fn set_max(c: &mut Counts, key: &'static str, v: f64) {
    let e = c.entry(key).or_insert(0.0);
    *e = e.max(v);
}

/// A named workload.
pub trait Workload {
    /// One set-up, in CPU seconds: generating every spec a step runs and
    /// building each of its cells until the simulation is ready to run.
    /// Each build is recorded as a `lab.build` span, which times the build
    /// layer on the workloads whose steps build inside a batch call.
    fn setup(&self, tr: &mut Tracer, run: u32, parent: Option<usize>) -> f64;
    /// Runs one step.
    fn step(&mut self, tr: &mut Tracer, run: u32, parent: Option<usize>) -> Step;
}

/// The names `--workload` accepts.
pub const NAMES: [&str; 4] = [
    "large-committee",
    "open-loop-clients",
    "fault-grid",
    "game-batch",
];

pub fn make(
    name: &str,
    seed: u64,
    slo_p99_ticks: Option<u64>,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "large-committee" => Box::new(LargeCommittee { seed }),
        "open-loop-clients" => Box::new(OpenLoop {
            seed,
            slo_p99_ticks: slo_p99_ticks
                .ok_or("open-loop-clients needs --slo-p99-ticks (fixed in BENCHMARK.json)")?,
        }),
        "fault-grid" => Box::new(FaultGrid { seed }),
        "game-batch" => Box::new(GameBatch { seed }),
        other => return Err(format!("unknown workload {other:?} (one of {NAMES:?})")),
    })
}

// ---------------------------------------------------------------------------
// Shared helpers

/// Builds `spec` (committee or committee-plus-clients), records the build
/// as a `lab.build` span and returns its CPU seconds, from the call until
/// `run_sim`/`run_workload_sim`'s `configure` hook. The copy run here has
/// a zero horizon and no schedule, so nothing past `t = 0` is simulated.
fn timed_build(
    spec: &ScenarioSpec,
    seed: u64,
    tr: &mut Tracer,
    run: u32,
    parent: Option<usize>,
) -> f64 {
    let mut probe = spec.clone();
    probe.horizon = 0;
    probe.schedule.clear();
    let (start, cpu0) = (Instant::now(), cpu_seconds());
    let (mut ready, mut cpu1) = (start, cpu0);
    let mut hook = || (ready, cpu1) = (Instant::now(), cpu_seconds());
    if probe.workload.is_some() {
        black_box(run_workload_sim(&probe, seed, |_| hook()));
    } else {
        black_box(run_sim(&probe, seed, |_| hook()));
    }
    tr.record("lab.build", start, ready, parent, run);
    cpu1 - cpu0
}

/// One set-up: CPU seconds to generate the cells (`(spec, seed)` pairs)
/// plus the build of each.
fn setup_of(
    tr: &mut Tracer,
    run: u32,
    parent: Option<usize>,
    cells: impl FnOnce() -> Vec<(ScenarioSpec, u64)>,
) -> f64 {
    let cpu0 = cpu_seconds();
    let cells = cells();
    let mut total = cpu_seconds() - cpu0;
    for (spec, seed) in &cells {
        total += timed_build(spec, *seed, tr, run, parent);
    }
    total
}

/// A cell with the seed of its first run.
fn first_run(spec: ScenarioSpec) -> (ScenarioSpec, u64) {
    let seed = derive_seed(spec.base_seed, 0);
    (spec, seed)
}

/// One simulation run through `run_sim` / `run_workload_sim`, with the
/// build (up to the `configure` hook) and the execution recorded as
/// separate spans. Hook counters are reset first, so the snapshot holds
/// this run's exact deltas.
fn run_traced<N>(
    tr: &mut Tracer,
    run: u32,
    parent: Option<usize>,
    go: impl FnOnce(&mut dyn FnMut()) -> Simulation<N>,
) -> (Simulation<N>, HookSnapshot)
where
    N: Node,
{
    hooks::reset();
    let start = Instant::now();
    let mut ready = start;
    let sim = go(&mut || ready = Instant::now());
    let end = Instant::now();
    tr.record("lab.build", start, ready, parent, run);
    tr.record("lab.execute", ready, end, parent, run);
    (sim, hooks::snapshot())
}

/// Per-layer metric ← registry counter (`prft_core::obs::collect` names).
const REGISTRY_COUNTERS: [(&str, &str); 7] = [
    ("sim.events", "engine.events_dispatched"),
    ("sim.queue_pushes", "engine.queue_pushes"),
    ("sim.queue_pops", "engine.queue_pops"),
    ("sim.clone_bytes", "engine.clone_bytes"),
    ("crypto.sig_verifies", "crypto.sig_verifies"),
    ("core.rounds_entered", "replica.rounds_entered"),
    ("core.view_changes", "replica.view_changes"),
];

/// Sums the engine, crypto and protocol counters of a run's registry into
/// the per-layer metrics.
fn layer_counts(reg: &ObsRegistry, c: &mut Counts) {
    for (ours, theirs) in REGISTRY_COUNTERS {
        add(c, ours, reg.counter(theirs) as f64);
    }
    let peak_queue = reg.gauge("engine.peak_queue_depth") as f64;
    set_max(c, "sim.peak_queue_depth", peak_queue);
    let peak_arena = reg.gauge("engine.peak_arena_occupancy") as f64;
    set_max(c, "sim.peak_arena", peak_arena);
    for (name, v) in reg.counters() {
        if name.starts_with("send.") {
            if name.ends_with(".msgs") {
                add(c, "sim.msgs", v as f64);
            } else if name.ends_with(".bytes") {
                add(c, "sim.msg_bytes", v as f64);
            }
        }
    }
}

/// The tick each round was first finalized by an honest replica.
fn finalization_ticks<N: Node + AsReplica>(sim: &Simulation<N>) -> Vec<u64> {
    let mut first: BTreeMap<u64, u64> = BTreeMap::new();
    for id in honest_ids(sim) {
        let Some(r) = sim.node(id).as_replica() else {
            continue;
        };
        for (round, at) in &r.stats().finalize_times {
            let e = first.entry(round.0).or_insert(at.0);
            *e = (*e).min(at.0);
        }
    }
    first.into_values().collect()
}

// ---------------------------------------------------------------------------
// large-committee

/// Committee size of `large-committee`: the n² event queue and the O(n³)
/// logical verifies of the accountable Reveal phase are what the
/// aggregate-certificate and vote-batching work targets.
const LARGE_N: usize = 256;
/// Rounds per run.
const LARGE_ROUNDS: u64 = 2;

struct LargeCommittee {
    seed: u64,
}

impl LargeCommittee {
    fn spec(&self) -> (ScenarioSpec, u64) {
        let spec = ScenarioSpec::new("large-committee", LARGE_N, LARGE_ROUNDS)
            .accountable(true)
            .base_seed(derive_seed(self.seed, 1));
        first_run(spec)
    }
}

impl Workload for LargeCommittee {
    fn setup(&self, tr: &mut Tracer, run: u32, parent: Option<usize>) -> f64 {
        setup_of(tr, run, parent, || vec![self.spec()])
    }

    fn step(&mut self, tr: &mut Tracer, run: u32, parent: Option<usize>) -> Step {
        let (spec, seed) = self.spec();
        let (sim, hook) = run_traced(tr, run, parent, |ready| run_sim(&spec, seed, |_| ready()).0);
        let t0 = Instant::now();
        let report = analyze(&sim);
        let reg = prft_core::obs::collect(&sim, &hook);
        let sigma = prft_lab::classify_sim(&spec, &sim);
        tr.record("lab.collect", t0, Instant::now(), parent, run);

        let mut s = Step {
            runs: 1,
            attempted: LARGE_ROUNDS,
            shortfall: LARGE_ROUNDS.saturating_sub(report.min_final_height),
            ..Step::default()
        };
        s.check(report.agreement, || "honest replicas disagree".into());
        s.check(report.min_final_height >= LARGE_ROUNDS, || {
            format!(
                "only {} of {LARGE_ROUNDS} rounds finalized at every honest replica",
                report.min_final_height
            )
        });
        s.check(
            hook.memo_hits + hook.memo_misses == hook.sig_verifies,
            || {
                format!(
                    "verify memo hits {} + misses {} != sig verifies {}",
                    hook.memo_hits, hook.memo_misses, hook.sig_verifies
                )
            },
        );
        let c = &mut s.counts;
        layer_counts(&reg, c);
        add(c, "core.finalized", report.min_final_height as f64);
        add(c, "crypto.hashes", hook.memo_misses as f64);
        add(c, "verify.memo_hits", hook.memo_hits as f64);
        s.digest = format!(
            "h={} ev={} sv={} miss={} {sigma:?}",
            report.min_final_height,
            sim.events_dispatched(),
            hook.sig_verifies,
            hook.memo_misses
        );
        s
    }
}

// ---------------------------------------------------------------------------
// open-loop-clients

/// Committee size of `open-loop-clients`.
const OPEN_N: usize = 8;
/// The offered-rate ladder: below, near and above what the committee
/// drains while a replica is down. The middle rung supplies the commit
/// latency and service-gap figures.
const LADDER: [Rung; 3] = [
    Rung {
        name: "low",
        rate: 2.5,
        p50_key: "wl.low.p50_ticks",
        p99_key: "wl.low.p99_ticks",
    },
    Rung {
        name: "mid",
        rate: 5.0,
        p50_key: "wl.mid.p50_ticks",
        p99_key: "wl.mid.p99_ticks",
    },
    Rung {
        name: "high",
        rate: 10.0,
        p50_key: "wl.high.p50_ticks",
        p99_key: "wl.high.p99_ticks",
    },
];

struct Rung {
    name: &'static str,
    /// Offered tx per tick.
    rate: f64,
    p50_key: &'static str,
    p99_key: &'static str,
}

/// Mean ticks between one client's Poisson arrivals; a rung's client count
/// is `rate × CLIENT_MEAN_TICKS`.
const CLIENT_MEAN_TICKS: u64 = 100;
/// Transactions each client sends.
const TXS_PER_CLIENT: u64 = 10;
/// Replica 7 crashes here, while arrivals (≈ 10 × 100 ticks) are still due.
const OPEN_CRASH_TICK: u64 = 500;
/// Transactions per proposed block: sets the drain capacity the ladder's
/// rungs sit below, near and above.
const OPEN_MAX_BATCH: usize = 256;
/// Round budget: enough for the high rung to drain after the crash.
const OPEN_ROUNDS: u64 = 120;
const OPEN_HORIZON: u64 = 200_000;

struct OpenLoop {
    seed: u64,
    slo_p99_ticks: u64,
}

impl OpenLoop {
    fn spec(&self, rung: usize) -> (ScenarioSpec, u64) {
        let Rung { name, rate, .. } = LADDER[rung];
        let clients = (rate * CLIENT_MEAN_TICKS as f64) as usize;
        let spec = ScenarioSpec::new(format!("open-loop-{name}"), OPEN_N, OPEN_ROUNDS)
            .base_seed(derive_seed(self.seed, 2 + rung as u64))
            .horizon(OPEN_HORIZON)
            .workload(
                WorkloadSpec::poisson(clients, CLIENT_MEAN_TICKS)
                    .txs_per_client(TXS_PER_CLIENT)
                    .max_batch(OPEN_MAX_BATCH),
            )
            .at(OPEN_CRASH_TICK, TimelineEvent::Crash(OPEN_N - 1));
        first_run(spec)
    }
}

impl Workload for OpenLoop {
    fn setup(&self, tr: &mut Tracer, run: u32, parent: Option<usize>) -> f64 {
        setup_of(tr, run, parent, || {
            (0..LADDER.len()).map(|rung| self.spec(rung)).collect()
        })
    }

    fn step(&mut self, tr: &mut Tracer, run: u32, parent: Option<usize>) -> Step {
        let mut s = Step::default();
        let mut points = Vec::new();
        let mut digest = Vec::new();
        for (
            rung,
            &Rung {
                name,
                rate,
                p50_key,
                p99_key,
            },
        ) in LADDER.iter().enumerate()
        {
            let (spec, seed) = self.spec(rung);
            let (sim, hook) = run_traced(tr, run, parent, |ready| {
                run_workload_sim(&spec, seed, |_| ready()).0
            });
            let t0 = Instant::now();
            let wl = WorkloadRunStats::collect(&sim);
            let report = analyze(&sim);
            let reg = prft_core::obs::collect(&sim, &hook);
            let finals = finalization_ticks(&sim);
            let acked_everywhere = client_txs_final_everywhere(&sim);
            tr.record("lab.collect", t0, Instant::now(), parent, run);

            let offered = spec.workload.as_ref().map_or(0, WorkloadSpec::offered_txs);
            s.runs += 1;
            s.attempted += offered;
            s.shortfall += offered.saturating_sub(wl.committed);
            s.check(report.agreement, || {
                format!("{name}: honest replicas disagree")
            });
            s.check(wl.conserved(), || {
                format!(
                    "{name}: submitted {} != committed {} + dropped {} + pending {}",
                    wl.submitted, wl.committed, wl.dropped, wl.pending
                )
            });
            s.check(acked_everywhere >= wl.committed, || {
                format!(
                    "{name}: {} txs acknowledged but only {acked_everywhere} in every honest finalized chain",
                    wl.committed
                )
            });
            s.check(wl.committed == offered, || {
                format!(
                    "{name}: {} of {offered} txs committed ({} dropped, {} pending)",
                    wl.committed, wl.dropped, wl.pending
                )
            });

            points.push(RatePoint {
                rate,
                p99_ticks: wl.latency.p99,
                pending: wl.pending,
                dropped: wl.dropped,
            });
            let c = &mut s.counts;
            layer_counts(&reg, c);
            add(c, "core.finalized", report.min_final_height as f64);
            add(c, "crypto.hashes", hook.memo_misses as f64);
            add(c, "verify.memo_hits", hook.memo_hits as f64);
            add_workload_counts(c, &wl);
            c.insert(p50_key, wl.latency.p50 as f64);
            c.insert(p99_key, wl.latency.p99 as f64);
            if name == "mid" {
                c.insert("commit_p50_ticks", wl.latency.p50 as f64);
                c.insert("commit_p99_ticks", wl.latency.p99 as f64);
                c.insert("commit_samples", wl.latency.count as f64);
                let end = sim.now().0;
                c.insert(
                    "service_gap_ticks",
                    service_gap_ticks(&finals, OPEN_CRASH_TICK, end) as f64,
                );
            }
            digest.push(format!(
                "{name}: h={} c={} p50={} p99={} ev={}",
                report.min_final_height,
                wl.committed,
                wl.latency.p50,
                wl.latency.p99,
                sim.events_dispatched()
            ));
        }
        s.counts.insert(
            "max_rate_at_slo",
            max_rate_at_slo(&points, self.slo_p99_ticks),
        );
        s.digest = digest.join("; ");
        s
    }
}

/// How many client transactions sit in *every* honest replica's finalized
/// chain. Each acknowledgement is sent when a replica finalizes the tx, so
/// with agreement and a drained run this must cover every ack.
fn client_txs_final_everywhere<N: Node + AsReplica>(sim: &Simulation<N>) -> u64 {
    let mut common: Option<HashSet<TxId>> = None;
    for id in honest_ids(sim) {
        let Some(r) = sim.node(id).as_replica() else {
            continue;
        };
        let finals: HashSet<TxId> = r
            .chain()
            .iter()
            .filter(|e| e.status == prft_types::BlockStatus::Final)
            .flat_map(|e| e.block.txs.iter().map(|tx| tx.id))
            .filter(|id| id.0 >= prft_workload::CLIENT_TX_BASE)
            .collect();
        common = Some(match common {
            None => finals,
            Some(prev) => prev.intersection(&finals).copied().collect(),
        });
    }
    common.map_or(0, |s| s.len() as u64)
}

fn add_workload_counts(c: &mut Counts, wl: &WorkloadRunStats) {
    add(c, "wl.submitted", wl.submitted as f64);
    add(c, "wl.committed", wl.committed as f64);
    add(c, "wl.retries", wl.retries as f64);
    add(c, "wl.dropped", wl.dropped as f64);
    add(c, "wl.pending", wl.pending as f64);
    add(c, "wl.backpressure_rejects", wl.backpressure_rejects as f64);
    set_max(c, "wl.mempool_peak", wl.mempool_peak_occupancy as f64);
}

// ---------------------------------------------------------------------------
// fault-grid

/// Round cadence of the grid cells: Δ = 100 keeps an n = 8 committee busy
/// (not event-dense) to the horizon, so prefix ticks are real work.
const GRID_DELTA: u64 = 100;
const GRID_HORIZON: u64 = 60_000;
/// Late crash ticks, one cell each, plus one cell that never diverges.
const GRID_CRASH_TICKS: [u64; 4] = [50_000, 53_000, 56_000, 59_000];
/// Seeds per cell.
const GRID_SEEDS: u64 = 4;

struct FaultGrid {
    seed: u64,
}

impl FaultGrid {
    fn specs(&self) -> Vec<ScenarioSpec> {
        let base = derive_seed(self.seed, 10);
        let cell = |label: String| {
            ScenarioSpec::new(label, 8, u64::MAX / 2)
                .base_seed(base)
                .synchrony(Synchrony::Synchronous { delta: GRID_DELTA })
                .horizon(GRID_HORIZON)
                .workload(
                    WorkloadSpec::steady(30, 150)
                        .txs_per_client(4)
                        .max_batch(256),
                )
        };
        let mut specs: Vec<ScenarioSpec> = GRID_CRASH_TICKS
            .iter()
            .map(|&t| cell(format!("crash@{t}")).at(t, TimelineEvent::Crash(7)))
            .collect();
        specs.push(cell("no-crash".to_string()));
        specs
    }
}

impl Workload for FaultGrid {
    fn setup(&self, tr: &mut Tracer, run: u32, parent: Option<usize>) -> f64 {
        setup_of(tr, run, parent, || {
            let specs = self.specs();
            let store = CheckpointStore::default();
            store.set_capture_hints_for(specs.iter());
            specs.into_iter().map(first_run).collect()
        })
    }

    fn step(&mut self, tr: &mut Tracer, run: u32, parent: Option<usize>) -> Step {
        let specs = self.specs();
        let store = CheckpointStore::default();
        let t0 = Instant::now();
        let reports = BatchRunner::new(THREADS).run_grid_with(&specs, GRID_SEEDS, Some(&store));
        let t1 = Instant::now();
        tr.record("lab.execute", t0, t1, parent, run);
        let mut reg = ObsRegistry::new();
        for r in &reports {
            reg.merge(&r.observability);
        }
        black_box(report::scenario_json(
            "fault-grid",
            GRID_SEEDS,
            &reports,
            false,
        ));
        tr.record("lab.collect", t1, Instant::now(), parent, run);

        let mut s = Step::default();
        let mut digest = Vec::new();
        for r in &reports {
            for rec in &r.records {
                s.runs += 1;
                s.attempted += 1;
                let wl = rec.workload.unwrap_or_default();
                s.check(rec.agreement && wl.conserved(), || {
                    format!(
                        "{} seed {}: agreement {} conserved {}",
                        r.label,
                        rec.seed,
                        rec.agreement,
                        wl.conserved()
                    )
                });
                add(&mut s.counts, "core.finalized", rec.min_final_height as f64);
                add_workload_counts(&mut s.counts, &wl);
                digest.push(format!(
                    "{}:{} h={} ev={} c={}",
                    r.label, rec.seed, rec.min_final_height, rec.events_dispatched, wl.committed
                ));
            }
        }
        let reuse = store.stats();
        s.check(reuse.forked > 0, || {
            "no grid cell forked from a checkpoint".into()
        });
        let c = &mut s.counts;
        layer_counts(&reg, c);
        c.insert("ckpt.created", reuse.created as f64);
        c.insert("ckpt.forked", reuse.forked as f64);
        c.insert("ckpt.prefix_ticks_saved", reuse.prefix_ticks_saved as f64);
        c.insert("ckpt.entries", store.len() as f64);
        s.digest = digest.join("; ");
        s
    }
}

// ---------------------------------------------------------------------------
// game-batch

/// Seeded runs per evaluated cell.
const GAME_SEEDS: u64 = 32;
/// Equilibrium tolerance (the `prft-lab explore` default).
const EPS: f64 = 1e-9;

/// The workload seed the re-based registry mixes into every game's base
/// seed. A process runs one workload with one seed, so a single global is
/// enough; [`GameDef::eval`] holds plain `fn` pointers, which cannot
/// capture it.
static GAME_SEED: AtomicU64 = AtomicU64::new(0);
type SpecOf = fn(&Profile) -> ScenarioSpec;
/// The registry's own `spec_of` per game index (`None` for analytic games).
static ORIGINAL_SPEC_OF: OnceLock<Vec<Option<SpecOf>>> = OnceLock::new();

fn rebased<const I: usize>(profile: &Profile) -> ScenarioSpec {
    let original = ORIGINAL_SPEC_OF.get().expect("registry captured")[I]
        .expect("wrapper installed only for simulated games");
    let mut spec = original(profile);
    spec.base_seed = derive_seed(GAME_SEED.load(Ordering::Relaxed), spec.base_seed);
    spec
}

/// One wrapper per registry slot (the registry has 7 games).
const REBASED: [SpecOf; 8] = [
    rebased::<0>,
    rebased::<1>,
    rebased::<2>,
    rebased::<3>,
    rebased::<4>,
    rebased::<5>,
    rebased::<6>,
    rebased::<7>,
];

/// `game_registry()` with every simulated game's base seed re-based on
/// `seed`; strategies, seats, symmetry and cache scopes are unchanged.
fn rebased_registry(seed: u64) -> Vec<GameDef> {
    GAME_SEED.store(seed, Ordering::Relaxed);
    let mut games = game_registry();
    ORIGINAL_SPEC_OF.get_or_init(|| {
        games
            .iter()
            .map(|g| match &g.eval {
                GameEval::Simulated { spec_of, .. } => Some(*spec_of),
                GameEval::Analytic(_) => None,
            })
            .collect()
    });
    assert!(games.len() <= REBASED.len(), "add wrappers for new games");
    for (i, g) in games.iter_mut().enumerate() {
        if let GameEval::Simulated { spec_of, .. } = &mut g.eval {
            *spec_of = REBASED[i];
        }
    }
    games
}

struct GameBatch {
    seed: u64,
}

fn simulated_specs(games: &[GameDef]) -> Vec<ScenarioSpec> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for g in games {
        if let GameEval::Simulated { spec_of, .. } = &g.eval {
            for profile in g.space(true).canonical_profiles() {
                let spec = spec_of(&profile);
                if seen.insert(spec.fingerprint()) {
                    out.push(spec);
                }
            }
        }
    }
    out
}

impl Workload for GameBatch {
    fn setup(&self, tr: &mut Tracer, run: u32, parent: Option<usize>) -> f64 {
        setup_of(tr, run, parent, || {
            let games = rebased_registry(self.seed);
            simulated_specs(&games).into_iter().map(first_run).collect()
        })
    }

    fn step(&mut self, tr: &mut Tracer, run: u32, parent: Option<usize>) -> Step {
        let games = rebased_registry(self.seed);
        let explorer = GameExplorer::new(BatchRunner::new(THREADS));
        let t0 = Instant::now();
        let (explorations, reuse) = explorer.explore_all_with_stats(&games, GAME_SEEDS);
        let t1 = Instant::now();
        tr.record("lab.execute", t0, t1, parent, run);

        let mut s = Step::default();
        let mut digest = Vec::new();
        let mut nash_profiles = 0usize;
        for (g, e) in games.iter().zip(&explorations) {
            let nash = e.table.nash_equilibria(EPS);
            let dsic: Vec<bool> = (0..g.players())
                .map(|p| e.table.certify_dominant(p, g.honest[p], EPS).holds)
                .collect();
            black_box(e.table.regret_matrix());
            nash_profiles += nash.len();
            match g.name {
                "lemma4-dsic" | "lemma4-wide" => s.check(dsic.iter().all(|&d| d), || {
                    format!("{}: honest profile not certified DSIC ({dsic:?})", g.name)
                }),
                "matching-pennies" => s.check(nash.is_empty(), || {
                    format!("matching-pennies has pure Nash equilibria {nash:?}")
                }),
                _ => {}
            }
            if matches!(g.eval, GameEval::Simulated { .. }) {
                s.runs += e.evaluated as u64 * e.seeds;
            }
            digest.push(format!(
                "{}: ev={} sh={} nash={nash:?} dsic={dsic:?}",
                g.name, e.evaluated, e.shared
            ));
        }
        let t2 = Instant::now();
        tr.record("game.analysis", t1, t2, parent, run);
        for (g, e) in games.iter().zip(&explorations) {
            black_box(report::explore_json(g, e, EPS));
        }
        tr.record("lab.collect", t2, Instant::now(), parent, run);

        s.attempted = s.runs;
        let c = &mut s.counts;
        c.insert("game.nash_profiles", nash_profiles as f64);
        c.insert(
            "explore.cells_evaluated",
            explorations.iter().map(|e| e.evaluated).sum::<usize>() as f64,
        );
        c.insert(
            "explore.cells_shared",
            explorations.iter().map(|e| e.shared).sum::<usize>() as f64,
        );
        c.insert(
            "explore.cells_by_symmetry",
            explorations.iter().map(|e| e.expanded).sum::<usize>() as f64,
        );
        c.insert("ckpt.created", reuse.created as f64);
        c.insert("ckpt.forked", reuse.forked as f64);
        c.insert("ckpt.prefix_ticks_saved", reuse.prefix_ticks_saved as f64);
        s.digest = digest.join("; ");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::fail_ratio;

    #[test]
    fn a_failed_check_raises_fail_ratio() {
        let mut s = Step {
            attempted: 2,
            ..Step::default()
        };
        s.check(true, || unreachable!());
        assert_eq!(fail_ratio(s.failed(), s.attempted), 0.0);
        s.check(false, || "honest replicas disagree".into());
        assert_eq!(s.failed(), 1);
        assert_eq!(fail_ratio(s.failed(), s.attempted), 0.5);
    }

    #[test]
    fn failed_is_the_larger_of_shortfall_and_checks_capped_at_attempted() {
        let mut s = Step {
            attempted: 10,
            shortfall: 3,
            ..Step::default()
        };
        s.check(false, || "conservation".into());
        assert_eq!(s.failed(), 3, "the checks fail the same operations");
        for _ in 0..12 {
            s.check(false, || "agreement".into());
        }
        assert_eq!(s.failed(), 10);
    }
}
