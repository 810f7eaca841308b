//! The repository benchmark: one command that runs a named workload from a
//! seed for a fixed wall-clock budget, checks the outputs, and prints every
//! metric by name with its unit. The last line of standard output is one
//! JSON object: the end-to-end metrics of an untraced run (`--trace 0`) or
//! the per-layer metrics of a traced run (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload large-committee --seed 1 --seconds 30 --trace 0 --slo-p99-ticks 1200
//! ```
//!
//! See `perfbench/README.md` for the workloads and the metric catalogue.

mod metrics;
mod reference;
mod trace;
mod workloads;

use metrics::{commit_ratio, fail_ratio, hit_ratio, median};
use prft_lab::json::Json;
use reference::Reference;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::Step;

/// Set-ups measured before each step; `setup_s` is the median of all of
/// them. Spreading them over the run, like the steps, keeps one quiet or
/// busy moment of the machine from setting the figure.
const SETUPS_PER_STEP: usize = 10;
/// Steps per run at least, however short `--seconds` is: two steps are
/// needed to check that a step reproduces its outputs (and, traced, to
/// have one untraced and one traced step).
const MIN_STEPS: usize = 2;

/// `BENCHMARK.json`, compiled in: its `end_to_end` and `per_layer` lists
/// are the catalogue of metrics this program prints, with their units.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    slo_p99_ticks: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut slo_p99_ticks = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--slo-p99-ticks" => {
                slo_p99_ticks = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--slo-p99-ticks must be an integer")?,
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        slo_p99_ticks,
    })
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has used so far, all threads (ended ones too),
/// in seconds. Rates and set-up times are taken in CPU time rather than
/// wall time, so time the process spends waiting for a core, or that the
/// hypervisor steals, does not count, and then rescaled to reference
/// seconds (see [`reference`]).
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (64-bit Linux
    // layout); the call writes it and touches nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// `(name, unit)` of every metric in one of `BENCHMARK.json`'s metric
/// lists (`"end_to_end"` or `"per_layer"`).
fn catalogue(list: &str) -> Vec<(String, String)> {
    fn field<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
        match obj {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn text(obj: &Json, key: &str) -> String {
        match field(obj, key) {
            Some(Json::Str(s)) => s.clone(),
            _ => panic!("BENCHMARK.json: a metric without a string {key:?}"),
        }
    }
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    match field(&doc, list) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect(),
        _ => panic!("BENCHMARK.json has no {list:?} list"),
    }
}

/// A timing of the reference kernel, reporting a failure on standard
/// error.
fn time_reference_kernel(reference: &mut Reference) -> Option<f64> {
    reference.time().map_err(|e| eprintln!("error: {e}")).ok()
}

/// One timed step.
struct Timed {
    step: Step,
    wall: f64,
    /// CPU seconds of the step rescaled to reference seconds.
    ref_s: f64,
    traced: bool,
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(reference::CHILD_ARG) {
        reference::child_main();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 \
                 [--slo-p99-ticks T]",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut wl = match workloads::make(&args.workload, args.seed, args.slo_p99_ticks) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let origin = Instant::now();
    let mut tr = Tracer::new(origin);

    let start = Instant::now();
    let mut setups: Vec<f64> = Vec::new();
    let mut steps: Vec<Timed> = Vec::new();
    // Every step and its set-ups sit between two kernel timings; `kernels`
    // holds them all, the one before the first step included.
    let mut reference = match Reference::start() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(first) = time_reference_kernel(&mut reference) else {
        return ExitCode::FAILURE;
    };
    let mut kernels = vec![first];
    loop {
        let i = steps.len() as u32;
        // Traced runs alternate untraced and traced steps, so both halves
        // see the same machine state and the overhead compares like with
        // like.
        let traced = args.trace && i % 2 == 1;
        tr.set_enabled(traced);
        let round_start = Instant::now();
        let root = tr.open("setup", i);
        let cpu_setups: Vec<f64> = (0..SETUPS_PER_STEP)
            .map(|_| wl.setup(&mut tr, i, root))
            .collect();
        tr.close(root);
        let root = tr.open("step", i);
        let (t0, c0) = (Instant::now(), cpu_seconds());
        let step = wl.step(&mut tr, i, root);
        let (wall, cpu) = (t0.elapsed().as_secs_f64(), cpu_seconds() - c0);
        tr.close(root);
        let before = kernels[kernels.len() - 1];
        let Some(after) = time_reference_kernel(&mut reference) else {
            return ExitCode::FAILURE;
        };
        kernels.push(after);
        let scale = reference::scale(before, after);
        setups.extend(cpu_setups.iter().map(|s| s * scale));
        steps.push(Timed {
            step,
            wall,
            ref_s: cpu * scale,
            traced,
        });
        let round = round_start.elapsed().as_secs_f64();
        if steps.len() >= MIN_STEPS && start.elapsed().as_secs_f64() + round > args.seconds {
            break;
        }
    }
    tr.set_enabled(false);
    drop(reference);
    let rss = peak_rss_mb();

    // Correctness: every check of every step, and every step reproducing
    // the first step's deterministic outputs.
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (i, t) in steps.iter().enumerate() {
        attempted += t.step.attempted;
        failed += t.step.failed();
        failures.extend(t.step.failures.iter().map(|f| format!("step {i}: {f}")));
        if t.step.digest != steps[0].step.digest {
            failed += 1;
            failures.push(format!(
                "step {i} did not reproduce step 0: {:?} vs {:?}",
                t.step.digest, steps[0].step.digest
            ));
        }
    }

    let untraced: Vec<&Timed> = steps.iter().filter(|t| !t.traced).collect();
    let traced: Vec<&Timed> = steps.iter().filter(|t| t.traced).collect();
    let count_of = |s: &Step, key: &str| s.counts.get(key).copied().unwrap_or(0.0);
    // Rates over the untraced steps: a count per reference second (or per
    // wall second), median over steps.
    let per_ref = |f: &dyn Fn(&Step) -> f64| -> f64 {
        median(
            &untraced
                .iter()
                .map(|t| f(&t.step) / t.ref_s)
                .collect::<Vec<_>>(),
        )
    };
    let per_wall = |f: &dyn Fn(&Step) -> f64| -> f64 {
        median(
            &untraced
                .iter()
                .map(|t| f(&t.step) / t.wall)
                .collect::<Vec<_>>(),
        )
    };

    // Every metric this program measures, by name. Counts are the median
    // over steps of what each step reported.
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    let mut keys: Vec<&'static str> = steps
        .iter()
        .flat_map(|t| t.step.counts.keys().copied())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        set(
            key,
            median(
                &steps
                    .iter()
                    .map(|t| count_of(&t.step, key))
                    .collect::<Vec<_>>(),
            ),
        );
    }
    set("setup_s", median(&setups));
    set("peak_rss_mb", rss);
    set("runs_per_s", per_ref(&|s| s.runs as f64));
    set("runs_per_wall_s", per_wall(&|s| s.runs as f64));
    set("blocks_per_s", per_ref(&|s| count_of(s, "core.finalized")));
    set(
        "committed_tx_per_s",
        per_ref(&|s| count_of(s, "wl.committed")),
    );
    set("bench.kernel_s", median(&kernels));
    set("fail_ratio", fail_ratio(failed, attempted));
    let runs = median(&steps.iter().map(|t| t.step.runs as f64).collect::<Vec<_>>());
    set("lab.runs", runs);
    set("steps", steps.len() as f64);
    let get = |v: &BTreeMap<String, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (forked, hits, misses) = (
        get(&v, "ckpt.forked"),
        get(&v, "verify.memo_hits"),
        get(&v, "crypto.hashes"),
    );
    let (committed, submitted, retries) = (
        get(&v, "wl.committed"),
        get(&v, "wl.submitted"),
        get(&v, "wl.retries"),
    );
    let (blocks, msgs, bytes, events) = (
        get(&v, "core.finalized"),
        get(&v, "sim.msgs"),
        get(&v, "sim.msg_bytes"),
        get(&v, "sim.events"),
    );
    let mut set = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    set("ckpt.fork_ratio", ratio(forked, runs));
    set("verify.hit_ratio", hit_ratio(hits as u64, misses as u64));
    set(
        "wl.commit_ratio",
        commit_ratio(committed as u64, submitted as u64, retries as u64),
    );
    set("core.msgs_per_block", ratio(msgs, blocks));
    set("core.bytes_per_block", ratio(bytes, blocks));

    // Span-derived figures come from the traced steps only (wall time).
    let n_traced = traced.len().max(1) as f64;
    let totals = tr.totals();
    let selfs = tr.self_times();
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.0);
    let (build_total, build_count) = totals.get("lab.build").copied().unwrap_or((0.0, 0));
    set("lab.build_s", ratio(build_total, build_count as f64));
    set("lab.execute_s", total("lab.execute") / n_traced);
    set("lab.collect_s", total("lab.collect") / n_traced);
    set("lab.batch_s", total("step") / n_traced);
    set("game.analysis_s", total("game.analysis") / n_traced);
    set(
        "bench.self_s",
        selfs.get("step").copied().unwrap_or(0.0) / n_traced,
    );
    set(
        "sim.events_per_s",
        ratio(events * traced.len() as f64, total("lab.execute")),
    );
    set("trace.spans", tr.spans().len() as f64);
    let times = |set: &[&Timed]| median(&set.iter().map(|t| t.ref_s).collect::<Vec<_>>());
    set(
        "trace.overhead",
        if traced.is_empty() {
            0.0
        } else {
            times(&traced) / times(&untraced) - 1.0
        },
    );

    // Human-readable report: every catalogued metric by name with its unit.
    let end_to_end = catalogue("end_to_end");
    let per_layer = catalogue("per_layer");
    println!(
        "workload {} seed {} trace {}: {} steps ({} traced) in {:.2}s, step walls {:?}, \
         step reference seconds {:?}, kernel cpu {:?}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        steps.len(),
        traced.len(),
        start.elapsed().as_secs_f64(),
        steps.iter().map(|t| round3(t.wall)).collect::<Vec<_>>(),
        steps.iter().map(|t| round3(t.ref_s)).collect::<Vec<_>>(),
        kernels.iter().map(|&k| round3(k)).collect::<Vec<_>>()
    );
    // A layer a workload does not reach reads 0; an end-to-end metric must
    // be measured on every workload.
    for (name, _) in &end_to_end {
        if !v.contains_key(name) {
            failures.push(format!("end-to-end metric {name} is not measured"));
        }
    }
    for (name, _) in &per_layer {
        v.entry(name.clone()).or_insert(0.0);
    }
    for (name, unit) in end_to_end.iter().chain(&per_layer) {
        println!(
            "  {name:<28} {:>16.6} {unit}",
            v.get(name).copied().unwrap_or(0.0)
        );
    }
    let correct = failures.is_empty();
    println!(
        "  checks: {}",
        if correct { "all passed" } else { "FAILED" }
    );
    for f in &failures {
        println!("  FAILED {f}");
    }

    if args.trace {
        let path = format!(".bench_out/trace-{}-{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, tr.chrome_trace()));
        match written {
            Ok(()) => println!("  trace: {} spans written to {path}", tr.spans().len()),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let reported = if args.trace { &per_layer } else { &end_to_end };
    let metrics: Vec<String> = reported
        .iter()
        .map(|(name, unit)| json_metric(name, v.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_reads_benchmark_json() {
        let e2e = catalogue("end_to_end");
        assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        assert!(!catalogue("per_layer").is_empty());
    }

    #[test]
    fn cpu_clock_advances() {
        let c0 = cpu_seconds();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_seconds() > c0, "{x}");
    }
}
