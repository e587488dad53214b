//! fleetbench — the repository's benchmark. See README.md next to this
//! package and BENCHMARK.json at the repository root.
//!
//! ```text
//! fleetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fleetbench [--seed <n>] [--quick]          # every workload, both modes
//! fleetbench --selftest [--seed <n>]         # two sets of runs vs the bounds
//! fleetbench --dump-workloads <dir>          # the generated specs as JSON
//! ```
//!
//! Single-threaded and closed-loop: one simulator calls one controller
//! synchronously. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod alloc;
mod bench;
mod calib;
mod layers;
mod metrics;
mod run;
#[cfg(test)]
mod selfcheck;
mod stats;
mod timed;
mod workloads;

use bench::{run_round, Round, Samples};
use metrics::{Metrics, END_TO_END, PER_LAYER};
use run::Kind;
use slaq::obs::{chrome_trace_json, Recorder};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seconds one run measures for when `--seconds` is absent; the same
/// number is `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 24.0;

/// Fewest rounds a full run makes whatever `--seconds` says, so that
/// `setup_s` is a median and the determinism check has a second opinion.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    selftest: bool,
    dump: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: fleetbench [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]\n\
         \x20      [--quick] [--selftest] [--dump-workloads <dir>]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
        selftest: false,
        dump: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--quick" => args.quick = true,
            "--selftest" => args.selftest = true,
            "--dump-workloads" => args.dump = Some(PathBuf::from(value())),
            _ => usage(),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        usage();
    }
    args
}

/// The result of one workload in one mode.
struct Outcome {
    metrics: Metrics,
    /// Control cycles run, and how many of them sit in a round that
    /// failed a check (or, traced, broke an invariant).
    attempted: u64,
    failed: u64,
    /// Why `correct` is false, one line per failed check.
    errors: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Every metric by name with its unit, then the contract's JSON
    /// object as the last line.
    fn print(&self, workload: &Workload, traced: bool) {
        println!(
            "# {} ({}): {}",
            workload.name,
            if traced { "traced" } else { "timed" },
            workload.why
        );
        let mut fields = Vec::new();
        for (name, value) in &self.metrics.0 {
            let (unit, better) = unit_of(name);
            println!("{name:<34} {value:>16.6} {unit:<12} ({better} is better)");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        for e in &self.errors {
            println!("FAILED CHECK: {e}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

/// Unit and better direction of a metric from either table.
fn unit_of(name: &str) -> (&'static str, &'static str) {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        .find(|(n, _, _)| *n == name)
        .map_or(("", ""), |(_, unit, better)| (unit, better))
}

fn spec_texts(workload: &Workload, seed: u64, quick: bool) -> Vec<String> {
    workload
        .specs(seed)
        .into_iter()
        .map(|mut spec| {
            if quick && workload.is_fleet() {
                spec.timing
                    .cap_to_cycles(workloads::WARMUP_CYCLES + 2 * workloads::CALIB_EVERY - 1);
            }
            spec.to_json().expect("generated specs serialize")
        })
        .collect()
}

/// The rounds of one run, by kind.
#[derive(Default)]
struct Rounds {
    plain: Vec<Round>,
    counted: Vec<Round>,
    observed: Vec<Round>,
    /// Source-O metrics of each observed round, computed as soon as the
    /// round ends: all but the first round then drop their recorders
    /// (a corpus run makes dozens of sets, twelve recorders each).
    observed_metrics: Vec<Metrics>,
    checked: Vec<Round>,
    errors: Vec<String>,
}

/// One counted round, then rounds until the time is up: plain ones for
/// the timed mode; for the traced mode sets of one plain, one observed
/// and one checked round, so that every kind sees the same stretch of
/// machine weather.
fn run_rounds(
    workload: &Workload,
    texts: &[String],
    seconds: f64,
    min_sets: usize,
    traced: bool,
    bench_rec: &Recorder,
) -> Rounds {
    let start = Instant::now();
    let mut rounds = Rounds::default();
    // Let the kernel's own first-run effects (page faults, cold caches)
    // pass before any sample depends on it.
    calib::run(workload.footprint());
    let mut kernel = calib::run(workload.footprint());
    let mut longest_set_s: f64 = 0.0;
    let off = Recorder::off();
    let mut kinds = vec![Kind::Counted];
    'sets: loop {
        let set_start = Instant::now();
        for kind in std::mem::take(&mut kinds) {
            match run_round(workload, texts, kernel, kind) {
                Ok(round) => {
                    kernel = round.calib_after;
                    match kind {
                        Kind::Plain { .. } => rounds.plain.push(round),
                        Kind::Counted => rounds.counted.push(round),
                        Kind::Observed { .. } => {
                            let mut round = round;
                            let mut m = Metrics::default();
                            layers::observed(&round, workload.warmup_cycles(), &mut m);
                            rounds.observed_metrics.push(m);
                            if !rounds.observed.is_empty() {
                                for run in &mut round.runs {
                                    run.recorder = Recorder::off();
                                    run.window_start = None;
                                }
                            }
                            rounds.observed.push(round);
                        }
                        Kind::Checked { .. } => rounds.checked.push(round),
                    }
                }
                Err(e) => {
                    rounds.errors.push(e);
                    break 'sets;
                }
            }
        }
        let sets = rounds.plain.len();
        if sets > 0 {
            longest_set_s = longest_set_s.max(set_start.elapsed().as_secs_f64());
        }
        if sets >= min_sets && start.elapsed().as_secs_f64() + longest_set_s > seconds {
            break;
        }
        kinds.push(bench::plain(workload));
        if traced {
            // One trace file and one set of snapshots per workload is
            // enough: the first set's.
            kinds.push(Kind::Observed {
                calib_every: workload.calib_every(),
                bench_spans: if sets == 0 { bench_rec } else { &off },
            });
            kinds.push(Kind::Checked { capture: sets == 0 });
        }
    }
    rounds
}

/// Checks every mode shares: rounds agree bit for bit whatever their
/// kind, no invariant broke, and fleets are steady.
fn check_rounds(workload: &Workload, rounds: &Rounds, quick: bool, errors: &mut Vec<String>) {
    let Some(first) = rounds.plain.first() else {
        return;
    };
    for (i, round) in rounds.plain.iter().enumerate().skip(1) {
        if round.exact() != first.exact() {
            errors.push(format!("round {i} differs from round 0: not deterministic"));
        }
    }
    for (kind, others) in [
        ("counted", &rounds.counted),
        ("observed", &rounds.observed),
        ("checked", &rounds.checked),
    ] {
        for (i, round) in others.iter().enumerate() {
            if round.exact() != first.exact() {
                errors.push(format!(
                    "{kind} round {i} differs from the plain run: watching changed the result"
                ));
            }
        }
    }
    for (i, round) in rounds.checked.iter().enumerate() {
        for run in &round.runs {
            if run.cycles_checked != run.calls.len() {
                errors.push(format!(
                    "checked round {i}: checker saw {} of {} cycles",
                    run.cycles_checked,
                    run.calls.len()
                ));
            }
            for v in &run.violations {
                errors.push(format!("checked round {i}: invariant violated: {v}"));
            }
        }
    }
    if workload.is_fleet() && !quick {
        let drift = bench::population_drift(first);
        if drift.abs() > bench::MAX_DRIFT {
            errors.push(format!(
                "population drift {drift:+.3} beyond ±{}: the fleet is not in steady state",
                bench::MAX_DRIFT
            ));
        }
    }
}

fn run_workload(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
) -> Outcome {
    let texts = spec_texts(workload, seed, quick);
    let bench_rec = if traced {
        Recorder::enabled()
    } else {
        Recorder::off()
    };
    let min_sets = if quick || traced { 1 } else { MIN_ROUNDS };
    let rounds = run_rounds(workload, &texts, seconds, min_sets, traced, &bench_rec);
    let mut errors = rounds.errors.clone();
    check_rounds(workload, &rounds, quick, &mut errors);

    let mut samples = Samples::default();
    for round in &rounds.plain {
        samples.add(workload, round);
    }
    let mut metrics = Metrics::default();
    if let (Some(_), Some(first)) = (rounds.plain.first(), rounds.counted.first()) {
        if traced {
            per_layer(
                workload,
                &rounds,
                &samples,
                &bench_rec,
                &mut metrics,
                &mut errors,
            );
        } else {
            samples.end_to_end(&mut metrics);
            bench::quality(first, &mut metrics);
            let floor = if workload.is_fleet() {
                bench::MIN_FLEET_SAMPLES
            } else {
                bench::MIN_CORPUS_SAMPLES
            };
            if !quick && samples.cycle_ref.len() < floor {
                errors.push(format!(
                    "{} kept samples, fewer than the floor of {floor}",
                    samples.cycle_ref.len()
                ));
            }
        }
    }
    let expected: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    for name in &expected {
        match metrics.get(name) {
            Some(v) if v.is_finite() => {}
            Some(v) => errors.push(format!("{name} is {v}")),
            None => errors.push(format!("{name} was not measured")),
        }
    }
    // Report in table order, and only what the mode's table names.
    let ordered = expected
        .iter()
        .filter_map(|&name| Some((name, metrics.get(name).filter(|v| v.is_finite())?)))
        .collect();

    let attempted: u64 = [
        &rounds.plain,
        &rounds.counted,
        &rounds.observed,
        &rounds.checked,
    ]
    .into_iter()
    .flatten()
    .map(|r| r.cycles() as u64)
    .sum::<u64>()
    .max(1);
    // A run that failed any check has no trustworthy cycle.
    let failed = if errors.is_empty() { 0 } else { attempted };
    Outcome {
        metrics: Metrics(ordered),
        attempted,
        failed,
        errors,
    }
}

/// The traced mode's metrics: bench-side timers from the plain rounds,
/// the program's spans from the observed rounds, replays of the first
/// checked round's snapshots; and the trace files.
fn per_layer(
    workload: &Workload,
    rounds: &Rounds,
    samples: &Samples,
    bench_rec: &Recorder,
    out: &mut Metrics,
    errors: &mut Vec<String>,
) {
    samples.per_layer(out);
    let first = &rounds.counted[0];
    let mut counted = Samples::default();
    counted.add(workload, first);
    counted.allocations(out);
    let exact = first.exact();
    out.set(
        "quality.utility_floor",
        exact
            .iter()
            .map(|e| e.utility_floor())
            .fold(f64::INFINITY, f64::min),
    );
    if workload.is_fleet() {
        out.set("sim.population_drift", bench::population_drift(first));
        out.set("sim.jobs_active", exact[0].jobs_active_last as f64);
    } else {
        // The presets start empty and run to their horizon by design.
        out.set("sim.population_drift", 0.0);
        out.set(
            "sim.jobs_active",
            exact.iter().map(|e| e.jobs_active_last as f64).sum(),
        );
    }
    out.set("host.peak_rss_mb", peak_rss_mb());

    // Source O: per metric, the median over the observed rounds.
    let per_round = &rounds.observed_metrics;
    let mut observed_samples = Samples::default();
    for round in &rounds.observed {
        observed_samples.add(workload, round);
    }
    if let Some(names) = per_round.first() {
        for (name, _) in &names.0 {
            let values: Vec<f64> = per_round.iter().filter_map(|m| m.get(name)).collect();
            out.set(name, stats::median(&values));
        }
        out.set(
            "obs.trace_overhead_ratio",
            stats::median(&observed_samples.cycle_ref) / stats::median(&samples.cycle_ref),
        );
        if let Err(e) = write_traces(workload, &rounds.observed[0], bench_rec) {
            errors.push(format!("cannot write the trace: {e}"));
        }
    }
    // Source R: replays use the largest run of the first checked round
    // (the only one, for a fleet workload).
    let largest = rounds.checked.first().and_then(|round| {
        round
            .runs
            .iter()
            .max_by_key(|r| r.snapshots.first().map_or(0, |s| s.nodes.len()))
    });
    if let Some(run) = largest {
        layers::replayed(run, workload.footprint(), out);
    }
}

/// `out/<workload>.trace.json` (the program's spans and events of the
/// first traced round; for the corpus, its last preset) and
/// `out/<workload>.bench.trace.json` (the bench-side spans), next to
/// this package's manifest.
fn write_traces(workload: &Workload, round: &Round, bench_rec: &Recorder) -> std::io::Result<()> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    if let Some(run) = round.runs.last() {
        std::fs::write(
            dir.join(format!("{}.trace.json", workload.name)),
            chrome_trace_json(&run.recorder),
        )?;
    }
    std::fs::write(
        dir.join(format!("{}.bench.trace.json", workload.name)),
        chrome_trace_json(bench_rec),
    )
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn dump_workloads(dir: &Path, seed: u64) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for workload in &WORKLOADS {
        for spec in workload.specs(seed) {
            let file = if workload.is_fleet() {
                format!("{}.json", workload.name)
            } else {
                format!("{}.{}.json", workload.name, spec.name)
            };
            let text = spec.to_json().expect("generated specs serialize");
            std::fs::write(dir.join(&file), text)?;
            println!("{}", dir.join(file).display());
        }
    }
    Ok(())
}

/// Two sets of runs of the same code, compared against the bounds: the
/// acceptance check for the benchmark itself, runnable by hand.
fn selftest(seed: u64, seconds: f64) -> bool {
    let mut ok = true;
    for workload in &WORKLOADS {
        let a = run_workload(workload, seed, seconds, false, false);
        let b = run_workload(workload, seed, seconds, false, false);
        for outcome in [&a, &b] {
            for e in &outcome.errors {
                println!("{}: FAILED CHECK: {e}", workload.name);
                ok = false;
            }
        }
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (a.metrics.get(m.name), b.metrics.get(m.name)) else {
                continue;
            };
            // How much worse the second set is than the first.
            let worse = if m.better == "lower" {
                y / x - 1.0
            } else {
                1.0 - y / x
            };
            let verdict = if worse > m.bound { "EXCEEDS" } else { "ok" };
            ok &= worse <= m.bound;
            println!(
                "{:<14} {:<20} {x:>14.4} {y:>14.4} {:>+8.2} % worse (bound {:.0} %)  {verdict}",
                workload.name,
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(dir) = &args.dump {
        return match dump_workloads(dir, args.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("cannot write to {}: {e}", dir.display());
                ExitCode::FAILURE
            }
        };
    }
    if args.selftest {
        return if selftest(args.seed, args.seconds) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let selected: Vec<&Workload> = match &args.workload {
        Some(name) => vec![workloads::find(name).unwrap_or_else(|| usage())],
        None => WORKLOADS.iter().collect(),
    };
    // `--quick`: one short round per workload and mode, no floors.
    let seconds = if args.quick { 0.1 } else { args.seconds };
    let modes = match args.trace {
        Some(traced) => vec![traced],
        None => vec![false, true],
    };
    let mut ok = true;
    for workload in selected {
        for &traced in &modes {
            let outcome = run_workload(workload, args.seed, seconds, traced, args.quick);
            outcome.print(workload, traced);
            ok &= outcome.correct();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
