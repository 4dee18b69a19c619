//! The zllm benchmark: host speed and simulated outcomes of one
//! workload, with a traced per-layer split.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload decode-7b --seed 42 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted` and `failed` (the output checks) and `metrics`, which holds
//! every end-to-end metric with `--trace 0` and every per-layer metric
//! with `--trace 1`. A failed check exits with code 1. See `README.md`.

mod stats;
mod workloads;

use stats::{median, self_time_ns, Calibration, Tracer};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Rep, Workload, LAYER_METRICS};

/// Repetitions every run makes, whatever `--seconds` says: the median,
/// the cross-repetition identity check and, traced, one untraced and one
/// traced repetition need at least two.
const MIN_REPS: u32 = 2;
/// No repetition starts after this much of a run, so a run ends well
/// within three minutes even on a slowed machine.
const RUN_CAP: Duration = Duration::from_secs(120);

/// Calibration seconds that define the reference host: `host_s` and
/// `setup_s` are wall seconds rescaled to a host on which one
/// calibration sample takes this long (about one sample's time on the
/// 2-core Xeon host the benchmark was tuned on).
const CALIBRATION_REF_S: f64 = 0.045;
/// Calibration samples taken before each repetition and after the last.
const CALIBRATION_SAMPLES: usize = 4;

/// The end-to-end metrics every untraced run reports, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("host_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_rate", "ratio"),
    ("sim_tok_s", "tok/s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument {other}")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        values.insert(key, value);
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = values
        .get("--workload")
        .ok_or("--workload is required")
        .and_then(|w| Workload::parse(w).ok_or("unknown workload"))
        .map_err(|e| format!("{e} (one of {})", names.join(", ")))?;
    let number = |key: &str, default: u64| -> Result<u64, String> {
        values.get(key).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{key}: not a whole number: {v}"))
        })
    };
    let seconds = number("--seconds", 30)?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must lie in 1..=600".to_owned());
    }
    let trace = match number("--trace", 0)? {
        0 => false,
        1 => true,
        _ => return Err("--trace is 0 or 1".to_owned()),
    };
    Ok(Args {
        workload,
        seed: number("--seed", 42)?,
        seconds,
        trace,
    })
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// A JSON number with every digit; a non-finite value, which fails its
/// check, prints as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the workload and prints the report; `Ok(false)` when a check
/// failed.
fn run(args: &Args) -> Result<bool, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    zllm_par::set_max_threads(Some(threads));
    let start = Instant::now();
    let gen_start = Instant::now();
    let mut bench = args.workload.prepare(args.seed);
    let input_gen_s = gen_start.elapsed().as_secs_f64();
    let budget = Duration::from_secs(args.seconds);

    let mut tracer = Tracer::new();
    let mut calibration = Calibration::new();
    let mut calib_s = Vec::new();
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut rep_no = 0u32;
    let measure_start = Instant::now();
    loop {
        // Traced runs alternate untraced and traced repetitions, so the
        // tracing overhead is measured under the same machine state.
        let traced = args.trace && rep_no % 2 == 1;
        tracer.begin_run(rep_no, traced);
        // Calibration samples bracket every repetition; their median
        // gives this run's host speed.
        calib_s.extend((0..CALIBRATION_SAMPLES).map(|_| calibration.sample()));
        let rep_start = Instant::now();
        let rep = tracer.span("rep", |t| bench.rep(t, rep_no == 0));
        let rep_time = rep_start.elapsed();
        reps.push((traced, rep));
        rep_no += 1;
        let used = measure_start.elapsed();
        if rep_no >= MIN_REPS && (used + rep_time > budget || start.elapsed() > RUN_CAP) {
            break;
        }
    }
    calib_s.extend((0..CALIBRATION_SAMPLES).map(|_| calibration.sample()));
    let calib = median(&calib_s);
    let scale = CALIBRATION_REF_S / calib;

    // Output checks: each repetition's own, plus identity of every
    // simulated outcome across repetitions.
    let mut checks: Vec<(String, bool)> = Vec::new();
    for (i, (_, rep)) in reps.iter().enumerate() {
        checks.extend(
            rep.checks
                .iter()
                .map(|(n, ok)| (format!("rep {i}: {n}"), *ok)),
        );
    }
    let first = &reps[0].1;
    for (i, (_, rep)) in reps.iter().enumerate().skip(1) {
        let same = rep.sim.len() == first.sim.len()
            && rep
                .sim
                .iter()
                .zip(&first.sim)
                .all(|((a, x), (b, y))| a == b && x.to_bits() == y.to_bits());
        checks.push((
            format!("rep {i}: simulated outcomes bit-identical to rep 0"),
            same,
        ));
    }

    let w = args.workload.name();
    println!(
        "workload {w}  seed {}  {} repetitions ({} traced)  {threads} threads",
        args.seed,
        reps.len(),
        reps.iter().filter(|(t, _)| *t).count()
    );
    for note in &first.notes {
        println!("  {note}");
    }

    let host = |traced: bool| -> Vec<f64> {
        reps.iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, r)| r.host_s)
            .collect()
    };
    let untraced_host = median(&host(false));
    let per_rep: Vec<String> = reps
        .iter()
        .map(|(_, r)| format!("{:.3}", r.host_s))
        .collect();
    println!(
        "  wall seconds per repetition: {}; calibration median {calib:.4} s, so reference seconds = wall x {scale:.4}",
        per_rep.join(" ")
    );
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let traced: Vec<&Rep> = reps.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
        let mut layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for rep in &traced {
            for (name, v) in &rep.layers {
                layer.entry(name).or_default().push(*v);
            }
        }
        let traced_runs: Vec<u32> = reps
            .iter()
            .enumerate()
            .filter(|(_, (t, _))| *t)
            .map(|(i, _)| i as u32)
            .collect();
        let build_s: Vec<f64> = traced_runs
            .iter()
            .flat_map(|&r| tracer.durations_s(r, "image.build"))
            .collect();
        layer.insert("image.build_s", vec![median(&build_s)]);
        layer.insert("bench.input_gen_s", vec![input_gen_s]);
        layer.insert("bench.calibration_s", vec![calib]);
        layer.insert(
            "bench.trace_overhead",
            vec![median(&host(true)) / untraced_host],
        );
        for &(name, unit) in LAYER_METRICS {
            let v = layer.get(name).map_or(0.0, |vs| median(vs));
            metrics.push((name, v, unit));
        }
        print_span_summary(&tracer, &traced_runs);
        write_spans(&tracer, w, args.seed)?;
    } else {
        let setup: Vec<f64> = reps
            .iter()
            .flat_map(|(_, r)| r.setup_s.iter().copied())
            .collect();
        let (attempted, bad) = first.ok;
        let values = [
            untraced_host * scale,
            median(&setup) * scale,
            peak_rss_mb()?,
            (attempted - bad) as f64 / attempted as f64,
            first.sim("sim_tok_s"),
        ];
        metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
        println!("  ok_rate counts {attempted} attempted, {bad} failed");
    }
    for (name, v, _) in &metrics {
        checks.push((format!("{name} is a finite number"), v.is_finite()));
    }
    let failed = checks.iter().filter(|(_, ok)| !ok).count();
    for (name, _) in checks.iter().filter(|(_, ok)| !ok) {
        println!("  CHECK FAILED: {name}");
    }
    for (name, v, unit) in &metrics {
        println!("  {name:<36} {v:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        checks.len(),
        body.join(", ")
    );
    Ok(failed == 0)
}

/// Per span name over the traced repetitions: calls, total and self
/// seconds (total minus the time child spans cover).
fn print_span_summary(tracer: &Tracer, runs: &[u32]) {
    let spans = tracer.spans();
    let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    for (i, s) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| runs.contains(&s.run))
    {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += self_time_ns(spans, i);
    }
    println!(
        "  spans over {} traced repetition(s): name, calls, total s, self s",
        runs.len()
    );
    for (name, (calls, total, own)) in by_name {
        println!(
            "    {name:<28} {calls:>6} {:>12.6} {:>12.6}",
            total as f64 * 1e-9,
            own as f64 * 1e-9
        );
    }
}

/// Writes the spans kept in memory to `perfbench/out/`.
fn write_spans(tracer: &Tracer, workload: &str, seed: u64) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  spans written to {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the workloads and metrics this
    /// program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for w in Workload::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\"", w.name())));
        }
        for (name, unit) in END_TO_END.iter().chain(LAYER_METRICS) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry} missing");
        }
        let listed = json.matches("{\"name\": ").count();
        assert_eq!(
            listed,
            Workload::ALL.len() + END_TO_END.len() + LAYER_METRICS.len()
        );
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let ok = parse_args(&args("--workload fleet-2x2 --seed 7 --trace 1")).expect("valid");
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::Fleet2x2, 7, 30, true)
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload functional --trace 2")).is_err());
        assert!(parse_args(&args("--workload functional --seconds 0")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }
}
