//! The benchmark of record for the TAPAS toolchain and simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kernels_dense|kernels_recursive|campaign|campaign_nofault|snapshot_resume> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets its workload up, then measures as many whole passes over it
//! as fit in `--seconds` (at least three), timing set-ups between them and
//! reporting medians. Every pass
//! checks every output against the interpreter golden model or the
//! kernel's hand-written reference, and repeats the simulated counts of
//! the first pass exactly. Untraced runs print the end-to-end metrics; a
//! traced run alternates untraced and traced passes and prints the
//! per-layer metrics. The last line of standard output is the JSON result.
//! See `perfbench/README.md` for what each workload and metric is for.

mod campaign;
mod common;
mod kernels;
mod resume;
mod trace;

use common::{Pass, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::{now_ns, Tracer};

const WORKLOADS: [&str; 5] =
    ["kernels_dense", "kernels_recursive", "campaign", "campaign_nofault", "snapshot_resume"];
/// Set-ups are timed in batches before the first pass and after every
/// pass, so set-up is sampled across the whole run like the passes are;
/// `setup_s` is the median of them all. A batch is at least `SETUP_REPS`
/// set-ups and at least `SETUP_BATCH_NS`, so a set-up of microseconds is
/// timed often enough for its median to hold still.
const SETUP_REPS: usize = 3;
const SETUP_BATCH_NS: u64 = 2_000_000;
/// Scratch state (snapshot ladder, exact-count records), relative to the
/// checkout the benchmark runs from.
const STATE_DIR: &str = ".perfbench_state";
/// Smallest share of traced host time that layer spans must account for;
/// the rest is benchmark glue (`pass` and `exec.cell` self time).
const MIN_COVERAGE: f64 = 0.9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let take = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let workload = take("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {WORKLOADS:?})"));
    }
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace takes 0 or 1, not `{t}`")),
    };
    if let Some(k) =
        kv.keys().find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn setup(workload: &str, seed: u64, state: &Path) -> Box<dyn Workload> {
    match workload {
        "kernels_dense" => Box::new(kernels::Kernels::dense()),
        "kernels_recursive" => Box::new(kernels::Kernels::recursive(seed)),
        "campaign" => Box::new(campaign::Campaign::new(seed, true)),
        "campaign_nofault" => Box::new(campaign::Campaign::new(seed, false)),
        "snapshot_resume" => Box::new(resume::Resume::new(seed, state.join("snapshots"))),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    tapas_exec::install_quiet_panic_hook();
    let state = PathBuf::from(STATE_DIR);
    if let Err(e) = std::fs::create_dir_all(state.join("snapshots")) {
        eprintln!("perfbench: cannot create {}: {e}", state.display());
        return ExitCode::from(1);
    }

    let mut setups = Vec::new();
    let mut setup_batch = || {
        let batch = now_ns();
        let mut reps = 0;
        while reps < SETUP_REPS || now_ns() - batch < SETUP_BATCH_NS {
            let t0 = now_ns();
            std::hint::black_box(setup(&args.workload, args.seed, &state));
            setups.push((now_ns() - t0) as f64 * 1e-9);
            reps += 1;
        }
    };
    setup_batch();
    let mut wl = setup(&args.workload, args.seed, &state);

    let min_passes = if args.trace { 4 } else { 3 };
    let start = now_ns();
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    // After the minimum, start a pass only if one more of the last pass's
    // length still ends within `--seconds`.
    let fits = |passes: &[(bool, Pass)]| {
        let last = passes.last().map_or(0.0, |(_, p)| p.wall_s);
        (now_ns() - start) as f64 * 1e-9 + last <= args.seconds
    };
    while passes.len() < min_passes || fits(&passes) {
        let traced = args.trace && passes.len() % 2 == 1;
        let pass = run_pass(&mut *wl, traced);
        eprintln!(
            "perfbench: pass {} traced={traced} wall={:.4}s rss={:.1}MB checks={} failed={}",
            passes.len(),
            pass.wall_s,
            pass.peak_rss_mb,
            pass.checks,
            pass.failed
        );
        passes.push((traced, pass));
        setup_batch();
    }

    let mut problems = Vec::new();
    let first = &passes[0].1.counts;
    if let Some((i, (_, p))) = passes.iter().enumerate().find(|(_, (_, p))| p.counts != *first) {
        problems.push(format!(
            "simulated counts of pass {i} differ from pass 0:\n  {}\n  {}",
            p.counts.fingerprint(),
            first.fingerprint()
        ));
    }
    if let Err(e) = check_record(&state, &args, first) {
        problems.push(e);
    }
    if args.trace {
        let spans: Vec<(usize, &[trace::Span])> = passes
            .iter()
            .enumerate()
            .filter(|(_, (t, _))| *t)
            .map(|(i, (_, p))| (i, &p.spans[..]))
            .collect();
        let path = state.join(format!("spans-{}.jsonl", args.workload));
        if let Err(e) = trace::write_jsonl(&path, &spans) {
            problems.push(format!("cannot write spans to {}: {e}", path.display()));
        }
    }
    let attempted: u64 = passes.iter().map(|(_, p)| p.checks).sum();
    let failed: u64 = passes.iter().map(|(_, p)| p.failed).sum();
    // Every pass repeats the first pass's verdicts (the counts check
    // above covers them), so its failures stand for all of them.
    for f in passes[0].1.failures.iter().take(5) {
        eprintln!("perfbench: failed check: {f}");
    }

    let disk = args.workload == "snapshot_resume";
    let metrics = if args.trace {
        let (metrics, coverage) = per_layer(&passes, &setups, disk);
        if coverage < MIN_COVERAGE {
            problems.push(format!("layer spans cover only {coverage:.3} of the traced time"));
        }
        metrics
    } else {
        end_to_end(&passes, &setups, attempted, failed, disk)
    };
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    println!(
        "# {} seed={} passes={} ({} traced); host = seconds where the benchmark runs, simulated = modeled cycles; \
         modeled caches start empty in every run",
        args.workload,
        args.seed,
        passes.len(),
        passes.iter().filter(|(t, _)| *t).count()
    );
    for m in &metrics {
        println!("{:<32} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.kind);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    let correct = failed == 0 && problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    ExitCode::SUCCESS
}

fn run_pass(wl: &mut dyn Workload, traced: bool) -> Pass {
    let mut tr = Tracer::new(traced);
    let mut pass = Pass::default();
    // Reset the resident-memory high-water mark, so each pass reports its
    // own peak rather than the largest of the run so far. Where the kernel
    // refuses, the peak is the process's.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let t0 = now_ns();
    let root = tr.open("pass");
    wl.pass(&mut tr, &mut pass);
    tr.close(root);
    pass.wall_s = (now_ns() - t0) as f64 * 1e-9;
    pass.peak_rss_mb = peak_rss_mb();
    pass.spans = tr.into_spans();
    pass
}

/// The first run of a workload and seed by this build records its
/// simulated counts; every later run of the same build must reproduce them
/// exactly. Records are keyed by a hash of the executable, so a build of
/// other code starts its own.
fn check_record(state: &Path, args: &Args, counts: &common::Counts) -> Result<(), String> {
    use std::hash::{Hash, Hasher};
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("cannot read the benchmark executable: {e}"))?;
    let mut h = std::hash::DefaultHasher::new();
    exe.hash(&mut h);
    let path =
        state.join(format!("counts-{}-{}-{:016x}.txt", args.workload, args.seed, h.finish()));
    let line = counts.fingerprint();
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev == line => Ok(()),
        Ok(prev) => Err(format!(
            "simulated counts differ from an earlier run of this seed:\n  now    {line}\n  before {prev}"
        )),
        Err(_) => {
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, &line)
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(|e| format!("cannot record counts in {}: {e}", path.display()))
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// `host` (seconds or bytes where the benchmark runs) or `simulated` (modeled
    /// hardware; exact).
    kind: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str, kind: &'static str) -> Metric {
    Metric { name, value, unit, kind }
}

/// `disk`: the `snapshot_resume` workload, which also reports the
/// on-disk snapshot figures no other workload produces.
fn end_to_end(
    passes: &[(bool, Pass)],
    setups: &[f64],
    attempted: u64,
    failed: u64,
    disk: bool,
) -> Vec<Metric> {
    let ps: Vec<&Pass> = passes.iter().map(|(_, p)| p).collect();
    let per = |f: &dyn Fn(&Pass) -> f64| median(&ps.iter().map(|p| f(p)).collect::<Vec<_>>());
    let check_ms: Vec<f64> = ps.iter().flat_map(|p| p.check_ms.iter().copied()).collect();
    let mut out = vec![
        m("wall_s", per(&|p| p.wall_s), "s", "host"),
        m("sim_cycles_per_s", per(&|p| p.counts.sim_cycles as f64 / p.wall_s), "1/s", "host"),
        m("sim_cycles", ps[0].counts.sim_cycles as f64, "cycles", "simulated"),
        m("checks_per_s", per(&|p| p.checks as f64 / p.wall_s), "1/s", "host"),
        m("check_p50_ms", quantile(&check_ms, 0.50), "ms", "host"),
        m("check_p95_ms", quantile(&check_ms, 0.95), "ms", "host"),
        m("setup_s", median(setups), "s", "host"),
        m("peak_rss_mb", per(&|p| p.peak_rss_mb), "MB", "host"),
        m("pass_frac", (attempted - failed) as f64 / attempted.max(1) as f64, "ratio", "host"),
    ];
    if disk {
        out.push(m("resume_s", per(&|p| p.resume_s), "s", "host"));
    }
    out
}

/// The per-layer metrics and the share of traced host time the layer
/// spans account for.
fn per_layer(passes: &[(bool, Pass)], setups: &[f64], disk: bool) -> (Vec<Metric>, f64) {
    let traced: Vec<&Pass> = passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
    let plain: Vec<&Pass> = passes.iter().filter(|(t, _)| !*t).map(|(_, p)| p).collect();
    let layers: Vec<BTreeMap<&'static str, f64>> = traced.iter().map(|p| layer_values(p)).collect();
    let get = |k: &str| {
        median(&layers.iter().map(|l| l.get(k).copied().unwrap_or(0.0)).collect::<Vec<_>>())
    };
    let c = &traced[0].counts;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    // Calls made only by traced passes are not tracing overhead.
    let traced_wall: Vec<f64> =
        traced.iter().zip(&layers).map(|(p, l)| p.wall_s - l["trace.extra"]).collect();
    let overhead =
        median(&traced_wall) - median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let coverage = layers.iter().map(|l| l["trace.coverage"]).fold(f64::INFINITY, f64::min);
    let mut out = vec![
        m("sim.run_s", get("sim.run"), "s", "host"),
        m("sim.host_ns_per_event", get("sim.host_ns_per_event"), "ns", "host"),
        m("sim.host_ns_per_cycle", get("sim.host_ns_per_cycle"), "ns", "host"),
        m("sim.elaborate_s", get("sim.elaborate"), "s", "host"),
        m("sim.resume_s", get("sim.resume"), "s", "host"),
        m("sim.engine_events", c.engine_events as f64, "count", "simulated"),
        m("sim.skipped_cycles", c.skipped_cycles as f64, "cycles", "simulated"),
        m("sim.skip_frac", ratio(c.skipped_cycles, c.run_cycles), "ratio", "simulated"),
        m("core.compile_s", get("core.compile.total"), "s", "host"),
        m("task.extract_s", get("task.extract"), "s", "host"),
        m("dfg.lower_s", get("dfg.lower"), "s", "host"),
        m("ir.interp_s", get("ir.interp"), "s", "host"),
        m("analyze.analyze_s", get("analyze.analyze"), "s", "host"),
        m("lint.lint_s", get("lint.lint"), "s", "host"),
        m("gen.generate_s", get("gen.generate"), "s", "host"),
        m("snapshot.encode_s", get("snapshot.encode"), "s", "host"),
        m("snapshot.decode_s", get("snapshot.decode"), "s", "host"),
        m("snapshot.bytes", ratio(c.snapshot_bytes, c.snapshot_images), "B", "host"),
        m("exec.cell_s", get("exec.cell_s"), "s", "host"),
        m("exec.wait_s", get("exec.wait_s"), "s", "host"),
        m("exec.parallel_eff", get("exec.parallel_eff"), "ratio", "host"),
        m("exec.retries", get("exec.retries"), "count", "host"),
        m("mem.l1_hit_ratio", ratio(c.l1_hits, c.l1_accesses), "ratio", "simulated"),
        m("mem.dram_reads", c.dram_reads as f64, "count", "simulated"),
        m("mem.cache_stalls", c.cache_stalls as f64, "count", "simulated"),
        m("task.spawns", c.spawns as f64, "count", "simulated"),
        m("task.avg_spawn_latency_cycles", ratio(c.spawn_latency, c.spawns), "cycles", "simulated"),
        m("task.spills", c.spills as f64, "count", "simulated"),
        m("task.steals", c.steals as f64, "count", "simulated"),
        m("workloads.build_s", median(setups), "s", "host"),
        m("trace.overhead_s", overhead, "s", "host"),
        m("trace.coverage", get("trace.coverage"), "ratio", "host"),
    ];
    if disk {
        out.extend([
            m("snapshot.periodic_s", get("snapshot.periodic"), "s", "host"),
            m("snapshot.writes", c.snapshot_writes as f64, "count", "simulated"),
            m("snapshot.load_s", get("snapshot.load"), "s", "host"),
        ]);
    }
    (out, coverage)
}

/// One traced pass's layer figures: self time per span name plus the
/// derived values.
fn layer_values(p: &Pass) -> BTreeMap<&'static str, f64> {
    let mut v = trace::self_times(&p.spans);
    let all: f64 = v.values().sum();
    let glue: f64 = ["pass", "exec.cell"].iter().filter_map(|k| v.get(k)).sum();
    v.insert("trace.coverage", 1.0 - glue / all);
    let total = |name: &str| -> f64 {
        p.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    };
    let run_s = v.get("sim.run").copied().unwrap_or(0.0);
    let per = |n: u64| if n == 0 { 0.0 } else { run_s * 1e9 / n as f64 };
    v.insert("sim.host_ns_per_event", per(p.counts.engine_events));
    v.insert("sim.host_ns_per_cycle", per(p.counts.run_cycles));
    v.insert("core.compile.total", total("core.compile"));
    v.insert("trace.extra", total("trace.extra"));
    if v.contains_key("sim.run_armed") {
        v.insert(
            "snapshot.periodic",
            v["sim.run_armed"] - v.get("sim.run_to_halt").copied().unwrap_or(0.0),
        );
    }
    if let Some(e) = p.exec {
        let capacity = e.jobs as f64 * e.sweep_s;
        v.insert("exec.cell_s", e.cell_s);
        v.insert("exec.wait_s", capacity - e.cell_s);
        v.insert("exec.parallel_eff", e.cell_s / capacity);
        v.insert("exec.retries", e.retries as f64);
    }
    v
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear interpolation between closest ranks.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// High-water mark of resident memory in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
