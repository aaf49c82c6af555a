//! What every workload shares: the per-pass record, the exact simulated
//! counts, and the traced calls into the toolchain and simulator.

use crate::trace::{Span, Tracer};
use std::panic::{self, AssertUnwindSafe};
use tapas::{Accelerator, AcceleratorConfig, CompiledDesign, SimError, SimOutcome, Toolchain};
use tapas_workloads::BuiltWorkload;

/// Simulated counts of one pass. They depend only on the workload and its
/// seed, so they must repeat exactly across passes and runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Cycles the engine advanced through, over every run of the pass
    /// (a halted run counts up to its halt, a resumed run from its
    /// snapshot on).
    pub sim_cycles: u64,
    /// Cycles of the runs started fresh that completed; the engine-event
    /// counters below cover exactly these runs.
    pub run_cycles: u64,
    pub engine_events: u64,
    pub skipped_cycles: u64,
    pub l1_hits: u64,
    pub l1_accesses: u64,
    pub dram_reads: u64,
    pub cache_stalls: u64,
    pub spawns: u64,
    pub spawn_latency: u64,
    pub spills: u64,
    pub steals: u64,
    /// Snapshot boundaries the snapshot-armed runs crossed.
    pub snapshot_writes: u64,
    /// Snapshot images encoded or written, and their total size.
    pub snapshot_images: u64,
    pub snapshot_bytes: u64,
    /// FNV-1a over every check's verdict, in order.
    pub verdicts: u64,
}

impl Counts {
    /// Fold in a completed fresh run.
    pub fn add_run(&mut self, out: &SimOutcome) {
        let s = &out.stats;
        self.sim_cycles += out.cycles;
        self.run_cycles += out.cycles;
        self.engine_events += s.engine_events;
        self.skipped_cycles += s.skipped_cycles;
        self.l1_hits += s.cache.hits;
        self.l1_accesses += s.cache.hits + s.cache.misses + s.cache.mshr_merges;
        self.dram_reads += s.dram_reads;
        self.cache_stalls += s.cache_stalls;
        self.spawns += s.spawns;
        self.spawn_latency += s.total_spawn_latency;
        self.spills += s.spills;
        self.steals += s.steals;
    }

    pub fn add(&mut self, o: &Counts) {
        self.sim_cycles += o.sim_cycles;
        self.run_cycles += o.run_cycles;
        self.engine_events += o.engine_events;
        self.skipped_cycles += o.skipped_cycles;
        self.l1_hits += o.l1_hits;
        self.l1_accesses += o.l1_accesses;
        self.dram_reads += o.dram_reads;
        self.cache_stalls += o.cache_stalls;
        self.spawns += o.spawns;
        self.spawn_latency += o.spawn_latency;
        self.spills += o.spills;
        self.steals += o.steals;
        self.snapshot_writes += o.snapshot_writes;
        self.snapshot_images += o.snapshot_images;
        self.snapshot_bytes += o.snapshot_bytes;
        self.verdicts = fnv(self.verdicts, o.verdicts);
    }

    pub fn verdict(&mut self, ok: bool) {
        self.verdicts = fnv(self.verdicts, u64::from(ok));
    }

    /// One line that two runs of the same workload and seed must print
    /// identically.
    pub fn fingerprint(&self) -> String {
        format!("{self:?}")
    }
}

fn fnv(h: u64, v: u64) -> u64 {
    v.to_le_bytes()
        .iter()
        .fold(h ^ 0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Executor figures of a pass that ran its checks on `tapas-exec`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecFigures {
    pub jobs: usize,
    pub sweep_s: f64,
    /// Sum of cell wall times.
    pub cell_s: f64,
    pub retries: u64,
}

/// Everything one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    /// Golden comparisons attempted.
    pub checks: u64,
    /// Diverged outputs, unexpected errors and panics.
    pub failed: u64,
    /// Host milliseconds per program check (a kernel, a generated
    /// program with all its configurations, a kill-resume trial).
    pub check_ms: Vec<f64>,
    pub counts: Counts,
    pub exec: Option<ExecFigures>,
    /// Host seconds of `simulate_resumable` (snapshot_resume only).
    pub resume_s: f64,
    /// Resident-memory high-water mark during the pass.
    pub peak_rss_mb: f64,
    pub failures: Vec<String>,
    pub spans: Vec<Span>,
}

impl Pass {
    /// Record one golden comparison.
    pub fn verdict(&mut self, r: Result<(), String>) {
        self.checks += 1;
        self.counts.verdict(r.is_ok());
        if let Err(e) = r {
            self.failed += 1;
            self.failures.push(e);
        }
    }
}

/// A workload set up once per run and measured pass after pass.
pub trait Workload {
    /// Run one pass. The caller has opened the `pass` span on `tr`.
    fn pass(&mut self, tr: &mut Tracer, pass: &mut Pass);
}

/// Run `f`, turning a panic into an error and closing any span it left
/// open.
pub fn guarded<T>(
    tr: &mut Tracer,
    f: impl FnOnce(&mut Tracer) -> Result<T, String>,
) -> Result<T, String> {
    let depth = tr.depth();
    match panic::catch_unwind(AssertUnwindSafe(|| f(&mut *tr))) {
        Ok(r) => r,
        Err(payload) => {
            tr.unwind_to(depth);
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(format!("panic: {msg}"))
        }
    }
}

/// Stages 1 and 2. Traced, the same two calls `Toolchain::compile` makes
/// are made one by one so task extraction and dataflow lowering get spans
/// of their own.
pub fn compile(tr: &mut Tracer, wl: &BuiltWorkload) -> Result<CompiledDesign, String> {
    if !tr.on() {
        return Toolchain::new().compile(&wl.module).map_err(|e| format!("compile: {e}"));
    }
    let open = tr.open("core.compile");
    let design = compile_split(tr, wl);
    tr.close(open);
    design
}

fn compile_split(tr: &mut Tracer, wl: &BuiltWorkload) -> Result<CompiledDesign, String> {
    let graphs = tr
        .leaf("task.extract", || tapas_task::extract_module(&wl.module))
        .map_err(|e| format!("compile: {e}"))?;
    let latencies = tapas_dfg::LatencyModel::default();
    let mut dfgs = Vec::with_capacity(graphs.len());
    for g in &graphs {
        let dfg = tr
            .leaf("dfg.lower", || tapas_dfg::lower_tasks(&wl.module, g, &latencies))
            .map_err(|e| format!("compile: {e}"))?;
        dfgs.push(dfg);
    }
    Ok(CompiledDesign { module: wl.module.clone(), graphs, dfgs })
}

/// Stage 3: build the accelerator and load the workload's memory image.
/// Every accelerator is fresh, so the modeled caches start empty.
pub fn elaborate(
    tr: &mut Tracer,
    design: &CompiledDesign,
    cfg: &AcceleratorConfig,
    wl: &BuiltWorkload,
) -> Result<Accelerator, String> {
    tr.leaf("sim.elaborate", || {
        let mut acc = design.instantiate(cfg)?;
        acc.mem_mut().write_bytes(0, &wl.mem);
        Ok::<_, SimError>(acc)
    })
    .map_err(|e| format!("elaborate: {e}"))
}

/// Run `wl` to completion on `acc`. A run that errors is charged to
/// `sim.run_failed`, so `sim.run` covers exactly the runs whose engine
/// events are counted.
pub fn run(
    tr: &mut Tracer,
    acc: &mut Accelerator,
    wl: &BuiltWorkload,
) -> Result<SimOutcome, SimError> {
    let open = tr.open("sim.run");
    let out = acc.run(wl.func, &wl.args);
    tr.close_as(open, out.is_err().then_some("sim.run_failed"));
    out
}
