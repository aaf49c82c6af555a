//! `campaign`: generated programs through the differential check, run as
//! cells on the `tapas-exec` sweep executor.
//!
//! Per program: generate, lint, interpreter golden run with SP-bags,
//! static analysis and compile once; then the same configuration samples
//! `reproduce fuzzsim` draws for that program seed (the all-off baseline
//! first, then features, fault plans and kill-and-resume), each one
//! elaborated, run and compared with the golden output. A kill sample
//! halts a second run at a seeded cycle, round-trips the halt snapshot
//! through its byte format in memory and resumes it on a fresh
//! accelerator; the resumed outcome must equal the uninterrupted one.
//!
//! `campaign_nofault` is the same campaign with every sampled fault plan
//! dropped (the sample otherwise unchanged), so it runs the feature
//! matrix without fault injection.

use crate::common::{compile, elaborate, guarded, run, Counts, ExecFigures, Pass, Workload};
use crate::trace::{now_ns, Span, Tracer};
use tapas::{CompiledDesign, EngineSnapshot, SimError, SimOutcome};
use tapas_analyze::AnalysisReport;
use tapas_exec::{run_sweep, Cell, Policy};
use tapas_integration::fuzz::{fuzz_cells, FuzzCell, FuzzSample};
use tapas_workloads::rng::SplitMix64;
use tapas_workloads::BuiltWorkload;

/// Generated programs per pass.
const PROGRAMS: usize = 2048;
/// Configuration samples per program, as in `reproduce fuzzsim`.
const CONFIGS: usize = 4;

pub struct Campaign {
    cells: Vec<FuzzCell>,
    /// Keep the fault plans the samples draw.
    faults: bool,
}

impl Campaign {
    /// The program seeds `reproduce fuzzsim` derives from `seed`.
    pub fn new(seed: u64, faults: bool) -> Campaign {
        Campaign { cells: fuzz_cells(seed, PROGRAMS, CONFIGS), faults }
    }
}

/// What one cell (one program) hands back to the pass.
#[derive(Debug, Clone, Default)]
struct CellOut {
    counts: Counts,
    checks: u64,
    failed: u64,
    failures: Vec<String>,
    wall_s: f64,
    spans: Vec<Span>,
}

impl CellOut {
    fn verdict(&mut self, seed: u64, r: Result<(), String>) {
        self.checks += 1;
        self.counts.verdict(r.is_ok());
        if let Err(e) = r {
            self.failed += 1;
            self.failures.push(format!("program {seed:#x}: {e}"));
        }
    }
}

impl Workload for Campaign {
    fn pass(&mut self, tr: &mut Tracer, pass: &mut Pass) {
        let (traced, faults) = (tr.on(), self.faults);
        let cells: Vec<Cell<CellOut>> = self
            .cells
            .iter()
            .map(|c| {
                let (seed, configs) = (c.seed, c.configs);
                Cell::new(format!("campaign/{seed:#x}"), move || {
                    Ok(check_program(seed, configs, faults, traced))
                })
            })
            .collect();
        // One worker: on a 2-core host, two workers made the pass time
        // swing about twice as much between runs (see README.md).
        let sweep = tr.open("exec.sweep");
        let report = run_sweep(&cells, &Policy::serial(), None);
        let mut exec = ExecFigures {
            jobs: report.jobs,
            sweep_s: report.wall.as_secs_f64(),
            ..ExecFigures::default()
        };
        for (rec, cell) in report.records.into_iter().zip(&self.cells) {
            exec.retries += u64::from(rec.attempts - 1);
            let Some(out) = rec.payload else {
                // The cell died outside every per-check guard: all of its
                // checks count as failed.
                for _ in 0..cell.configs {
                    pass.verdict(Err(format!(
                        "campaign/{:#x}: {}: {}",
                        cell.seed,
                        rec.status.label(),
                        rec.detail
                    )));
                }
                continue;
            };
            exec.cell_s += out.wall_s;
            pass.check_ms.push(out.wall_s * 1e3);
            pass.checks += out.checks;
            pass.failed += out.failed;
            pass.failures.extend(out.failures);
            pass.counts.add(&out.counts);
            tr.adopt(out.spans);
        }
        tr.close(sweep);
        pass.exec = Some(exec);
    }
}

/// One program through the whole differential check. Never panics: a
/// panic inside a check fails that check.
fn check_program(seed: u64, configs: usize, faults: bool, traced: bool) -> CellOut {
    let mut tr = Tracer::new(traced);
    tr.set_program(seed);
    let t0 = now_ns();
    let cell = tr.open("exec.cell");
    let mut out = CellOut::default();
    match guarded(&mut tr, |tr| prepare(tr, seed)) {
        Err(e) => {
            for _ in 0..configs {
                out.verdict(seed, Err(e.clone()));
            }
        }
        Ok(prep) => {
            // The sample stream `run_fuzz_cell` draws for this seed.
            let mut rng = SplitMix64::new(seed ^ 0xd1b5_4a32_d192_ed03);
            for i in 0..configs {
                let mut s = if i == 0 {
                    FuzzSample::baseline()
                } else {
                    FuzzSample::draw(&mut rng, prep.recursive, &prep.report)
                };
                if !faults {
                    s.faults = None;
                }
                let r = guarded(&mut tr, |tr| check_sample(tr, &prep, &s, &mut out.counts));
                out.verdict(seed, r.map_err(|e| format!("{}: {e}", s.repro(seed, &prep.wl.name))));
            }
        }
    }
    tr.close(cell);
    out.wall_s = (now_ns() - t0) as f64 * 1e-9;
    out.spans = tr.into_spans();
    out
}

struct Prepared {
    wl: BuiltWorkload,
    recursive: bool,
    golden: Vec<u8>,
    report: AnalysisReport,
    design: CompiledDesign,
}

/// Generate the program and establish its ground truth.
fn prepare(tr: &mut Tracer, seed: u64) -> Result<Prepared, String> {
    let g = tr.leaf("gen.generate", || tapas_gen::generate(seed));
    tr.leaf("lint.lint", || tapas_gen::lint_clean(&g.wl)).map_err(|e| format!("lint: {e}"))?;
    let mut mem = g.wl.mem.clone();
    let icfg = tapas_ir::interp::InterpConfig {
        detect_races: true,
        ..tapas_ir::interp::InterpConfig::default()
    };
    let golden_run = tr
        .leaf("ir.interp", || {
            tapas_ir::interp::run(&g.wl.module, g.wl.func, &g.wl.args, &mut mem, &icfg)
        })
        .map_err(|e| format!("interpreter golden run: {e}"))?;
    if !golden_run.races.is_empty() {
        return Err(format!("generated program is racy: {:?}", golden_run.races));
    }
    let report = tr
        .leaf("analyze.analyze", || tapas_analyze::analyze(&g.wl.module, g.wl.func, &g.wl.args))
        .map_err(|e| format!("static analysis: {e}"))?;
    let design = compile(tr, &g.wl)?;
    let golden = g.wl.output_of(&mem).to_vec();
    Ok(Prepared { recursive: g.shape.is_recursive(), wl: g.wl, golden, report, design })
}

/// One sample against the golden output. Under a fault plan a run that
/// ends in an error has detected the fault and passes; a completed run
/// must still match.
fn check_sample(
    tr: &mut Tracer,
    p: &Prepared,
    s: &FuzzSample,
    counts: &mut Counts,
) -> Result<(), String> {
    let cfg = s.accelerator_config(&p.wl);
    let mut acc = elaborate(tr, &p.design, &cfg, &p.wl)?;
    let out = match run(tr, &mut acc, &p.wl) {
        Ok(out) => out,
        Err(_) if s.faults.is_some() => return Ok(()),
        Err(e) => return Err(format!("run: {e}")),
    };
    counts.add_run(&out);
    if acc.mem().read_bytes(p.wl.output.0, p.wl.output.1) != p.golden {
        return Err("output diverged from interpreter golden model".into());
    }
    match s.kill {
        Some(salt) => kill_trial(tr, p, &cfg, &out, salt, counts),
        None => Ok(()),
    }
}

/// Halt a second run at a seeded cycle, round-trip its snapshot through
/// the byte format, resume on a fresh accelerator and require the
/// uninterrupted outcome and output.
fn kill_trial(
    tr: &mut Tracer,
    p: &Prepared,
    cfg: &tapas::AcceleratorConfig,
    golden: &SimOutcome,
    salt: u64,
    counts: &mut Counts,
) -> Result<(), String> {
    if golden.cycles < 2 {
        return Ok(());
    }
    let kill = 1 + salt % (golden.cycles - 1);
    let mut killed_cfg = cfg.clone();
    killed_cfg.halt_at_cycle = Some(kill);
    let mut victim = elaborate(tr, &p.design, &killed_cfg, &p.wl)?;
    let open = tr.open("sim.run_to_halt");
    let halted = victim.run(p.wl.func, &p.wl.args);
    tr.close(open);
    match halted {
        Err(SimError::Halted { at }) => counts.sim_cycles += at,
        Err(e) => return Err(format!("kill at {kill}: failed before the halt: {e}")),
        Ok(_) => return Err(format!("kill at {kill}: run completed past the halt")),
    }
    let snap =
        victim.take_halt_snapshot().ok_or_else(|| format!("kill at {kill}: no halt snapshot"))?;
    let bytes = tr.leaf("snapshot.encode", || snap.to_bytes());
    counts.snapshot_bytes += bytes.len() as u64;
    counts.snapshot_images += 1;
    let snap = tr
        .leaf("snapshot.decode", || EngineSnapshot::from_bytes(&bytes))
        .map_err(|e| format!("kill at {kill}: snapshot byte round trip: {e}"))?;
    let mut resumed = elaborate(tr, &p.design, cfg, &p.wl)?;
    let open = tr.open("sim.resume");
    let out = resumed.resume(&snap);
    tr.close(open);
    let out = out.map_err(|e| format!("kill at {kill}: resume from cycle {}: {e}", snap.cycle))?;
    counts.sim_cycles += out.cycles.saturating_sub(snap.cycle);
    let got = resumed.mem().read_bytes(p.wl.output.0, p.wl.output.1);
    if out != *golden || got != p.golden {
        return Err(format!("kill at {kill}: resumed run diverged from the uninterrupted run"));
    }
    Ok(())
}
