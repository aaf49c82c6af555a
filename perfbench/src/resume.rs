//! `snapshot_resume`: a long run with periodic on-disk snapshots is killed
//! at a seeded cycle and finished from the disk ladder.
//!
//! Per pass: an uninterrupted twin (checked against the hand-written
//! sort), a snapshot-armed run halted at the kill cycle, and
//! `simulate_resumable`, whose outcome and output must equal the twin's.
//! The kill cycle lies between the two snapshot boundaries nearest the
//! middle of the run, so the resume always restarts from the same
//! boundary and every seed costs about the same; the seed picks the cycle
//! inside that interval and the sort keys.

use crate::common::{compile, elaborate, guarded, run, Pass, Workload};
use crate::trace::{now_ns, Tracer};
use std::path::PathBuf;
use tapas::{AcceleratorConfig, CompiledDesign, EngineSnapshot, SimError, SnapshotConfig};
use tapas_bench::{accel_config, ntasks_for};
use tapas_workloads::rng::SplitMix64;
use tapas_workloads::{mergesort, BuiltWorkload};

/// Simulated cycles between periodic snapshots.
const EVERY: u64 = 20_000;
const KEYS: u64 = 2048;

pub struct Resume {
    wl: BuiltWorkload,
    cfg: AcceleratorConfig,
    expect: Vec<u8>,
    kill_salt: u64,
    path: PathBuf,
}

impl Resume {
    /// `dir` is where the snapshot ladder lives: a directory of the
    /// checkout, on the repository's own filesystem.
    pub fn new(seed: u64, dir: PathBuf) -> Resume {
        let wl = mergesort::build(KEYS, seed);
        Resume {
            cfg: accel_config(&wl, 4, ntasks_for(&wl)),
            expect: mergesort::expected(KEYS, seed),
            kill_salt: SplitMix64::new(seed ^ 0x5eed_4b11_1c7c_1e00).next_u64(),
            path: dir.join("mergesort.snap"),
            wl,
        }
    }

    fn clear(&self) {
        let _ = std::fs::remove_file(&self.path);
        let _ = std::fs::remove_file(tapas::sim::snapshot::prev_path(&self.path));
    }

    fn armed(&self) -> AcceleratorConfig {
        AcceleratorConfig {
            snapshot: Some(SnapshotConfig { every: EVERY, path: self.path.clone() }),
            ..self.cfg.clone()
        }
    }
}

impl Workload for Resume {
    fn pass(&mut self, tr: &mut Tracer, pass: &mut Pass) {
        let t0 = now_ns();
        let verdict = guarded(tr, |tr| self.trial(tr, pass));
        tr.leaf("bench.cleanup", || self.clear());
        pass.check_ms.push((now_ns() - t0) as f64 * 1e-6);
        pass.verdict(verdict);
    }
}

impl Resume {
    fn trial(&self, tr: &mut Tracer, pass: &mut Pass) -> Result<(), String> {
        let design = compile(tr, &self.wl)?;
        let mut twin = elaborate(tr, &design, &self.cfg, &self.wl)?;
        let golden = run(tr, &mut twin, &self.wl).map_err(|e| format!("twin run: {e}"))?;
        pass.counts.add_run(&golden);
        let golden_out = twin.mem().read_bytes(self.wl.output.0, self.wl.output.1);
        if golden_out != self.expect {
            return Err("uninterrupted run differs from the hand-written sort".into());
        }
        let boundary = (golden.cycles / 2 / EVERY).max(1) * EVERY;
        let kill = boundary + 1 + self.kill_salt % (EVERY - 1);
        if kill >= golden.cycles {
            return Err(format!("run of {} cycles is too short to kill at {kill}", golden.cycles));
        }

        self.clear();
        let halt = |cfg: &AcceleratorConfig| AcceleratorConfig {
            halt_at_cycle: Some(kill),
            ..cfg.clone()
        };
        let at = halted_run(tr, "sim.run_armed", &design, &halt(&self.armed()), &self.wl)?;
        pass.counts.sim_cycles += at;
        pass.counts.snapshot_writes += at / EVERY;
        let image = std::fs::metadata(&self.path).map_err(|e| format!("snapshot ladder: {e}"))?;
        pass.counts.snapshot_bytes += image.len();
        pass.counts.snapshot_images += 1;
        if tr.on() {
            // Calls made only when traced, grouped so the tracing overhead
            // can leave them out. The same halted run without snapshots
            // prices the periodic snapshots; the ladder is then loaded and
            // its image round-tripped through the codec.
            let extra = tr.open("trace.extra");
            let r = halted_run(tr, "sim.run_to_halt", &design, &halt(&self.cfg), &self.wl)
                .and_then(|_| self.codec(tr));
            tr.close(extra);
            r?;
        }

        let (t0, open) = (now_ns(), tr.open("sim.resume"));
        let resumed =
            design.simulate_resumable(&self.armed(), self.wl.func, &self.wl.args, &self.wl.mem);
        tr.close(open);
        pass.resume_s = (now_ns() - t0) as f64 * 1e-9;
        let resumed = resumed.map_err(|e| format!("resume: {e}"))?;
        let from =
            resumed.resumed_from.ok_or("resume started from cycle 0, not from a snapshot")?;
        if !resumed.notes.is_empty() || !(boundary..=kill).contains(&from) {
            return Err(format!("resumed from cycle {from}, notes {:?}", resumed.notes));
        }
        pass.counts.sim_cycles += golden.cycles - from;
        pass.counts.snapshot_writes += (golden.cycles - 1) / EVERY - from / EVERY;
        let out = resumed.accelerator.mem().read_bytes(self.wl.output.0, self.wl.output.1);
        if resumed.outcome != golden || out != self.expect {
            return Err(format!(
                "run resumed from cycle {from} diverged from the uninterrupted run"
            ));
        }
        Ok(())
    }

    /// Load the ladder the resume will start from and round-trip its image
    /// through the in-memory codec.
    fn codec(&self, tr: &mut Tracer) -> Result<(), String> {
        let (snap, notes) =
            tr.leaf("snapshot.load", || tapas::sim::snapshot::load_latest(&self.path));
        let snap = snap.ok_or_else(|| format!("no snapshot on disk: {notes:?}"))?;
        let bytes = tr.leaf("snapshot.encode", || snap.to_bytes());
        let back = tr.leaf("snapshot.decode", || EngineSnapshot::from_bytes(&bytes));
        if back.as_ref() != Ok(&snap) {
            return Err("snapshot image does not survive the byte round trip".into());
        }
        Ok(())
    }
}

/// Run until the halt hook fires and return the cycle it fired at.
fn halted_run(
    tr: &mut Tracer,
    name: &'static str,
    design: &CompiledDesign,
    cfg: &AcceleratorConfig,
    wl: &BuiltWorkload,
) -> Result<u64, String> {
    let mut acc = elaborate(tr, design, cfg, wl)?;
    let open = tr.open(name);
    let r = acc.run(wl.func, &wl.args);
    tr.close(open);
    match r {
        Err(SimError::Halted { at }) => Ok(at),
        Err(e) => Err(format!("{name}: failed before the halt: {e}")),
        Ok(_) => Err(format!("{name}: completed past the halt")),
    }
}
