//! `kernels_dense` and `kernels_recursive`: hand-written paper kernels
//! simulated at evaluation sizes, each checked against its host oracle.

use crate::common::{compile, elaborate, guarded, run, Pass, Workload};
use crate::trace::{now_ns, Tracer};
use tapas::ir::interp::Val;
use tapas::AcceleratorConfig;
use tapas_bench::{accel_config, ntasks_for};
use tapas_workloads::{
    dedup, deeprec, fib, image_scale, matrix_add, mergesort, saxpy, stencil, BuiltWorkload,
};

/// What a kernel's run must produce.
enum Expect {
    /// The output region, from the kernel's hand-written `expected()`.
    Output(Vec<u8>),
    /// The return value, computed on the host (fib).
    Ret(u64),
}

struct Kernel {
    wl: BuiltWorkload,
    cfg: AcceleratorConfig,
    expect: Expect,
}

pub struct Kernels {
    kernels: Vec<Kernel>,
}

impl Kernels {
    /// matrix_add, image_scale, saxpy, stencil and dedup at `suite_eval`
    /// sizes on 4 tiles. Their inputs are fixed functions of size; the
    /// seed does not change them.
    pub fn dense() -> Kernels {
        let k = |wl: BuiltWorkload, expect: Vec<u8>| {
            let cfg = accel_config(&wl, 4, ntasks_for(&wl));
            Kernel { wl, cfg, expect: Expect::Output(expect) }
        };
        Kernels {
            kernels: vec![
                k(matrix_add::build(96), matrix_add::expected(96)),
                k(image_scale::build(96, 96), image_scale::expected(96, 96)),
                k(saxpy::build(8192), saxpy::expected(8192)),
                k(stencil::build(48, 48), stencil::expected(48, 48)),
                k(dedup::build(192, 48), dedup::expected(192, 48)),
            ],
        }
    }

    /// mergesort(2048) over keys drawn from `seed` and fib(16) on 4 tiles,
    /// plus the deeprec(256) spawn chain on 1 tile with a 100-cycle spawn
    /// port. Queues are as deep as `reproduce` makes them for recursion.
    pub fn recursive(seed: u64) -> Kernels {
        let sort = mergesort::build(2048, seed);
        let fib16 = fib::build(16);
        let chain = deeprec::build(256);
        let mut chain_cfg = accel_config(&chain, 1, ntasks_for(&chain));
        chain_cfg.spawn_cost = 100;
        Kernels {
            kernels: vec![
                Kernel {
                    cfg: accel_config(&sort, 4, ntasks_for(&sort)),
                    expect: Expect::Output(mergesort::expected(2048, seed)),
                    wl: sort,
                },
                Kernel {
                    cfg: accel_config(&fib16, 4, ntasks_for(&fib16)),
                    expect: Expect::Ret(u64::from(fib::fib_value(16))),
                    wl: fib16,
                },
                Kernel {
                    wl: chain,
                    cfg: chain_cfg,
                    expect: Expect::Output(256i32.to_le_bytes().to_vec()),
                },
            ],
        }
    }
}

impl Workload for Kernels {
    fn pass(&mut self, tr: &mut Tracer, pass: &mut Pass) {
        for (i, k) in self.kernels.iter().enumerate() {
            tr.set_program(i as u64);
            let t0 = now_ns();
            let verdict = guarded(tr, |tr| check(tr, k, pass));
            pass.check_ms.push((now_ns() - t0) as f64 * 1e-6);
            pass.verdict(verdict.map_err(|e| format!("{}: {e}", k.wl.name)));
        }
    }
}

fn check(tr: &mut Tracer, k: &Kernel, pass: &mut Pass) -> Result<(), String> {
    let design = compile(tr, &k.wl)?;
    let mut acc = elaborate(tr, &design, &k.cfg, &k.wl)?;
    let out = run(tr, &mut acc, &k.wl).map_err(|e| format!("run: {e}"))?;
    pass.counts.add_run(&out);
    let ok = match &k.expect {
        Expect::Output(want) => acc.mem().read_bytes(k.wl.output.0, k.wl.output.1) == want,
        Expect::Ret(want) => matches!(out.ret, Some(Val::Int(v)) if v & 0xffff_ffff == *want),
    };
    if ok {
        Ok(())
    } else {
        Err("output differs from the hand-written reference".into())
    }
}
