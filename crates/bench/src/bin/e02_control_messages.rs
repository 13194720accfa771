//! E2 — Fig. 1 / §III-B: control messages are tiny ("at most tens of
//! bytes") and buffering amortizes latency.

use bench::{fmt_s, timed};
use odin::{DType, Dist, OdinContext};

fn main() {
    let _obs = bench::obs_init();
    bench::header(
        "E2",
        "control-message sizes and batching",
        "\"the only communication from the top-level node is a short \
         message, at most tens of bytes\"; \"several messages can be \
         buffered and sent at once\"",
    );
    let ctx = OdinContext::with_workers(4);

    // --- sizes of real control commands issued by a realistic pipeline ---
    ctx.reset_stats();
    let x = ctx.random(&[1_000_000], 1);
    let y = ctx.linspace(0.0, 1.0, 1_000_000);
    let z = &(&x * &y) + 2.0;
    let s = z.sqrt();
    let _sum = s.sum();
    let _sl = s.slice1(10, Some(-10), 3);
    let st = ctx.stats();
    println!("pipeline of create/ufunc/slice/reduce on n = 1e6:");
    println!("  control messages      : {}", st.ctrl_msgs);
    println!(
        "  mean size             : {:.1} bytes",
        st.mean_ctrl_bytes()
    );
    println!("  total control traffic : {} bytes", st.ctrl_bytes);
    println!(
        "  claim 'tens of bytes' : {}",
        if st.mean_ctrl_bytes() < 100.0 {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );

    // --- batching: 2000 commands, buffered vs one-by-one -----------------
    let n_cmds = 2000usize;
    let a = ctx.zeros(&[64], DType::F64);
    let (_, t_unbatched) = timed(|| {
        for _ in 0..n_cmds {
            let _ = a.binary_scalar(1.0, odin::BinOp::Add, false);
        }
        ctx.barrier();
    });
    let (_, t_batched) = timed(|| {
        ctx.begin_batch();
        for _ in 0..n_cmds {
            let _ = a.binary_scalar(1.0, odin::BinOp::Add, false);
        }
        ctx.flush_batch();
        ctx.barrier();
    });
    println!("\nissuing {n_cmds} small ufunc commands (n = 64 per array):");
    println!("  one channel send each : {}", fmt_s(t_unbatched));
    println!("  batched (one send)    : {}", fmt_s(t_batched));
    println!("  speedup               : {:.2}x", t_unbatched / t_batched);
    drop((x, y, z, s, a));

    // --- per-command encoded sizes (ground truth for the table) ----------
    println!("\nencoded sizes of representative commands:");
    use odin::protocol::{ArrayMeta, Cmd, Fill};
    let meta = ArrayMeta {
        shape: vec![1_000_000_000],
        axis: 0,
        dist: Dist::Block,
        dtype: DType::F64,
    };
    let v = ctx.linspace(0.0, 1.0, 64);
    let w = ctx.linspace(1.0, 2.0, 64);
    let samples: Vec<(&str, usize)> = vec![
        (
            "Create(random, n=1e9)",
            comm::encode_to_vec(&Cmd::Create {
                id: 42,
                meta,
                fill: Fill::Random { seed: 7 },
            })
            .len(),
        ),
        ("eager sqrt(v)", launch_bytes(&ctx, || v.sqrt())),
        ("eager v * 2.5", launch_bytes(&ctx, || &v * 2.5)),
        ("eager v + w", launch_bytes(&ctx, || &v + &w)),
        (
            "Reduce(sum)",
            comm::encode_to_vec(&Cmd::Reduce {
                a: 44,
                kind: odin::ReduceKind::Sum,
                axis: None,
                out: 0,
            })
            .len(),
        ),
        ("Free", comm::encode_to_vec(&Cmd::Free { id: 44 }).len()),
    ];
    for (name, bytes) in samples {
        println!("  {name:<24} {bytes:>3} bytes");
        assert!(bytes <= 64);
    }
}

/// Bytes per control message of one warm eager ufunc: the op runs once
/// to register its kernel, then a second issue is measured off the
/// context's control counters — one kernel launch per worker.
fn launch_bytes<'c>(ctx: &'c OdinContext, op: impl Fn() -> odin::DistArray<'c>) -> usize {
    let _warm = op();
    let before = ctx.stats();
    let _out = op();
    let after = ctx.stats();
    assert_eq!(
        after.ctrl_msgs - before.ctrl_msgs,
        ctx.n_workers() as u64,
        "a warm eager ufunc is one launch per worker"
    );
    ((after.ctrl_bytes - before.ctrl_bytes) / (after.ctrl_msgs - before.ctrl_msgs)) as usize
}
