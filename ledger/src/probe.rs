//! Timed calls into public layer functions, run in the traced trial after
//! the fit. Each probe times batches of calls and reports the median batch
//! divided by the batch size, so one descheduled batch does not move it.

use crate::stats::Summary;
use plos_exec::Pool;
use plos_linalg::Vector;
use plos_net::Message;
use std::hint::black_box;
use std::time::Instant;

/// Median over `batches` of the time of `per_batch` calls of `f`, per call,
/// in seconds.
fn per_call(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..batches)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            started.elapsed().as_secs_f64() / per_batch as f64
        })
        .collect();
    Summary::of(&times).map_or(0.0, |s| s.median)
}

/// A deterministic non-trivial vector of length `dim`.
fn filled(dim: usize, salt: f64) -> Vector {
    (0..dim).map(|i| ((i as f64 + salt) * 0.618).sin()).collect()
}

/// Runs every probe; `dim` is the model dimension of the workload and
/// `dot_dim` the largest QP the trial solved.
pub fn run(dim: usize, dot_dim: usize) -> Vec<(&'static str, f64)> {
    let broadcast = Message::Broadcast { round: 7, w0: filled(dim, 1.0), u_t: filled(dim, 2.0) };
    let update = Message::ClientUpdate {
        round: 7,
        user: 3,
        w_t: filled(dim, 3.0),
        v_t: filled(dim, 4.0),
        xi_t: 0.25,
    };
    let frames = [broadcast.encode(), update.encode()];
    let encode_s = per_call(100, 100, || {
        black_box(black_box(&broadcast).encode());
        black_box(black_box(&update).encode());
    }) / 2.0;
    let decode_s = per_call(100, 100, || {
        for frame in &frames {
            let _ = black_box(Message::decode(black_box(frame.clone())));
        }
    }) / 2.0;

    let pool_current_s = per_call(50, 200, || {
        black_box(Pool::current());
    });
    let threads = Pool::current().threads();
    let items = vec![0_u64; threads];
    let fork_join_s = per_call(30, 10, || {
        black_box(Pool::current().par_map(black_box(&items), |_, x| *x));
    });

    let a = filled(dot_dim.max(1), 5.0);
    let b = filled(dot_dim.max(1), 6.0);
    let dot_s = per_call(50, 1000, || {
        black_box(plos_linalg::kernels::dot(black_box(a.as_slice()), black_box(b.as_slice())));
    });

    vec![
        ("net.codec.encode_us", encode_s * 1e6),
        ("net.codec.decode_us", decode_s * 1e6),
        ("exec.pool_current_us", pool_current_s * 1e6),
        ("exec.fork_join_us", fork_join_s * 1e6),
        ("linalg.kernels.dot_ns", dot_s * 1e9),
    ]
}
