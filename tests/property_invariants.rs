//! Property-based tests over the invariants DESIGN.md calls out, spanning
//! crates: wire-format round-trips, QP feasibility, projection laws, window
//! coverage, and evaluation-metric bounds.

// Tests assert by panicking; the panic-free gate applies to library code
// only (see [workspace.lints] in the root Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
mod pg_oracle;

use pg_oracle::{project_capped_simplex, DenseQp};
use plos::linalg::{ExactSum, ExactVecSum, Matrix, Vector};
use plos::ml::matching::{best_matching_accuracy, hungarian_min_assignment};
use plos::net::codec::WIRE_VERSION;
use plos::net::{CodecError, Message, ShardMap};
use plos::opt::QpSolverOptions;
use plos::sensing::window::{samples_for_windows, sliding_windows};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn small_vec() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6..1e6f64, 0..20)
}

proptest! {
    #[test]
    fn message_round_trips_byte_exactly(
        round in 0u32..1000,
        user in 0u32..1000,
        w in small_vec(),
        v in small_vec(),
        xi in -1e9..1e9f64,
    ) {
        let msg = Message::ClientUpdate {
            round,
            user,
            w_t: Vector::from(w),
            v_t: Vector::from(v),
            xi_t: xi,
        };
        prop_assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn broadcast_round_trips(round in 0u32..1000, w in small_vec(), u in small_vec()) {
        let msg = Message::Broadcast {
            round,
            w0: Vector::from(w),
            u_t: Vector::from(u),
        };
        prop_assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn capped_simplex_projection_is_feasible_and_idempotent(
        mut x in prop::collection::vec(-10.0..10.0f64, 1..12),
        cap in 0.0..5.0f64,
    ) {
        project_capped_simplex(&mut x, cap);
        prop_assert!(x.iter().all(|&v| v >= 0.0));
        prop_assert!(x.iter().sum::<f64>() <= cap + 1e-9);
        let once = x.clone();
        project_capped_simplex(&mut x, cap);
        for (a, b) in once.iter().zip(&x) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn qp_solutions_are_feasible_and_no_worse_than_zero(
        diag in prop::collection::vec(0.1..5.0f64, 1..8),
        cap in 0.01..3.0f64,
    ) {
        let n = diag.len();
        let q = Matrix::from_diagonal(&diag);
        let b: Vector = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut qp = DenseQp { q, b, groups: vec![((0..n).collect(), cap)] }.incremental().unwrap();
        let stats = qp.solve(&QpSolverOptions::default());
        prop_assert!(qp.is_feasible(1e-8));
        // γ = 0 is feasible with objective 0; the optimum can only improve.
        prop_assert!(stats.objective <= 1e-12);
    }

    /// The panic-free contract: NaN anywhere in the linear term surfaces as
    /// `Err` while the QP is built, never as a panic or a silently wrong
    /// solution.
    #[test]
    fn qp_solve_reports_nan_input_as_error(
        diag in prop::collection::vec(0.1..5.0f64, 1..8),
        cap in 0.01..3.0f64,
        poison in 0usize..8,
    ) {
        let n = diag.len();
        let q = Matrix::from_diagonal(&diag);
        let mut b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        b[poison % n] = f64::NAN;
        let qp = DenseQp { q, b: Vector::from(b), groups: vec![((0..n).collect(), cap)] };
        prop_assert!(qp.incremental().is_err());
    }

    /// A wrong-dimension warm start is an `Err`, not a panic; a rejected warm
    /// start leaves the iterate alone, and the solved point is feasible.
    #[test]
    fn qp_warm_start_dimension_mismatch_is_an_error(
        diag in prop::collection::vec(0.1..5.0f64, 1..8),
        cap in 0.01..3.0f64,
        extra in 1usize..4,
    ) {
        let n = diag.len();
        let q = Matrix::from_diagonal(&diag);
        let b: Vector = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut qp = DenseQp { q, b, groups: vec![((0..n).collect(), cap)] }.incremental().unwrap();
        prop_assert!(qp.set_warm(&vec![0.0; n + extra]).is_err());
        // Non-finite warm starts are rejected the same way.
        prop_assert!(qp.set_warm(&vec![f64::NAN; n]).is_err());
        // The well-posed solve still runs from the untouched iterate, and
        // its point is feasible.
        prop_assert!(qp.gamma().iter().all(|&g| g == 0.0));
        let _ = qp.solve(&QpSolverOptions::default());
        prop_assert!(qp.is_feasible(1e-8));
    }

    #[test]
    fn sliding_windows_are_in_bounds_and_uniform(
        n in 1usize..500,
        window in 1usize..64,
        overlap in 0.0..0.9f64,
    ) {
        let windows = sliding_windows(n, window, overlap);
        for w in &windows {
            prop_assert!(w.end <= n);
            prop_assert_eq!(w.end - w.start, window);
        }
        // Count round-trips through samples_for_windows.
        if !windows.is_empty() {
            let needed = samples_for_windows(windows.len(), window, overlap);
            prop_assert!(needed <= n);
        }
    }

    #[test]
    fn hungarian_output_is_always_a_permutation(
        rows in prop::collection::vec(prop::collection::vec(0.0..100.0f64, 5), 5),
    ) {
        let perm = hungarian_min_assignment(&rows);
        let mut seen = [false; 5];
        for &j in &perm {
            prop_assert!(j < 5);
            prop_assert!(!seen[j]);
            seen[j] = true;
        }
    }

    #[test]
    fn matching_accuracy_is_within_bounds_and_label_invariant(
        assignment in prop::collection::vec(0usize..2, 2..30),
    ) {
        let classes: Vec<usize> = assignment.iter().map(|&c| c ^ 1).collect();
        let acc = best_matching_accuracy(&assignment, &classes);
        prop_assert!((0.0..=1.0).contains(&acc));
        // A relabeled copy of itself always matches perfectly.
        prop_assert!((acc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rotation_matrices_preserve_norms(
        yaw in -3.2..3.2f64,
        pitch in -1.5..1.5f64,
        roll in -3.2..3.2f64,
        x in prop::collection::vec(-10.0..10.0f64, 3),
    ) {
        let r = Matrix::rotation3d(yaw, pitch, roll);
        let v = Vector::from(x);
        let rotated = r.matvec(&v);
        prop_assert!((rotated.norm() - v.norm()).abs() < 1e-9);
    }

    // DESIGN.md §15: the bit-parity claim of the sharded aggregation tree
    // reduces to this algebraic property — partitioning a cohort's updates
    // into per-shard exact partial sums and merging them at the root in
    // shard order yields the *same bits* as the flat fixed-order fold, for
    // any partition (empty and singleton shards included) and any inputs,
    // signed zeros and subnormals included.
    #[test]
    fn sharded_partial_sums_fold_bitwise_identical_to_flat(
        raw_updates in prop::collection::vec(prop::collection::vec(0u64..u64::MAX, 4), 0..12),
        assignment_seed in prop::collection::vec(0usize..5, 0..12),
        shards in 1usize..5,
    ) {
        let updates: Vec<Vec<f64>> =
            raw_updates.iter().map(|row| row.iter().map(|&r| tricky_f64(r)).collect()).collect();
        let dim = 4;
        // Flat reference: one accumulator, fixed device order.
        let mut flat = ExactVecSum::zeros(dim);
        for w in &updates {
            flat.add(&Vector::from(w.clone()));
        }
        // Sharded: arbitrary partition, per-shard partials, merge in shard
        // order. Shards may be empty (identity partial) or singletons.
        let mut partials: Vec<ExactVecSum> =
            (0..shards).map(|_| ExactVecSum::zeros(dim)).collect();
        for (t, w) in updates.iter().enumerate() {
            let s = assignment_seed.get(t).copied().unwrap_or(t) % shards;
            partials[s].add(&Vector::from(w.clone()));
        }
        let mut root = ExactVecSum::zeros(dim);
        for p in &partials {
            root.merge(p).unwrap();
        }
        prop_assert_eq!(&root, &flat, "merged partials diverged from the flat fold");
        let root_bits: Vec<u64> =
            root.value().as_slice().iter().map(|v| v.to_bits()).collect();
        let flat_bits: Vec<u64> =
            flat.value().as_slice().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(root_bits, flat_bits);
    }

    // The scalar residual accumulators ship over the same tree; their
    // merge must be exact under sign cancellation too.
    #[test]
    fn scalar_partials_merge_exactly(
        raw_xs in prop::collection::vec(0u64..u64::MAX, 0..40),
        cut in 0usize..40,
    ) {
        let xs: Vec<f64> = raw_xs.iter().map(|&r| tricky_f64(r)).collect();
        let mut flat = ExactSum::new();
        for &x in &xs {
            flat.add(x);
        }
        let cut = cut.min(xs.len());
        let (lo, hi) = xs.split_at(cut);
        let mut left = ExactSum::new();
        for &x in lo {
            left.add(x);
        }
        let mut right = ExactSum::new();
        for &x in hi {
            right.add(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.value().to_bits(), flat.value().to_bits());
    }

    // Shard maps are total functions: every device lands in exactly one
    // shard, `devices_of` tiles the cohort, and the fingerprint pins the
    // partition (any reassignment changes it).
    #[test]
    fn shard_maps_partition_the_cohort(
        n in 0usize..40,
        shards in 1usize..9,
    ) {
        let map = ShardMap::contiguous(n, shards).unwrap();
        prop_assert_eq!(map.len(), n);
        prop_assert_eq!(map.num_shards(), shards);
        let mut seen = vec![false; n];
        for s in 0..shards {
            for t in map.devices_of(s) {
                prop_assert!(t < n);
                prop_assert!(!seen[t], "device {} assigned to two shards", t);
                seen[t] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b), "some device is unassigned");
    }
}

/// One random valid message of each of the twelve wire tags, in tag order:
/// rounds, users and counts below 4, vectors 0, `dim − 1`, `dim` or
/// `dim + 1` long over [`tricky_f64`] components, and exact sums whose
/// canonical encodings carry many limbs, negative limbs and, at times, an
/// infinity flag.
fn random_messages(rng: &mut StdRng, dim: usize) -> Vec<Message> {
    fn len(rng: &mut StdRng, dim: usize) -> usize {
        [0, dim - 1, dim, dim + 1][rng.gen_range(0..4usize)]
    }
    fn vector(rng: &mut StdRng, dim: usize) -> Vector {
        (0..len(rng, dim)).map(|_| tricky_f64(rng.gen())).collect()
    }
    fn sum(rng: &mut StdRng) -> Box<ExactSum> {
        let mut s = ExactSum::new();
        for _ in 0..rng.gen_range(0..4usize) {
            s.add(tricky_f64(rng.gen()));
        }
        if rng.gen_bool(0.5) {
            s.add(f64::NEG_INFINITY);
        }
        Box::new(s)
    }
    let small = |rng: &mut StdRng| rng.gen_range(0..4u32);
    let mut sum_w = ExactVecSum::zeros(len(rng, dim));
    for _ in 0..rng.gen_range(0..3usize) {
        let v: Vector = (0..sum_w.dim()).map(|_| tricky_f64(rng.gen())).collect();
        sum_w.add(&v);
    }
    vec![
        Message::Broadcast { round: small(rng), w0: vector(rng, dim), u_t: vector(rng, dim) },
        Message::ClientUpdate {
            round: small(rng),
            user: small(rng),
            w_t: vector(rng, dim),
            v_t: vector(rng, dim),
            xi_t: tricky_f64(rng.gen()),
        },
        Message::CccpAdvance { cccp_round: small(rng) },
        Message::Shutdown,
        Message::Refine { round: small(rng), w0: vector(rng, dim) },
        Message::RosterUpdate { t_count: small(rng) },
        Message::Restore { round: small(rng), t_count: small(rng), w_t: vector(rng, dim) },
        Message::AsyncUpdate {
            epoch: small(rng),
            basis: small(rng),
            user: small(rng),
            w_t: vector(rng, dim),
            v_t: vector(rng, dim),
            xi_t: tricky_f64(rng.gen()),
        },
        Message::ShardBroadcast {
            round: small(rng),
            phase: rng.gen_range(0..3u8),
            w0: vector(rng, dim),
        },
        Message::PartialSum {
            shard: small(rng),
            round: small(rng),
            n: small(rng),
            m: small(rng),
            sum_w,
        },
        Message::ShardCommit {
            round: small(rng),
            phase: rng.gen_range(0..3u8),
            w0: vector(rng, dim),
        },
        Message::ShardResidual {
            shard: small(rng),
            round: small(rng),
            a: sum(rng),
            b: sum(rng),
            c: sum(rng),
        },
    ]
}

/// `None` when `frame` is rejected with a typed error, or decodes to a
/// message that re-encodes to exactly `frame` and whose exact sums render
/// without panicking; otherwise the offending message.
fn non_canonical(frame: &[u8]) -> Option<Message> {
    let message: Result<Message, CodecError> = Message::decode(frame.to_vec().into());
    let message = message.ok()?;
    match &message {
        Message::PartialSum { sum_w, .. } => drop(sum_w.value()),
        Message::ShardResidual { a, b, c, .. } => drop([a.value(), b.value(), c.value()]),
        _ => {}
    }
    (message.encode().to_vec() != frame).then_some(message)
}

#[test]
fn every_tag_decodes_canonically_under_mutation() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut frames = Vec::new();
    for _ in 0..4 {
        let messages = random_messages(&mut rng, 3);
        let tags: Vec<u8> = messages.iter().map(|m| m.encode().to_vec()[1]).collect();
        assert_eq!(tags, [1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13], "one frame per wire tag");
        frames.extend(messages);
    }
    let mut checked = 0usize;
    for message in &frames {
        let frame = message.encode().to_vec();
        assert_eq!(non_canonical(&frame), None, "sample {message:?}");
        let mut mutants: Vec<Vec<u8>> = Vec::new();
        for bit in 0..frame.len() * 8 {
            let mut flipped = frame.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            mutants.push(flipped);
        }
        mutants.extend((0..frame.len()).map(|cut| frame[..cut].to_vec()));
        mutants.push([frame.as_slice(), &[0]].concat());
        for _ in 0..500 {
            let len = rng.gen_range(0..=2 * frame.len());
            let body = (0..len).map(|_| rng.gen_range(0..=u8::MAX));
            mutants.push(frame[..2].iter().copied().chain(body).collect());
        }
        for mutant in &mutants {
            if let Some(decoded) = non_canonical(mutant) {
                panic!("{mutant:02x?} decoded to {decoded:?}, which re-encodes differently");
            }
        }
        checked += mutants.len();
    }
    assert!(checked > 40_000, "only {checked} mutated frames");
    // Tag 8 carried the retired asynchronous assignment frame.
    for len in [0, 8, 64] {
        let body = (0..len).map(|_| rng.gen_range(0..=u8::MAX));
        let frame: Vec<u8> = [WIRE_VERSION, 8].into_iter().chain(body).collect();
        let err = Message::decode(frame.into()).unwrap_err();
        assert_eq!(err, CodecError::UnknownTag(8));
    }
}

/// Maps raw bits to an f64 biased toward the values that break naive
/// summation: signed zeros, subnormals, and magnitudes spanning ~600
/// orders.
fn tricky_f64(raw: u64) -> f64 {
    match raw % 8 {
        0..=2 => ((raw >> 12) as f64 / (1u64 << 51) as f64 - 1.0) * 1e9,
        3 => 0.0,
        4 => -0.0,
        5 => f64::MIN_POSITIVE / 8.0,
        6 => -f64::MIN_POSITIVE * (((raw >> 8) % 100) as f64) / 64.0,
        _ => {
            if raw & 0x100 == 0 {
                1e300
            } else {
                -1e300
            }
        }
    }
}
