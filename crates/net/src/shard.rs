//! Two-level sharded aggregation tree.
//!
//! One server gathering every endpoint bounds the fleet at a single gather
//! loop. Because the w0/u_t consensus updates of Algorithm 2 are plain
//! sums, aggregation splits exactly: devices are partitioned into shards
//! by a [`ShardMap`], each shard is owned by a **regional aggregator**
//! that runs the ordinary gather/retry/quorum machinery over its devices,
//! and the regionals push [`crate::Message::PartialSum`] frames — exact
//! limb-level accumulators, not folded `f64`s — up to a root that merges
//! them in fixed shard order. Merging exact accumulators is associative,
//! so the tree's result is bit-identical to the flat single-server fold
//! at any shard count (`tests/shard_parity.rs` proves the full matrix).
//!
//! [`run_tree`] is the execution shell: one scoped OS thread per regional
//! aggregator, the root on the calling thread. Regionals are
//! *infrastructure* (a handful of nodes), not devices, so a thread apiece
//! is the right cost model even though the devices themselves run
//! multiplexed.

use crate::node::{panic_text, ClientExit};
use crate::transport::Endpoint;
use std::fmt;

/// Tree phase: averaging the providers' initial hyperplanes (Algorithm 2
/// step 1).
pub const PHASE_INIT: u8 = 0;
/// Tree phase: one ADMM consensus round (Eq. 23/24).
pub const PHASE_ADMM: u8 = 1;
/// Tree phase: multi-start refinement against the final `w0`.
pub const PHASE_REFINE: u8 = 2;

/// A malformed shard partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMapError {
    /// A shard map needs at least one shard.
    NoShards,
    /// A device was assigned to a shard index outside the map.
    ShardOutOfRange {
        /// The offending device index.
        device: usize,
        /// The shard it was assigned to.
        shard: usize,
        /// Number of shards in the map.
        num_shards: usize,
    },
}

impl fmt::Display for ShardMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardMapError::NoShards => write!(f, "a shard map needs at least one shard"),
            ShardMapError::ShardOutOfRange { device, shard, num_shards } => write!(
                f,
                "device {device} assigned to shard {shard}, but the map has {num_shards} shards"
            ),
        }
    }
}

impl std::error::Error for ShardMapError {}

/// A total assignment of devices to shards.
///
/// Every device belongs to exactly one shard; shards may be empty (an
/// empty shard contributes an identity partial to the root's fold). The
/// map's [`fingerprint`](ShardMap::fingerprint) binds checkpoints and
/// anti-entropy digests to the partition they were produced under, so a
/// resumed or failed-over root can never silently fold partials from a
/// different partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// `assignment[t]` is the shard owning device `t`.
    assignment: Vec<usize>,
    /// Total number of shards (may exceed the largest used index).
    num_shards: usize,
}

impl ShardMap {
    /// Partitions `t_count` devices into `num_shards` contiguous blocks,
    /// the first `t_count % num_shards` blocks one device larger.
    ///
    /// # Errors
    ///
    /// Returns [`ShardMapError::NoShards`] when `num_shards == 0`.
    pub fn contiguous(t_count: usize, num_shards: usize) -> Result<ShardMap, ShardMapError> {
        if num_shards == 0 {
            return Err(ShardMapError::NoShards);
        }
        let base = t_count / num_shards;
        let rem = t_count % num_shards;
        let mut assignment = Vec::with_capacity(t_count);
        for s in 0..num_shards {
            let size = base + usize::from(s < rem);
            assignment.extend(std::iter::repeat_n(s, size));
        }
        Ok(ShardMap { assignment, num_shards })
    }

    /// Builds a map from an explicit device→shard assignment.
    ///
    /// # Errors
    ///
    /// Returns [`ShardMapError::NoShards`] when `num_shards == 0` and
    /// [`ShardMapError::ShardOutOfRange`] when any entry names a shard
    /// outside `0..num_shards`.
    pub fn from_assignment(
        assignment: Vec<usize>,
        num_shards: usize,
    ) -> Result<ShardMap, ShardMapError> {
        if num_shards == 0 {
            return Err(ShardMapError::NoShards);
        }
        for (device, &shard) in assignment.iter().enumerate() {
            if shard >= num_shards {
                return Err(ShardMapError::ShardOutOfRange { device, shard, num_shards });
            }
        }
        Ok(ShardMap { assignment, num_shards })
    }

    /// Number of devices in the map.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// `true` when the map covers no devices.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The device→shard assignment, indexed by device.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// The devices owned by `shard`, in ascending global index order —
    /// the order regionals gather in, which keeps per-shard folds
    /// deterministic.
    pub fn devices_of(&self, shard: usize) -> Vec<usize> {
        self.assignment.iter().enumerate().filter(|&(_, &s)| s == shard).map(|(t, _)| t).collect()
    }

    /// Per-shard device counts, indexed by shard.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_shards];
        for &s in &self.assignment {
            if let Some(n) = sizes.get_mut(s) {
                *n += 1;
            }
        }
        sizes
    }

    /// FNV-1a digest over the shard count and assignment. Checkpoint
    /// sections and anti-entropy frames carry this value so state is never
    /// applied across different partitions.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: [u8; 8]| {
            for b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat((self.num_shards as u64).to_le_bytes());
        eat((self.assignment.len() as u64).to_le_bytes());
        for &s in &self.assignment {
            eat((s as u64).to_le_bytes());
        }
        h
    }
}

/// Runs each regional aggregator closure on its own scoped thread wired to
/// the root by a fresh duplex link, while `root_fn` plays the root on the
/// calling thread over the root-side endpoints (indexed by shard, i.e.
/// `ends[s]` talks to `regions[s]`). A panicking regional is captured as
/// [`ClientExit::Panicked`] rather than re-raised, its link drops, and the
/// root's quorum machinery decides the outcome.
///
/// Regions are boxed because each regional typically captures its own
/// shard-specific state (device endpoints, fault slices), so the closures
/// are heterogeneous values of one trait-object type.
pub fn run_tree<'env, R, T>(
    regions: Vec<Box<dyn FnOnce(Endpoint) -> R + Send + 'env>>,
    root_fn: impl FnOnce(&[Endpoint]) -> T,
) -> (T, Vec<ClientExit<R>>)
where
    R: Send + 'env,
{
    let mut root_ends = Vec::with_capacity(regions.len());
    let mut region_ends = Vec::with_capacity(regions.len());
    for _ in 0..regions.len() {
        let (root, region) = Endpoint::pair();
        root_ends.push(root);
        region_ends.push(region);
    }
    // plos-lint: allow(R2): regional aggregators are infrastructure nodes (a handful per tree), not devices; device-side scaling goes through MuxNetwork
    std::thread::scope(|scope| {
        let handles: Vec<_> = regions
            .into_iter()
            .zip(region_ends)
            .map(|(region_fn, endpoint)| scope.spawn(move || region_fn(endpoint)))
            .collect();
        let root_result = root_fn(&root_ends);
        // Drop the root endpoints so stray regionals see Disconnected
        // rather than hanging, then join, capturing panics per region.
        drop(root_ends);
        let region_results = handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => ClientExit::Finished(out),
                Err(payload) => ClientExit::Panicked(panic_text(payload.as_ref())),
            })
            .collect();
        (root_result, region_results)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;

    #[test]
    fn contiguous_blocks_cover_all_devices() {
        let map = ShardMap::contiguous(10, 4).unwrap();
        assert_eq!(map.len(), 10);
        assert_eq!(map.num_shards(), 4);
        // 10 = 3 + 3 + 2 + 2, first `rem` shards one larger.
        assert_eq!(map.sizes(), vec![3, 3, 2, 2]);
        assert_eq!(map.assignment(), &[0, 0, 0, 1, 1, 1, 2, 2, 3, 3]);
        // devices_of partitions 0..10 exactly.
        let mut all: Vec<usize> = (0..4).flat_map(|s| map.devices_of(s)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn contiguous_allows_more_shards_than_devices() {
        let map = ShardMap::contiguous(2, 5).unwrap();
        assert_eq!(map.sizes(), vec![1, 1, 0, 0, 0]);
        assert!(map.devices_of(4).is_empty());
    }

    #[test]
    fn single_shard_is_the_flat_partition() {
        let map = ShardMap::contiguous(7, 1).unwrap();
        assert_eq!(map.devices_of(0), (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn zero_shards_is_typed_error() {
        assert_eq!(ShardMap::contiguous(4, 0).unwrap_err(), ShardMapError::NoShards);
        assert_eq!(ShardMap::from_assignment(vec![], 0).unwrap_err(), ShardMapError::NoShards);
    }

    #[test]
    fn out_of_range_assignment_rejected() {
        let err = ShardMap::from_assignment(vec![0, 1, 2], 2).unwrap_err();
        assert_eq!(err, ShardMapError::ShardOutOfRange { device: 2, shard: 2, num_shards: 2 });
        assert!(err.to_string().contains("device 2"));
    }

    #[test]
    fn fingerprint_binds_partition_shape() {
        let a = ShardMap::contiguous(8, 2).unwrap();
        let b = ShardMap::contiguous(8, 4).unwrap();
        let c = ShardMap::from_assignment(vec![1, 0, 0, 1, 0, 1, 1, 0], 2).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Same partition → same digest, and empty trailing shards count.
        assert_eq!(a.fingerprint(), ShardMap::contiguous(8, 2).unwrap().fingerprint());
        let padded = ShardMap::from_assignment(a.assignment().to_vec(), 3).unwrap();
        assert_ne!(a.fingerprint(), padded.fingerprint());
    }

    #[test]
    fn tree_echo_round() {
        let regions: Vec<Box<dyn FnOnce(Endpoint) -> u32 + Send>> = (0..3)
            .map(|_| {
                Box::new(|endpoint: Endpoint| match endpoint.recv().unwrap() {
                    Message::CccpAdvance { cccp_round } => {
                        endpoint
                            .send(&Message::CccpAdvance { cccp_round: cccp_round * 2 })
                            .unwrap();
                        cccp_round
                    }
                    other => panic!("unexpected {other:?}"),
                }) as Box<dyn FnOnce(Endpoint) -> u32 + Send>
            })
            .collect();
        let (doubled, exits) = run_tree(regions, |ends| {
            for (s, end) in ends.iter().enumerate() {
                end.send(&Message::CccpAdvance { cccp_round: s as u32 + 1 }).unwrap();
            }
            ends.iter()
                .map(|end| match end.recv().unwrap() {
                    Message::CccpAdvance { cccp_round } => cccp_round,
                    other => panic!("unexpected {other:?}"),
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(doubled, vec![2, 4, 6]);
        let seen: Vec<u32> = exits.into_iter().map(|e| e.finished().unwrap()).collect();
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn panicking_region_is_captured_not_propagated() {
        let regions: Vec<Box<dyn FnOnce(Endpoint) -> &'static str + Send>> = vec![
            Box::new(|endpoint: Endpoint| {
                let _ = endpoint.recv();
                "ok"
            }),
            Box::new(|_endpoint: Endpoint| panic!("regional 1 poisoned")),
        ];
        let (root_out, exits) = run_tree(regions, |ends| {
            for end in ends {
                let _ = end.send(&Message::Shutdown);
            }
            "root survived"
        });
        assert_eq!(root_out, "root survived");
        assert_eq!(exits[0], ClientExit::Finished("ok"));
        assert!(exits[1].panic_message().unwrap().contains("poisoned"));
    }

    #[test]
    fn empty_tree_runs_root_only() {
        let (out, exits) = run_tree(Vec::<Box<dyn FnOnce(Endpoint) + Send>>::new(), |ends| {
            assert!(ends.is_empty());
            42
        });
        assert_eq!(out, 42);
        assert!(exits.is_empty());
    }
}
