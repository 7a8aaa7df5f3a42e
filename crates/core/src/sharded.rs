//! Sharded aggregation tree with a replicated root — the hierarchical
//! deployment of the distributed trainer (DESIGN.md §15).
//!
//! The flat star of [`crate::distributed`] gathers every device at one
//! server. This module partitions the fleet into shards via a
//! [`ShardMap`]; each shard is owned by a **regional aggregator** whose
//! request loop drives the flat star's barrier gather strategy over its
//! devices and pushes one `PartialSum` frame per round up to the root.
//! The root is the crate's one consensus driver over a tree-root strategy:
//! it folds the partials **in fixed shard order** and commits the consensus
//! update back down the tree.
//!
//! # Bit-parity with the flat path
//!
//! Every server-side reduction in the flat path is an exact
//! superaccumulator fold ([`ExactVecSum`] / [`ExactSum`]), which is
//! associative over any grouping of its addends. A regional partial sum
//! followed by a root-side merge is therefore *the same bits* as the flat
//! loop, at any shard count — including empty and singleton shards. The
//! `tests/shard_parity.rs` battery enforces this with model-digest
//! equality.
//!
//! # Replicated root
//!
//! The root runs `R` replicas (deterministic state slots). A seeded
//! election picks the leader; at the start of every aggregation round the
//! leader anti-entropy-syncs its encoded [`ConsensusState`] (bound to the
//! shard map and term by its tree section) to the other replicas by digest
//! comparison. A [`FaultPlan::with_root_kill`] kills the leader at the
//! mid-round seam — partials gathered, fold not yet committed. The next
//! elected replica adopts the synced state, re-issues the round, and the
//! regionals replay their cached partials (idempotent re-reply), so the
//! failed-over run commits bit-identical state. When every replica is dead
//! the run fails with the typed [`CoreError::RootQuorumLost`].

use crate::checkpoint;
use crate::config::FaultTolerance;
use crate::consensus::{self, Driver, Gather, Partial};
use crate::distributed::{
    report, Barrier, DistributedPlos, DistributedReport, Fleet, RoundParticipation, Tally,
    POLL_SLICE,
};
use crate::error::CoreError;
use crate::model::PersonalizedModel;
use crate::wire_u32;
use plos_ckpt::{fnv1a, CheckpointFile, CkptError, ConsensusState, TreeSection, KIND_CONSENSUS};
use plos_linalg::{ExactSum, ExactVecSum, Vector};
use plos_net::shard::{PHASE_ADMM, PHASE_INIT, PHASE_REFINE};
use plos_net::{
    run_tree, ClientExit, Endpoint, FaultPlan, FaultyEndpoint, Message, ShardMap, TransportError,
};
use plos_sensing::dataset::MultiUserDataset;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Most root replicas a spec may ask for — beyond a handful the extra
/// copies only slow anti-entropy without adding failover coverage.
pub const MAX_ROOT_REPLICAS: usize = 8;

/// How long a tree node waits for its peer before declaring the link dead.
/// Generous: it only bounds genuine silence, never the happy path.
const TREE_DEADLINE: Duration = Duration::from_secs(120);

/// How often the root re-sends an unanswered request frame. Re-sends are
/// idempotent — regionals replay their cached reply for a repeated round.
const TREE_RESEND: Duration = Duration::from_millis(500);

/// Aggregation topology for [`DistributedPlos`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Topology {
    /// Single-level star: the server gathers every device directly.
    #[default]
    Flat,
    /// Two-level tree: regional aggregators own device shards and a
    /// replicated root folds their partial sums.
    Sharded(ShardSpec),
}

/// Shape of the sharded aggregation tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of shards (regional aggregators).
    pub shards: usize,
    /// Root replicas (1..=[`MAX_ROOT_REPLICAS`]); 3 by default.
    pub replicas: usize,
    /// Explicit device→shard assignment; contiguous blocks when `None`.
    pub assignment: Option<Vec<usize>>,
}

impl ShardSpec {
    /// A contiguous-block spec with `shards` shards and 3 root replicas.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        ShardSpec { shards, replicas: 3, assignment: None }
    }

    /// Overrides the root replica count.
    #[must_use]
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Pins an explicit device→shard assignment (`assignment[t]` is the
    /// shard of device `t`); empty and singleton shards are legal.
    #[must_use]
    pub fn with_assignment(mut self, assignment: Vec<usize>) -> Self {
        self.assignment = Some(assignment);
        self
    }
}

/// A regional aggregator body, boxed for [`plos_net::run_tree`]: consumes
/// its root-side uplink and returns the shard's final state.
type RegionThunk<'env> = Box<dyn FnOnce(Endpoint) -> Result<RegionFinal, CoreError> + Send + 'env>;

/// What a regional aggregator hands back through the tree scaffold when
/// the run shuts down.
struct RegionFinal {
    /// Global device ids of this shard, in local slot order.
    devices: Vec<usize>,
    /// Final per-device hyperplanes, in local slot order.
    w_ts: Vec<Vector>,
    /// Liveness at shutdown, in local slot order.
    alive: Vec<bool>,
    tally: Tally,
    /// Regional fold time (part of the run's server-side compute).
    compute: Duration,
}

/// One root replica: a deterministic state slot holding the last
/// anti-entropy-synced state encoding.
struct Replica {
    alive: bool,
    state: Option<Vec<u8>>,
    digest: u64,
}

/// splitmix64 — the seeded rank function of the leader election.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The tree-root gather strategy: leader/replica bookkeeping plus the
/// fault-wrapped links down to the regional aggregators, which answer each
/// round with exact partial sums and apply the u-updates on commit.
struct Root<'a> {
    links: Vec<FaultyEndpoint<'a>>,
    plan: &'a FaultPlan,
    seed: u64,
    fingerprint: u64,
    shard_fingerprint: u64,
    replicas: Vec<Replica>,
    leader: usize,
    term: u32,
    /// Cohort size the devices currently believe (for `RosterUpdate`s).
    announced: usize,
    /// Live cohort of the last gathered round.
    cohort: usize,
    /// Cohort, Σ‖v_t‖² and Σξ_t of the last committed ADMM round.
    objective: (usize, ExactSum, ExactSum),
    tally: Tally,
}

impl<'a> Root<'a> {
    fn new(
        uplinks: &'a [Endpoint],
        plan: &'a FaultPlan,
        seed: u64,
        t_count: usize,
        replicas: usize,
        fingerprint: u64,
        shard_fingerprint: u64,
    ) -> Self {
        // Tree links get their own fault streams, keyed past the device
        // index space so device and tree faults never alias.
        let links = uplinks
            .iter()
            .enumerate()
            .map(|(s, end)| FaultyEndpoint::new(end, plan.link_faults(t_count + s)))
            .collect();
        let replicas: Vec<Replica> =
            (0..replicas).map(|_| Replica { alive: true, state: None, digest: 0 }).collect();
        let mut root = Root {
            links,
            plan,
            seed,
            fingerprint,
            shard_fingerprint,
            replicas,
            leader: 0,
            term: 0,
            announced: t_count,
            cohort: t_count,
            objective: (t_count, ExactSum::new(), ExactSum::new()),
            tally: Tally::default(),
        };
        root.leader = root.elect().unwrap_or(0);
        root
    }

    /// Seeded deterministic election: the live replica with the highest
    /// splitmix64 rank for this term wins (index breaks exact ties).
    fn elect(&self) -> Option<usize> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.alive)
            .max_by_key(|&(i, _)| {
                (
                    splitmix64(
                        self.seed
                            ^ u64::from(self.term).wrapping_mul(0xd6e8_feb8_6659_fd93)
                            ^ (i as u64).wrapping_mul(0xa076_1d64_78bd_642f),
                    ),
                    i,
                )
            })
            .map(|(i, _)| i)
    }

    /// Sends one frame per regional link; a dead tree link is fatal.
    fn send_all(&mut self, make: &dyn Fn(usize) -> Message) -> Result<(), CoreError> {
        for (s, link) in self.links.iter_mut().enumerate() {
            if link.send(&make(s)).is_err() {
                return Err(CoreError::Transport {
                    detail: format!("regional aggregator {s} disconnected"),
                });
            }
        }
        Ok(())
    }

    /// Receives one in-round reply from shard `s`, re-sending `request`
    /// on prolonged silence; stale-round frames are discarded by tag.
    fn collect_one(
        &mut self,
        s: usize,
        round: u32,
        request: &Message,
        want_residual: bool,
    ) -> Result<Message, CoreError> {
        // plos-lint: allow(D2): tree retry-window/deadline plumbing only
        let started = Instant::now();
        let deadline = started + TREE_DEADLINE;
        let mut resend_at = started + TREE_RESEND;
        loop {
            let Some(link) = self.links.get_mut(s) else {
                return Err(CoreError::Protocol { detail: format!("no tree link for shard {s}") });
            };
            match link.recv_timeout(POLL_SLICE * 25) {
                Ok(msg) => {
                    let matches = match &msg {
                        Message::PartialSum { shard, round: r, .. } => {
                            !want_residual && *shard as usize == s && *r == round
                        }
                        Message::ShardResidual { shard, round: r, .. } => {
                            want_residual && *shard as usize == s && *r == round
                        }
                        _ => false,
                    };
                    if matches {
                        return Ok(msg);
                    }
                    let tally = &mut self.tally;
                    match msg {
                        Message::PartialSum { round: r, .. }
                        | Message::ShardResidual { round: r, .. }
                            if r != round =>
                        {
                            tally.late_discards = tally.late_discards.saturating_add(1);
                        }
                        _ => tally.protocol_errors = tally.protocol_errors.saturating_add(1),
                    }
                }
                Err(TransportError::Timeout | TransportError::Codec(_)) => {
                    // plos-lint: allow(D2): tree retry-window/deadline plumbing only
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(CoreError::Transport {
                            detail: format!("shard {s} went silent in round {round}"),
                        });
                    }
                    if now >= resend_at {
                        resend_at = now + TREE_RESEND;
                        let _ = link.send(request);
                    }
                }
                Err(TransportError::Disconnected) => {
                    return Err(CoreError::Transport {
                        detail: format!("regional aggregator {s} disconnected in round {round}"),
                    });
                }
            }
        }
    }

    /// Collects one `PartialSum` per shard and merges them in fixed shard
    /// order — the exact accumulator makes the grouping irrelevant.
    fn collect_partials(
        &mut self,
        round: u32,
        phase: u8,
        w0: &Vector,
    ) -> Result<Partial, CoreError> {
        let mut merged = Partial { n: 0, m: 0, sum: ExactVecSum::zeros(w0.len()) };
        for s in 0..self.links.len() {
            let request = Message::ShardBroadcast { round, phase, w0: w0.clone() };
            if let Message::PartialSum { n, m, sum_w, .. } =
                self.collect_one(s, round, &request, false)?
            {
                merged.n += n as usize;
                merged.m += m as usize;
                merged.sum.merge(&sum_w).map_err(|e| CoreError::Protocol {
                    detail: format!("shard partial has wrong shape: {e}"),
                })?;
            }
        }
        Ok(merged)
    }

    /// Commits `w0` for `phase` down the tree and merges the shards'
    /// residual/objective partials in fixed shard order, then tells every
    /// shard (and through them every device) a shrunk cohort size.
    fn commit_phase(
        &mut self,
        round: u32,
        phase: u8,
        w0: &Vector,
    ) -> Result<[ExactSum; 3], CoreError> {
        self.send_all(&|_s| Message::ShardCommit { round, phase, w0: w0.clone() })?;
        let mut merged = [ExactSum::new(), ExactSum::new(), ExactSum::new()];
        for s in 0..self.links.len() {
            let request = Message::ShardCommit { round, phase, w0: w0.clone() };
            if let Message::ShardResidual { a, b, c, .. } =
                self.collect_one(s, round, &request, true)?
            {
                for (acc, part) in merged.iter_mut().zip([a, b, c]) {
                    acc.merge(&part);
                }
            }
        }
        self.publish_cohort()?;
        Ok(merged)
    }

    /// Anti-entropy: ships the leader's start-of-round state to every live
    /// replica whose digest disagrees.
    fn sync_replicas(&mut self, state: &ConsensusState) {
        let tree = TreeSection { shard_fingerprint: self.shard_fingerprint, term: self.term };
        let bytes = ConsensusState { tree: Some(tree), ..state.clone() }.encode().encode();
        let digest = fnv1a(&bytes);
        let mut synced = 0usize;
        let mut live = 0usize;
        for replica in self.replicas.iter_mut().filter(|r| r.alive) {
            live += 1;
            if replica.digest != digest {
                replica.state = Some(bytes.clone());
                replica.digest = digest;
                synced += 1;
            }
        }
        if synced > 0 {
            plos_obs::emit(
                "anti_entropy",
                &[
                    ("round", state.round.into()),
                    ("synced", synced.into()),
                    ("replicas", live.into()),
                ],
            );
        }
    }

    /// Kills the leader at the mid-round seam and fails over: the next
    /// elected replica adopts the state synced at the start of this very
    /// round.
    fn failover(&mut self, state: &mut ConsensusState, round: u32) -> Result<(), CoreError> {
        let dead = self.leader;
        if let Some(slot) = self.replicas.get_mut(dead) {
            slot.alive = false;
        }
        self.term += 1;
        let Some(next) = self.elect() else {
            return Err(CoreError::RootQuorumLost { round, replicas: self.replicas.len() });
        };
        self.leader = next;
        plos_obs::emit(
            "failover",
            &[
                ("round", round.into()),
                ("term", self.term.into()),
                ("from", dead.into()),
                ("to", next.into()),
            ],
        );
        if let Some(bytes) = self.replicas.get(next).and_then(|r| r.state.as_deref()) {
            let st = ConsensusState::decode(&CheckpointFile::decode(bytes)?)?;
            checkpoint::check_fingerprint(st.fingerprint, self.fingerprint)?;
            let malformed = |detail: String| CoreError::Ckpt(CkptError::Malformed { detail });
            if st.tree.map(|t| t.shard_fingerprint) != Some(self.shard_fingerprint) {
                return Err(malformed("replica state binds a different shard map".to_string()));
            }
            if st.round != state.round {
                return Err(malformed(format!(
                    "replica state is for round {} but round {} is in flight",
                    st.round, state.round
                )));
            }
            *state = ConsensusState { tree: None, ..st };
        }
        Ok(())
    }

    /// Tells every shard (and through them, every device) the shrunk
    /// cohort size, mirroring the flat path's `RosterUpdate` publication.
    fn publish_cohort(&mut self) -> Result<(), CoreError> {
        if self.cohort != self.announced {
            self.announced = self.cohort;
            let t_count = wire_u32(self.cohort);
            self.send_all(&move |_s| Message::RosterUpdate { t_count })?;
        }
        Ok(())
    }
}

impl Gather for Root<'_> {
    /// One full gather: start-of-round anti-entropy, request, collect, then
    /// the kill seam — every leader kill the plan scheduled for `round`
    /// fails over, and the new leader re-issues the round so the regionals
    /// replay their cached partials.
    fn gather(
        &mut self,
        state: &mut ConsensusState,
        phase: u8,
        round: u32,
    ) -> Result<Option<Partial>, CoreError> {
        self.sync_replicas(state);
        let w0 = state.w0.clone();
        self.send_all(&|_s| Message::ShardBroadcast { round, phase, w0: w0.clone() })?;
        let mut partial = self.collect_partials(round, phase, &w0)?;
        for _ in 0..self.plan.root_kills_at(round) {
            self.failover(state, round)?;
            partial = self.collect_partials(round, phase, &state.w0)?;
        }
        self.cohort = partial.n;
        plos_obs::emit(
            "shard_round",
            &[
                ("round", round.into()),
                ("phase", u64::from(phase).into()),
                ("shards", self.links.len().into()),
                ("cohort", partial.n.into()),
                ("leader", self.leader.into()),
                ("term", self.term.into()),
            ],
        );
        if phase == PHASE_INIT {
            self.objective.0 = partial.n.max(1);
            self.publish_cohort()?;
        }
        Ok(Some(partial))
    }

    fn commit(&mut self, round: u32, w0: &Vector) -> Result<ExactSum, CoreError> {
        let [primal, obj_v, obj_xi] = self.commit_phase(round, PHASE_ADMM, w0)?;
        self.objective = (self.cohort, obj_v, obj_xi);
        Ok(primal)
    }

    fn objective(&mut self) -> (usize, ExactSum, ExactSum) {
        self.objective.clone()
    }

    fn refine_terms(&mut self, round: u32, w0: &Vector) -> Result<(ExactSum, ExactSum), CoreError> {
        let [dist, obj_xi, _] = self.commit_phase(round, PHASE_REFINE, w0)?;
        Ok((dist, obj_xi))
    }

    fn enter_cccp(&mut self, cccp_round: u32, advance: bool) -> Result<(), CoreError> {
        if advance {
            self.send_all(&move |_s| Message::CccpAdvance { cccp_round })?;
        }
        Ok(())
    }

    fn round_event(&self, round: u32, primal: f64, dual: f64) {
        plos_obs::emit(
            "admm_round",
            &[
                ("round", round.into()),
                ("primal_residual", primal.into()),
                ("dual_residual", dual.into()),
                ("cohort", self.cohort.into()),
            ],
        );
    }

    fn finish(&mut self) -> Result<(), CoreError> {
        self.send_all(&|_s| Message::Shutdown)
    }
}

/// The regional aggregator: a request loop over the barrier gather of its
/// shard. It answers the root's request frames with exact partial sums and
/// replays its cached reply when a failed-over leader re-issues a round.
fn region_loop(
    uplink: &Endpoint,
    shard: usize,
    devices: Vec<usize>,
    ends: Vec<Endpoint>,
    plan: &FaultPlan,
    ft: FaultTolerance,
    dim: usize,
) -> Result<RegionFinal, CoreError> {
    let shard_id = wire_u32(shard);
    // Device faults stay keyed by *global* device index, so a device's
    // fault stream is identical whichever shard (or the flat star) owns it.
    let links: Vec<FaultyEndpoint<'_>> = devices
        .iter()
        .zip(ends.iter())
        .map(|(&t, end)| FaultyEndpoint::new(end, plan.link_faults(t)))
        .collect();
    let mut region = Barrier::new(Fleet::with_ids(links, devices.clone()), ft, dim, false);
    // Idempotent replay caches: a failed-over leader re-issues the round it
    // was killed in, and the cached reply must be byte-identical.
    let mut last_partial: Option<(u32, Message)> = None;
    let mut last_residual: Option<(u32, Message)> = None;
    // plos-lint: allow(D2): root-silence deadline plumbing only
    let mut heard = Instant::now();

    loop {
        let msg = match uplink.recv_timeout(POLL_SLICE * 25) {
            Ok(msg) => {
                // plos-lint: allow(D2): root-silence deadline plumbing only
                heard = Instant::now();
                msg
            }
            Err(TransportError::Timeout | TransportError::Codec(_)) => {
                if heard.elapsed() > TREE_DEADLINE {
                    region.fleet.shutdown();
                    return Err(CoreError::Transport {
                        detail: format!("root went silent on shard {shard}"),
                    });
                }
                continue;
            }
            // Root exited (error path elsewhere): release the devices and
            // report what this shard has — the root's error is authoritative.
            Err(TransportError::Disconnected) => break,
        };
        let (cache, round, reply) = match msg {
            // A request whose `w0` is not the model dimension never reaches
            // the shard: counted, dropped, and left to the root's re-send.
            Message::ShardBroadcast { w0, .. } | Message::ShardCommit { w0, .. }
                if w0.len() != dim =>
            {
                let tally = &mut region.fleet.tally;
                tally.protocol_errors = tally.protocol_errors.saturating_add(1);
                continue;
            }
            Message::ShardBroadcast { round, phase, w0 } => {
                if replay(&last_partial, round, uplink) {
                    continue;
                }
                // An empty shard contributes the exact zero partial.
                let p = if devices.is_empty() {
                    Partial { n: 0, m: 0, sum: ExactVecSum::zeros(dim) }
                } else {
                    region.collect(phase, round, &w0)?
                };
                let sum_w = p.sum;
                let (n, m) = (wire_u32(p.n), wire_u32(p.m));
                (
                    &mut last_partial,
                    round,
                    Message::PartialSum { shard: shard_id, round, n, m, sum_w },
                )
            }
            Message::ShardCommit { round, phase, w0 } => {
                if replay(&last_residual, round, uplink) {
                    continue;
                }
                let (a, b, c) = if phase == PHASE_ADMM {
                    // Eq. (23)/(24) partials: u-updates plus the primal
                    // residual term, then the objective's v/ξ terms.
                    let primal = region.commit(round, &w0)?;
                    let (_, obj_v, obj_xi) = region.objective();
                    (primal, obj_v, obj_xi)
                } else {
                    // Refinement: distance-to-consensus and loss partials.
                    let (dist, obj_xi) = region.refine_terms(round, &w0)?;
                    (dist, obj_xi, ExactSum::new())
                };
                let (a, b, c) = (Box::new(a), Box::new(b), Box::new(c));
                (
                    &mut last_residual,
                    round,
                    Message::ShardResidual { shard: shard_id, round, a, b, c },
                )
            }
            Message::CccpAdvance { cccp_round } => {
                region.enter_cccp(cccp_round, true)?;
                continue;
            }
            Message::RosterUpdate { t_count } => {
                region.fleet.send_alive(&move |_t| Message::RosterUpdate { t_count });
                continue;
            }
            Message::Shutdown => break,
            _ => {
                let tally = &mut region.fleet.tally;
                tally.protocol_errors = tally.protocol_errors.saturating_add(1);
                continue;
            }
        };
        *cache = Some((round, reply.clone()));
        if uplink.send(&reply).is_err() {
            break;
        }
    }

    region.fleet.shutdown();
    Ok(RegionFinal {
        devices,
        w_ts: region.slots.w_ts,
        alive: region.fleet.alive,
        tally: region.fleet.tally,
        compute: region.compute,
    })
}

/// Re-sends a cached reply when the root re-issues its round (failover
/// replay), without touching the devices.
fn replay(cache: &Option<(u32, Message)>, round: u32, uplink: &Endpoint) -> bool {
    match cache {
        Some((r, reply)) if *r == round => {
            let _ = uplink.send(reply);
            true
        }
        _ => false,
    }
}

/// Trains over the two-level sharded tree. Entry point used by
/// [`DistributedPlos::fit_with_faults`] when [`Topology::Sharded`] is set.
pub(crate) fn fit_sharded(
    trainer: &DistributedPlos,
    dataset: &MultiUserDataset,
    plan: &FaultPlan,
    spec: &ShardSpec,
) -> Result<(PersonalizedModel, DistributedReport), CoreError> {
    let _span = plos_obs::Span::enter("sharded_fit");
    // plos-lint: allow(D2): wall_clock field of the report only
    let started = Instant::now();
    if trainer.ckpt.is_some() {
        return Err(CoreError::InvalidConfig {
            detail: "checkpointing is not supported on the sharded topology; \
                     its replicated root survives root failures instead"
                .to_string(),
        });
    }
    if spec.replicas == 0 || spec.replicas > MAX_ROOT_REPLICAS {
        return Err(CoreError::InvalidConfig {
            detail: format!("root replicas must be 1..={MAX_ROOT_REPLICAS}, got {}", spec.replicas),
        });
    }
    let cohort = consensus::prepare(&trainer.config, dataset, plan)?;
    let (t_count, dim) = (cohort.t_count, cohort.dim);
    let map = match &spec.assignment {
        Some(assignment) => ShardMap::from_assignment(assignment.clone(), spec.shards),
        None => ShardMap::contiguous(t_count, spec.shards),
    }
    .map_err(|e| CoreError::InvalidConfig { detail: format!("invalid shard map: {e}") })?;
    if map.len() != t_count {
        return Err(CoreError::InvalidConfig {
            detail: format!("shard map covers {} devices but the dataset has {t_count}", map.len()),
        });
    }
    let fingerprint = checkpoint::run_fingerprint(KIND_CONSENSUS, t_count, dim, &trainer.config);
    let shard_fingerprint = map.fingerprint();

    let num_shards = map.num_shards();
    let map_ref = &map;
    let (server_out, outcomes, panicked) =
        cohort.run(trainer.runtime, plan, None, |server_ends| {
            // Move each shard's device endpoints out of the star and into
            // its regional aggregator thread.
            let mut owned: Vec<Option<Endpoint>> = server_ends.drain(..).map(Some).collect();
            let regions: Vec<RegionThunk<'_>> = (0..num_shards)
                .map(|s| {
                    let devices = map_ref.devices_of(s);
                    let ends: Vec<Endpoint> = devices
                        .iter()
                        .filter_map(|&t| owned.get_mut(t).and_then(Option::take))
                        .collect();
                    let ft = trainer.fault_tolerance.clone();
                    Box::new(move |uplink: Endpoint| {
                        region_loop(&uplink, s, devices, ends, plan, ft, dim)
                    }) as RegionThunk<'_>
                })
                .collect();
            run_tree(regions, |uplinks| {
                let seed = trainer.config.seed;
                let replicas = spec.replicas;
                let mut root = Root::new(
                    uplinks,
                    plan,
                    seed,
                    t_count,
                    replicas,
                    fingerprint,
                    shard_fingerprint,
                );
                let driver = Driver::new(&trainer.config, None, fingerprint, dim);
                Ok::<_, CoreError>((driver.run(&mut root, None)?, root.tally))
            })
        })?;

    let (root_out, region_exits) = server_out;
    // A typed regional failure (quorum lost in a shard, device transport
    // collapse) explains the run better than the root's secondary
    // disconnect error, so surface it first.
    let mut regions: Vec<RegionFinal> = Vec::with_capacity(num_shards);
    let mut region_error: Option<CoreError> = None;
    for (s, exit) in region_exits.into_iter().enumerate() {
        let err = match exit {
            ClientExit::Finished(Ok(fin)) => {
                regions.push(fin);
                continue;
            }
            ClientExit::Finished(Err(err)) => err,
            ClientExit::Panicked(msg) => {
                CoreError::Protocol { detail: format!("regional aggregator {s} panicked: {msg}") }
            }
        };
        region_error.get_or_insert(err);
    }
    let (consensus, mut tally) = match root_out {
        Ok(root) => root,
        Err(err) => {
            return Err(match (&err, region_error) {
                // The root's own replica exhaustion is the primary fault.
                (CoreError::RootQuorumLost { .. }, _) => err,
                (_, Some(regional)) => regional,
                (_, None) => err,
            });
        }
    };
    if let Some(err) = region_error {
        return Err(err);
    }

    // Reassemble the global per-device view from the per-shard finals.
    let mut w_ts = vec![Vector::zeros(dim); t_count];
    let mut alive = vec![false; t_count];
    let mut by_round: BTreeMap<u32, RoundParticipation> = BTreeMap::new();
    let mut server_compute = Duration::ZERO;
    for fin in regions {
        for (local, &t) in fin.devices.iter().enumerate() {
            if let (Some(w_slot), Some(a_slot)) = (w_ts.get_mut(t), alive.get_mut(t)) {
                *w_slot = fin.w_ts.get(local).cloned().unwrap_or_else(|| Vector::zeros(dim));
                *a_slot = fin.alive.get(local).copied().unwrap_or(false);
            }
        }
        tally.evicted.extend(fin.tally.evicted);
        for p in fin.tally.participation {
            let entry = by_round.entry(p.round).or_insert(RoundParticipation {
                round: p.round,
                replied: 0,
                alive: 0,
                retries: 0,
            });
            entry.replied += p.replied;
            entry.alive += p.alive;
            entry.retries = entry.retries.saturating_add(p.retries);
        }
        tally.protocol_errors = tally.protocol_errors.saturating_add(fin.tally.protocol_errors);
        tally.late_discards = tally.late_discards.saturating_add(fin.tally.late_discards);
        server_compute += fin.compute;
    }
    tally.participation = by_round.into_values().collect();
    let model = consensus.model(&w_ts, &alive, trainer.config.bias);
    let report = report(consensus, tally, server_compute, &outcomes, panicked, started);
    Ok((model, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointPolicy;
    use crate::config::PlosConfig;
    use plos_sensing::dataset::LabelMask;
    use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};

    #[test]
    fn explicit_checkpointing_on_the_tree_is_rejected_before_training() {
        let spec =
            SyntheticSpec { num_users: 4, points_per_class: 10, max_rotation: 0.4, flip_prob: 0.0 };
        let data = generate_synthetic(&spec, 3).mask_labels(&LabelMask::providers(2, 0.2), 1);
        let dir = std::env::temp_dir().join(format!("plos-sharded-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let err = DistributedPlos::try_new(PlosConfig::fast())
            .unwrap()
            .with_checkpointing(CheckpointPolicy::new(&dir))
            .with_topology(Topology::Sharded(ShardSpec::new(2)))
            .fit(&data)
            .unwrap_err();
        assert!(
            matches!(&err, CoreError::InvalidConfig { detail } if detail.contains("sharded")),
            "got {err:?}"
        );
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "no snapshot may be written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_regional_counts_a_short_broadcast_and_forwards_nothing() {
        let (root, uplink) = Endpoint::pair();
        let (server, device) = Endpoint::pair();
        let short = Message::ShardBroadcast { round: 1, phase: PHASE_ADMM, w0: Vector::zeros(2) };
        root.send(&short).unwrap();
        root.send(&Message::Shutdown).unwrap();
        let plan = FaultPlan::none();
        let done = region_loop(&uplink, 0, vec![0], vec![server], &plan, FaultTolerance::fast(), 3)
            .unwrap();
        assert_eq!(done.tally.protocol_errors, 1);
        // The shard only ever saw the shutdown.
        assert_eq!(device.recv_timeout(Duration::from_millis(100)).unwrap(), Message::Shutdown);
        assert!(device.recv_timeout(Duration::from_millis(10)).is_err());
    }
}
