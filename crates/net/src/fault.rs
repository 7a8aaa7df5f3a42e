//! Deterministic, seed-driven fault injection for the simulated network.
//!
//! Real mobile fleets lose packets, deliver them late or corrupted, and
//! phones disappear mid-round. [`FaultyEndpoint`] wraps an [`Endpoint`] and
//! injects exactly those failure modes, driven by a [`FaultPlan`]: per-link
//! rates plus a seed, so every chaos run is reproducible bit-for-bit at the
//! level of *which* frames are harmed. With the zero plan
//! ([`FaultPlan::none`]) the wrapper is a transparent pass-through — it
//! never touches its RNG — so fault-free runs are byte-identical to the
//! plain transport.
//!
//! The wrapper sits on the **server side** of each link and harms traffic in
//! both directions: faults rolled on [`FaultyEndpoint::send`] model lost or
//! mangled broadcasts, faults rolled on [`FaultyEndpoint::recv_timeout`]
//! model lost or mangled client updates.

use crate::message::Message;
use crate::metrics::TrafficStats;
use crate::transport::{Endpoint, TransportError};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// A link that permanently disconnects partway through a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadLink {
    /// Link (device) index in the star.
    pub link: usize,
    /// Server-side sends delivered before the link dies; `0` kills the
    /// device before it ever hears from the server.
    pub after_sends: u64,
}

/// A link whose device replies arbitrarily late: every frame the server
/// receives on this link is held back by a fixed lag. This is the paper's
/// asynchronous-scenario straggler ("some users may delay their responses
/// for arbitrarily long") as a deterministic fault, unlike the probabilistic
/// [`FaultPlan::with_delay`] jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Straggler {
    /// Link (device) index in the star.
    pub link: usize,
    /// Fixed hold-back applied to every received frame on the link.
    pub delay: Duration,
}

/// A device whose client-side protocol handler panics on receiving the
/// broadcast of a given round — an app crash mid-ADMM rather than a network
/// fault. Injection happens inside the device machine (the trainers consult
/// [`FaultPlan::panic_round`]), not on the wire, so the server first learns
/// of the crash the way it would in production: the link goes dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DevicePanic {
    /// Device (user) index in the star.
    pub device: usize,
    /// The crash fires on the first broadcast whose round (epoch) is at or
    /// after this. "At or after" rather than "equal": a bounded-staleness
    /// server may skip a device's assignment for an epoch entirely, and the
    /// planned crash must not silently fail to trigger because of it.
    pub round: u32,
}

/// Per-run chaos schedule: per-link fault rates plus the seed that makes the
/// injected fault sequence reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-link fault processes.
    pub seed: u64,
    /// Probability that a frame is silently dropped.
    pub drop_rate: f64,
    /// Probability that a frame is held back for [`FaultPlan::delay`].
    pub delay_rate: f64,
    /// Hold-back duration for delayed frames.
    pub delay: Duration,
    /// Probability that one byte of a frame is flipped in flight.
    pub corrupt_rate: f64,
    /// Links that disconnect permanently.
    pub dead: Vec<DeadLink>,
    /// Links whose replies lag by a fixed duration.
    pub stragglers: Vec<Straggler>,
    /// Devices that crash (panic client-side) at a planned round.
    pub panics: Vec<DevicePanic>,
    /// Aggregation rounds at whose mid-round seam (partials gathered, fold
    /// not yet committed) the sharded tree's current *root leader* is
    /// killed. One entry kills one leader; repeating a round kills the
    /// successively elected leaders of that round, which exhausts the
    /// replica set once the entry count reaches it. Consumed by the
    /// sharded fit path, not by the wire layer.
    pub root_kills: Vec<u32>,
}

impl FaultPlan {
    /// The zero plan: no faults, pass-through behaviour.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_rate: 0.0,
            delay_rate: 0.0,
            delay: Duration::from_millis(5),
            corrupt_rate: 0.0,
            dead: Vec::new(),
            stragglers: Vec::new(),
            panics: Vec::new(),
            root_kills: Vec::new(),
        }
    }

    /// Zero plan with a specific seed (relevant once rates are raised).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan { seed, ..FaultPlan::none() }
    }

    /// Sets the drop rate.
    #[must_use]
    pub fn with_drop(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the delay rate and hold-back duration.
    #[must_use]
    pub fn with_delay(mut self, rate: f64, delay: Duration) -> Self {
        self.delay_rate = rate;
        self.delay = delay;
        self
    }

    /// Sets the corruption rate.
    #[must_use]
    pub fn with_corruption(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate;
        self
    }

    /// Kills `link` permanently after `after_sends` server-side sends.
    #[must_use]
    pub fn with_dead_link(mut self, link: usize, after_sends: u64) -> Self {
        self.dead.push(DeadLink { link, after_sends });
        self
    }

    /// Makes every reply received on `link` lag by `delay` — a
    /// deterministic straggler device. On a straggler link the fixed lag
    /// supersedes the probabilistic delay roll.
    #[must_use]
    pub fn with_straggler(mut self, link: usize, delay: Duration) -> Self {
        self.stragglers.push(Straggler { link, delay });
        self
    }

    /// Makes `device`'s client-side handler panic on the broadcast of
    /// `round` — the planned app crash for chaos runs.
    #[must_use]
    pub fn with_device_panic(mut self, device: usize, round: u32) -> Self {
        self.panics.push(DevicePanic { device, round });
        self
    }

    /// The planned crash round for `device`, if any.
    pub fn panic_round(&self, device: usize) -> Option<u32> {
        self.panics.iter().find(|p| p.device == device).map(|p| p.round)
    }

    /// Kills the sharded tree's current root leader at the mid-round seam
    /// of aggregation round `round`. Chain the call to kill the successive
    /// leaders elected within the same round.
    #[must_use]
    pub fn with_root_kill(mut self, round: u32) -> Self {
        self.root_kills.push(round);
        self
    }

    /// Number of root-leader kills planned for aggregation round `round`.
    pub fn root_kills_at(&self, round: u32) -> usize {
        self.root_kills.iter().filter(|&&r| r == round).count()
    }

    /// True when the plan injects nothing at all.
    pub fn is_zero(&self) -> bool {
        self.drop_rate == 0.0
            && self.delay_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.dead.is_empty()
            && self.stragglers.is_empty()
            && self.panics.is_empty()
            && self.root_kills.is_empty()
    }

    /// Validates all rates.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range rate.
    pub fn validate(&self) -> Result<(), String> {
        let rates = [
            ("drop_rate", self.drop_rate),
            ("delay_rate", self.delay_rate),
            ("corrupt_rate", self.corrupt_rate),
        ];
        for (name, rate) in rates {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{name} must be in [0,1], got {rate}"));
            }
        }
        Ok(())
    }

    /// The fault parameters of one link, with a per-link derived seed so
    /// links draw independent fault sequences.
    pub fn link_faults(&self, link: usize) -> LinkFaults {
        LinkFaults {
            seed: self
                .seed
                .wrapping_add((link as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .rotate_left(17),
            drop_rate: self.drop_rate,
            delay_rate: self.delay_rate,
            delay: self.delay,
            corrupt_rate: self.corrupt_rate,
            dead_after: self.dead.iter().find(|d| d.link == link).map(|d| d.after_sends),
            straggler: self.stragglers.iter().find(|s| s.link == link).map(|s| s.delay),
        }
    }

    /// Wraps every server-side endpoint of a star with this plan's faults.
    pub fn wrap_links<'a>(&self, ends: &'a [Endpoint]) -> Vec<FaultyEndpoint<'a>> {
        ends.iter()
            .enumerate()
            .map(|(t, end)| FaultyEndpoint::new(end, self.link_faults(t)))
            .collect()
    }
}

/// One link's share of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Per-link derived RNG seed.
    pub seed: u64,
    /// Probability that a frame is silently dropped.
    pub drop_rate: f64,
    /// Probability that a frame is held back for `delay`.
    pub delay_rate: f64,
    /// Hold-back duration for delayed frames.
    pub delay: Duration,
    /// Probability that one byte of a frame is flipped.
    pub corrupt_rate: f64,
    /// Sends before permanent disconnect (`None` = immortal link).
    pub dead_after: Option<u64>,
    /// Fixed lag on every received frame (`None` = no straggler).
    pub straggler: Option<Duration>,
}

impl LinkFaults {
    fn is_zero(&self) -> bool {
        self.drop_rate == 0.0
            && self.delay_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.dead_after.is_none()
            && self.straggler.is_none()
    }
}

/// Counters of the faults actually injected on one link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames silently discarded.
    pub dropped: u64,
    /// Frames held back by the delay fault.
    pub delayed: u64,
    /// Frames with a byte flipped in flight.
    pub corrupted: u64,
}

impl FaultStats {
    /// Total faults injected on the link.
    pub fn total(&self) -> u64 {
        self.dropped + self.delayed + self.corrupted
    }
}

/// What the fault layer decided to do with one frame.
enum Fate {
    /// Deliver (or transmit) the frame now, possibly corrupted.
    Deliver(Bytes),
    /// The frame is gone (dropped) or parked in the pending queue.
    Consumed,
}

/// An [`Endpoint`] view that injects the faults of a [`LinkFaults`] on both
/// the send and the receive path. Zero-fault links never touch the RNG and
/// behave exactly like the bare endpoint.
#[derive(Debug)]
pub struct FaultyEndpoint<'a> {
    inner: &'a Endpoint,
    faults: LinkFaults,
    rng: StdRng,
    /// In-flight frames held back by delay and straggler faults, tagged
    /// with the instant they become deliverable.
    pending: VecDeque<(Instant, Bytes)>,
    sends: u64,
    dead: bool,
    channel_closed: bool,
    injected: FaultStats,
}

impl<'a> FaultyEndpoint<'a> {
    /// Wraps one endpoint.
    pub fn new(inner: &'a Endpoint, faults: LinkFaults) -> Self {
        FaultyEndpoint {
            inner,
            faults,
            rng: StdRng::seed_from_u64(faults.seed),
            pending: VecDeque::new(),
            sends: 0,
            dead: false,
            channel_closed: false,
            injected: FaultStats::default(),
        }
    }

    /// True once the link has permanently disconnected.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Counters of the faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.injected
    }

    /// Traffic counters of the underlying endpoint.
    pub fn stats(&self) -> TrafficStats {
        self.inner.stats()
    }

    /// Encodes and sends a message through the fault layer. The send path
    /// rolls drop and corruption; delay faults are injected on the receive
    /// path only (holding outbound frames would need a timer thread and
    /// models the same physics).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Disconnected`] once the link is dead (by
    /// plan or because the peer hung up). A frame eaten by the drop fault
    /// reports success — exactly like a lossy radio.
    pub fn send(&mut self, message: &Message) -> Result<(), TransportError> {
        if self.check_dead() {
            return Err(TransportError::Disconnected);
        }
        self.sends += 1;
        if self.faults.is_zero() {
            return self.inner.send(message);
        }
        if self.faults.drop_rate > 0.0 && self.rng.gen_bool(self.faults.drop_rate) {
            self.injected.dropped += 1;
            return Ok(());
        }
        let frame = message.encode();
        let frame = if self.faults.corrupt_rate > 0.0 && self.rng.gen_bool(self.faults.corrupt_rate)
        {
            self.injected.corrupted += 1;
            corrupt(&frame)
        } else {
            frame
        };
        self.inner.send_bytes(frame)
    }

    /// Receives one message through the fault layer, giving up after
    /// `timeout`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when nothing deliverable arrived in time,
    /// [`TransportError::Disconnected`] once the link is dead, and
    /// [`TransportError::Codec`] when the delivered frame was corrupted in
    /// flight (the endpoint's `decode_failures` counter records it).
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Message, TransportError> {
        if self.check_dead() {
            return Err(TransportError::Disconnected);
        }
        if self.faults.is_zero() {
            return self.inner.recv_timeout(timeout);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            // Ready parked frames deliver before new arrivals.
            if let Some(idx) = self.pending.iter().position(|(ready, _)| *ready <= now) {
                if let Some((_, bytes)) = self.pending.remove(idx) {
                    return self.inner.decode_counted(bytes);
                }
            }
            if now >= deadline {
                return Err(TransportError::Timeout);
            }
            // Wait no longer than the deadline or the next parked frame.
            let mut wait = deadline - now;
            if let Some(until_ready) =
                self.pending.iter().map(|(ready, _)| ready.saturating_duration_since(now)).min()
            {
                wait = wait.min(until_ready.max(Duration::from_micros(100)));
            }
            if self.channel_closed {
                if self.pending.is_empty() {
                    self.dead = true;
                    return Err(TransportError::Disconnected);
                }
                std::thread::sleep(wait);
                continue;
            }
            match self.inner.recv_bytes_timeout(wait) {
                Ok(frame) => {
                    if let Fate::Deliver(bytes) = self.roll(frame) {
                        return self.inner.decode_counted(bytes);
                    }
                }
                Err(TransportError::Timeout) => {}
                Err(_) => self.channel_closed = true,
            }
        }
    }

    /// Marks the link dead once the planned send budget is exhausted.
    fn check_dead(&mut self) -> bool {
        if !self.dead {
            if let Some(after) = self.faults.dead_after {
                if self.sends >= after {
                    self.dead = true;
                }
            }
        }
        self.dead
    }

    /// Rolls the fault dice for one frame, in a fixed order so the RNG
    /// stream — and therefore the whole chaos schedule — is a pure function
    /// of the seed and the frame sequence.
    fn roll(&mut self, frame: Bytes) -> Fate {
        let now = Instant::now();
        if self.faults.drop_rate > 0.0 && self.rng.gen_bool(self.faults.drop_rate) {
            self.injected.dropped += 1;
            return Fate::Consumed;
        }
        let frame = if self.faults.corrupt_rate > 0.0 && self.rng.gen_bool(self.faults.corrupt_rate)
        {
            self.injected.corrupted += 1;
            corrupt(&frame)
        } else {
            frame
        };
        // A straggler link's fixed lag supersedes the probabilistic delay
        // roll: the device is late on *every* reply.
        if let Some(lag) = self.faults.straggler {
            self.injected.delayed += 1;
            self.pending.push_back((now + lag, frame));
            return Fate::Consumed;
        }
        if self.faults.delay_rate > 0.0 && self.rng.gen_bool(self.faults.delay_rate) {
            self.injected.delayed += 1;
            self.pending.push_back((now + self.faults.delay, frame));
            return Fate::Consumed;
        }
        Fate::Deliver(frame)
    }
}

/// Corrupts the frame so the damage is always *detectable*: the wire format
/// carries no checksum, so flipping the version byte stands in for a
/// checksum-protected link where corrupted frames surface as decode
/// failures rather than silently poisoned payloads.
fn corrupt(frame: &Bytes) -> Bytes {
    let mut raw = frame.to_vec();
    if let Some(byte) = raw.first_mut() {
        *byte ^= 0xFF;
    }
    Bytes::from(raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ping() -> Message {
        Message::CccpAdvance { cccp_round: 7 }
    }

    #[test]
    fn zero_plan_is_transparent() {
        let (server, client) = Endpoint::pair();
        let mut faulty = FaultyEndpoint::new(&server, FaultPlan::none().link_faults(0));
        faulty.send(&ping()).unwrap();
        assert_eq!(client.recv().unwrap(), ping());
        client.send(&Message::Shutdown).unwrap();
        assert_eq!(faulty.recv_timeout(Duration::from_millis(50)).unwrap(), Message::Shutdown);
        assert_eq!(faulty.fault_stats(), FaultStats::default());
        assert!(!faulty.is_dead());
    }

    #[test]
    fn drop_all_loses_every_frame() {
        let (server, client) = Endpoint::pair();
        let plan = FaultPlan::seeded(1).with_drop(1.0);
        let mut faulty = FaultyEndpoint::new(&server, plan.link_faults(0));
        for _ in 0..5 {
            client.send(&ping()).unwrap();
        }
        let err = faulty.recv_timeout(Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, TransportError::Timeout));
        assert_eq!(faulty.fault_stats().dropped, 5);
    }

    #[test]
    fn delayed_frames_arrive_after_the_hold() {
        let (server, client) = Endpoint::pair();
        let plan = FaultPlan::seeded(2).with_delay(1.0, Duration::from_millis(10));
        let mut faulty = FaultyEndpoint::new(&server, plan.link_faults(0));
        client.send(&ping()).unwrap();
        let started = Instant::now();
        let got = faulty.recv_timeout(Duration::from_millis(500)).unwrap();
        assert_eq!(got, ping());
        assert!(started.elapsed() >= Duration::from_millis(9), "frame arrived too early");
        assert_eq!(faulty.fault_stats().delayed, 1);
    }

    #[test]
    fn corrupted_frames_surface_as_codec_errors() {
        let (server, client) = Endpoint::pair();
        let plan = FaultPlan::seeded(4).with_corruption(1.0);
        let mut faulty = FaultyEndpoint::new(&server, plan.link_faults(0));
        client.send(&ping()).unwrap();
        let err = faulty.recv_timeout(Duration::from_millis(100)).unwrap_err();
        assert!(matches!(err, TransportError::Codec(_)), "got {err:?}");
        assert_eq!(server.stats().decode_failures, 1);
        assert_eq!(server.stats().messages_received, 0);
    }

    #[test]
    fn straggler_link_lags_every_reply() {
        let (server, client) = Endpoint::pair();
        let plan = FaultPlan::seeded(6).with_straggler(0, Duration::from_millis(12));
        assert!(!plan.is_zero(), "a straggler plan injects faults");
        let mut faulty = FaultyEndpoint::new(&server, plan.link_faults(0));
        for _ in 0..3 {
            client.send(&ping()).unwrap();
        }
        let started = Instant::now();
        for _ in 0..3 {
            assert_eq!(faulty.recv_timeout(Duration::from_millis(500)).unwrap(), ping());
        }
        assert!(started.elapsed() >= Duration::from_millis(11), "replies arrived too early");
        assert_eq!(faulty.fault_stats().delayed, 3, "every frame on the link must lag");
        // Other links are untouched by this plan.
        assert!(plan.link_faults(1).straggler.is_none());
    }

    #[test]
    fn async_messages_survive_the_fault_layer() {
        // Fault interplay for the epoch-tagged async protocol: a delayed
        // `AsyncUpdate` must arrive with its epoch/basis tags intact (the
        // staleness decision rides on them), and a corrupted assignment must
        // surface as a codec error, never as a silently mangled frame.
        let update = Message::AsyncUpdate {
            epoch: 9,
            basis: 7,
            user: 3,
            w_t: vec![1.0, -2.0].into(),
            v_t: vec![0.5, 0.25].into(),
            xi_t: 0.125,
        };

        let (server, client) = Endpoint::pair();
        let plan = FaultPlan::seeded(7).with_delay(1.0, Duration::from_millis(8));
        let mut faulty = FaultyEndpoint::new(&server, plan.link_faults(0));
        client.send(&update).unwrap();
        let got = faulty.recv_timeout(Duration::from_millis(500)).unwrap();
        assert_eq!(got, update, "epoch/basis tags must survive a delayed delivery");

        let (server, client) = Endpoint::pair();
        let plan = FaultPlan::seeded(8).with_corruption(1.0);
        let mut faulty = FaultyEndpoint::new(&server, plan.link_faults(0));
        client
            .send(&Message::Broadcast {
                round: 4,
                w0: vec![0.0, 1.0].into(),
                u_t: vec![1.0, 0.0].into(),
            })
            .unwrap();
        let err = faulty.recv_timeout(Duration::from_millis(100)).unwrap_err();
        assert!(matches!(err, TransportError::Codec(_)), "got {err:?}");
    }

    #[test]
    fn dead_link_disconnects_after_budget() {
        let (server, _client) = Endpoint::pair();
        let plan = FaultPlan::seeded(6).with_dead_link(0, 2);
        let mut faulty = FaultyEndpoint::new(&server, plan.link_faults(0));
        faulty.send(&ping()).unwrap();
        faulty.send(&ping()).unwrap();
        let err = faulty.send(&ping()).unwrap_err();
        assert!(matches!(err, TransportError::Disconnected));
        assert!(faulty.is_dead());
        let err = faulty.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, TransportError::Disconnected));
    }

    #[test]
    fn dead_from_the_start_never_talks() {
        let (server, _client) = Endpoint::pair();
        let plan = FaultPlan::seeded(7).with_dead_link(0, 0);
        let mut faulty = FaultyEndpoint::new(&server, plan.link_faults(0));
        assert!(matches!(faulty.send(&ping()), Err(TransportError::Disconnected)));
    }

    #[test]
    fn other_links_are_unaffected_by_a_dead_link() {
        let (server, client) = Endpoint::pair();
        let plan = FaultPlan::seeded(8).with_dead_link(3, 0);
        let mut faulty = FaultyEndpoint::new(&server, plan.link_faults(0));
        faulty.send(&ping()).unwrap();
        assert_eq!(client.recv().unwrap(), ping());
    }

    #[test]
    fn fault_sequence_is_reproducible() {
        let run = |seed: u64| {
            let (server, client) = Endpoint::pair();
            let plan = FaultPlan::seeded(seed).with_drop(0.5);
            let mut faulty = FaultyEndpoint::new(&server, plan.link_faults(2));
            for _ in 0..64 {
                client.send(&ping()).unwrap();
            }
            let mut delivered = Vec::new();
            loop {
                match faulty.recv_timeout(Duration::from_millis(5)) {
                    Ok(_) => delivered.push(true),
                    Err(TransportError::Timeout) => break,
                    Err(e) => panic!("unexpected {e:?}"),
                }
            }
            (delivered.len(), faulty.fault_stats())
        };
        assert_eq!(run(42), run(42), "same seed must inject the same faults");
        let (kept_a, _) = run(42);
        let (kept_b, _) = run(43);
        // Not a hard guarantee, but with 64 Bernoulli(0.5) draws two seeds
        // virtually never agree exactly; a mismatch proves the seed matters.
        assert!(kept_a != kept_b || kept_a != 32, "different seeds should differ");
    }

    #[test]
    fn plan_validation_rejects_bad_rates() {
        assert!(FaultPlan::none().validate().is_ok());
        assert!(FaultPlan::none().with_drop(1.5).validate().is_err());
        assert!(FaultPlan::none().with_corruption(-0.1).validate().is_err());
    }

    #[test]
    fn wrap_links_covers_every_endpoint() {
        let a = Endpoint::pair();
        let b = Endpoint::pair();
        let ends = vec![a.0, b.0];
        let plan = FaultPlan::seeded(9).with_dead_link(1, 0);
        let mut wrapped = plan.wrap_links(&ends);
        assert_eq!(wrapped.len(), 2);
        assert!(wrapped[0].send(&ping()).is_ok());
        assert!(matches!(wrapped[1].send(&ping()), Err(TransportError::Disconnected)));
    }

    #[test]
    fn is_zero_matches_builders() {
        assert!(FaultPlan::none().is_zero());
        assert!(!FaultPlan::none().with_drop(0.1).is_zero());
        assert!(!FaultPlan::none().with_dead_link(0, 5).is_zero());
        assert!(!FaultPlan::none().with_device_panic(1, 3).is_zero());
    }

    #[test]
    fn panic_round_is_per_device() {
        let plan = FaultPlan::none().with_device_panic(2, 4);
        assert_eq!(plan.panic_round(2), Some(4));
        assert_eq!(plan.panic_round(1), None);
    }

    #[test]
    fn root_kills_count_per_round() {
        let plan = FaultPlan::none().with_root_kill(3).with_root_kill(3).with_root_kill(5);
        assert!(!plan.is_zero(), "a root-kill plan injects faults");
        assert_eq!(plan.root_kills_at(3), 2);
        assert_eq!(plan.root_kills_at(5), 1);
        assert_eq!(plan.root_kills_at(4), 0);
    }
}
