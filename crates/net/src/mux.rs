//! Virtual-device multiplexing: the one device runner.
//!
//! Giving every simulated phone its own OS thread caps the fleet around the
//! host's thread budget, and on a host with fewer cores than devices the
//! threads time-share the cores, so each device's metered compute absorbs
//! its siblings' solves. [`MuxNetwork`] instead executes the device side of
//! the protocol as **resumable state machines** ([`DeviceMachine`])
//! multiplexed onto at most `Pool::current().threads()` workers. Every
//! device slot (endpoint plus machine) sits behind its own lock, and every
//! worker sweeps *all* slots in index order: it `try_lock`s each one, drains
//! its endpoint with the non-blocking [`Endpoint::try_recv`] and steps the
//! machine once per message, and skips a slot a sibling is stepping. A
//! heavy device therefore holds up only its own worker; the light devices
//! go to whichever worker is free. A device's solve still runs alone on
//! its worker, so its metered compute is its own.
//!
//! **Ordering guarantee.** Output is bit-identical at any pool size and any
//! K, because
//!
//! 1. each device's message stream is a per-link FIFO (mpsc), and a
//!    machine's output depends only on its own stream and its own state;
//! 2. the server folds replies by tag-matched slot assignment, so reply
//!    *arrival order* — the only thing scheduling changes — never reaches
//!    the model;
//! 3. a device is stepped by at most one worker at a time (its slot lock),
//!    so it reads its FIFO in order whichever worker steps it.
//!
//! **Panic containment.** A machine that panics while it is built, stepped
//! or retired is retired as [`ClientExit::Panicked`]; its endpoint drops,
//! the server sees a dead link, and the fleet's strike/eviction machinery
//! handles the loss — one poisoned device can no longer abort the run.

use crate::message::Message;
use crate::metrics::TrafficStats;
use crate::node::{panic_text, ClientExit, StarNetwork};
use crate::transport::{Endpoint, TransportError};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// How long a worker parks when a whole sweep made no progress, so latency
/// stays sub-millisecond while idle CPU stays bounded.
const IDLE_BACKOFF: Duration = Duration::from_micros(500);

/// What a device state machine wants the scheduler to do next.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceStep {
    /// Wait for the next server message.
    NeedRecv,
    /// Send this reply to the server, then wait for the next message.
    Send(Message),
    /// The protocol is over; retire the device.
    Done,
}

/// A resumable, poll-driven device: the client side of the PLOS protocol
/// with the receive loop factored out, so a mux worker can interleave it
/// with its siblings.
pub trait DeviceMachine {
    /// Final per-device output (traffic stats, compute time, …).
    type Output;

    /// Consumes one server message and says what to do next. Undecodable
    /// frames and idle timeouts never reach the machine.
    fn on_message(&mut self, message: Message) -> DeviceStep;

    /// Retires the device, folding in its endpoint's final traffic
    /// counters.
    fn finish(self, stats: TrafficStats) -> Self::Output;
}

/// How a trainer executes its device fleet: virtual devices multiplexed
/// onto `⌈T / K⌉` workers, clamped to `[1, Pool::current().threads()]`
/// (see [`MuxNetwork::worker_count`]).
///
/// The default, `Multiplexed { devices_per_worker: 1 }`, spreads the fleet
/// over `min(T, pool)` workers. The pool clamp stays even at K = 1: it
/// bounds the OS thread count by the pool instead of the fleet, so workers
/// never outnumber the cores the pool was sized for and a device's metered
/// solve does not absorb its siblings' solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceRuntime {
    /// Virtual devices multiplexed onto at most `Pool::current().threads()`
    /// workers, which share the whole fleet between them.
    Multiplexed {
        /// K: virtual devices per worker (0 is treated as 1); sets the
        /// worker count, not which devices a worker steps.
        devices_per_worker: usize,
    },
}

impl Default for DeviceRuntime {
    fn default() -> Self {
        DeviceRuntime::Multiplexed { devices_per_worker: 1 }
    }
}

/// Executes a star's client side as virtual devices multiplexed over a
/// bounded worker set while the caller plays the server.
#[derive(Debug)]
pub struct MuxNetwork {
    net: StarNetwork,
    devices_per_worker: usize,
}

/// One virtual device: alive (endpoint + machine) or already retired with
/// its exit.
struct Slot<M: DeviceMachine> {
    live: Option<(Endpoint, M)>,
    exit: Option<ClientExit<M::Output>>,
}

/// Why a device left the sweep.
enum Retire {
    Clean,
    Panicked(String),
}

impl MuxNetwork {
    /// Wraps a star for multiplexed execution with up to
    /// `devices_per_worker` virtual devices per worker (0 becomes 1).
    pub fn new(net: StarNetwork, devices_per_worker: usize) -> MuxNetwork {
        MuxNetwork { net, devices_per_worker: devices_per_worker.max(1) }
    }

    /// Number of worker threads this network will spawn: enough for K
    /// devices each to cover the fleet, capped by the current plos-exec
    /// pool width — never by the fleet size.
    pub fn worker_count(&self) -> usize {
        let t_count = self.net.num_clients();
        let pool = plos_exec::Pool::current().threads().max(1);
        t_count.div_ceil(self.devices_per_worker).clamp(1, pool)
    }

    /// Runs `server_fn(&server_endpoints)` on the calling thread while the
    /// workers drive one machine per device, created by `make_machine(t)`.
    /// The server closure may move endpoints out of the vector (e.g. to hand
    /// whole shards to regional aggregators, see [`crate::shard`]); whatever
    /// remains is dropped when it returns. Returns the server output and
    /// every device's [`ClientExit`], indexed by user.
    pub fn run<S, SR, M, F>(self, server_fn: S, make_machine: F) -> (SR, Vec<ClientExit<M::Output>>)
    where
        S: FnOnce(&mut Vec<Endpoint>) -> SR,
        M: DeviceMachine + Send,
        F: Fn(usize) -> M,
        M::Output: Send,
    {
        let workers = self.worker_count();
        let StarNetwork { mut server, clients } = self.net;
        let slots: Vec<Mutex<Slot<M>>> = clients
            .into_iter()
            .enumerate()
            .map(|(t, endpoint)| {
                // plos-lint: allow(U2): a panicking machine constructor must poison one device slot, not the run
                let slot = match catch_unwind(AssertUnwindSafe(|| make_machine(t))) {
                    Ok(machine) => Slot { live: Some((endpoint, machine)), exit: None },
                    Err(payload) => Slot {
                        live: None,
                        exit: Some(ClientExit::Panicked(panic_text(payload.as_ref()))),
                    },
                };
                Mutex::new(slot)
            })
            .collect();
        // Devices not yet retired. It only ends the sweeps and publishes no
        // data: slots are read under their locks, and the exits below only
        // after the scope has joined every worker.
        let live = AtomicUsize::new(slots.iter().filter(|s| s.lock().live.is_some()).count());
        // plos-lint: allow(R2): the bounded mux workers are this crate's one device runner; pool width caps the spawn count
        let server_result = std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| run_worker(&slots, &live));
            }
            let server_result = server_fn(&mut server);
            // Drop the server endpoints so lingering devices observe
            // Disconnected and retire; the scope then joins every worker.
            drop(server);
            server_result
        });
        let exits = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner().exit.unwrap_or_else(|| {
                    ClientExit::Panicked("device retired without an exit".to_string())
                })
            })
            .collect();
        (server_result, exits)
    }
}

/// One worker: sweeps every slot in ascending index order, stepping the
/// devices no sibling holds, until every device has retired.
fn run_worker<M: DeviceMachine>(slots: &[Mutex<Slot<M>>], live: &AtomicUsize) {
    while live.load(Ordering::Acquire) > 0 {
        let mut progressed = false;
        for slot in slots {
            // A sibling is stepping this device; it keeps the FIFO order.
            let Some(mut slot) = slot.try_lock() else { continue };
            let Some((endpoint, machine)) = slot.live.as_mut() else { continue };
            let mut retire: Option<Retire> = None;
            // Drain everything already queued for this device before moving
            // to the next: per-device FIFO order is preserved, and a device
            // never blocks its siblings.
            loop {
                match endpoint.try_recv() {
                    Ok(Some(message)) => {
                        progressed = true;
                        // plos-lint: allow(U2): a panic inside one virtual device's protocol step retires that device; the sweep and the server keep running
                        let step = catch_unwind(AssertUnwindSafe(|| machine.on_message(message)));
                        match step {
                            Ok(DeviceStep::NeedRecv) => {}
                            Ok(DeviceStep::Send(reply)) => {
                                if endpoint.send(&reply).is_err() {
                                    retire = Some(Retire::Clean);
                                    break;
                                }
                            }
                            Ok(DeviceStep::Done) => {
                                retire = Some(Retire::Clean);
                                break;
                            }
                            Err(payload) => {
                                retire = Some(Retire::Panicked(panic_text(payload.as_ref())));
                                break;
                            }
                        }
                    }
                    Ok(None) => break,
                    // Undecodable frame: already counted by the transport;
                    // keep draining.
                    Err(TransportError::Codec(_)) => progressed = true,
                    Err(_) => {
                        retire = Some(Retire::Clean);
                        break;
                    }
                }
            }
            let Some(reason) = retire else { continue };
            if let Some((endpoint, machine)) = slot.live.take() {
                slot.exit = Some(match reason {
                    Retire::Clean => {
                        let stats = endpoint.stats();
                        // plos-lint: allow(U2): a panicking `finish` retires that one device, like a panicking step
                        catch_unwind(AssertUnwindSafe(|| machine.finish(stats))).map_or_else(
                            |payload| ClientExit::Panicked(panic_text(payload.as_ref())),
                            ClientExit::Finished,
                        )
                    }
                    // Dropping the endpoint here is the containment: the
                    // server sees a dead link and evicts the device.
                    Retire::Panicked(msg) => ClientExit::Panicked(msg),
                });
                live.fetch_sub(1, Ordering::AcqRel);
            }
        }
        if !progressed {
            std::thread::sleep(IDLE_BACKOFF);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::try_star;

    /// Echoes `n` CccpAdvance rounds, then reports how many it saw.
    struct EchoMachine {
        rounds: u32,
        seen: u32,
    }

    impl DeviceMachine for EchoMachine {
        type Output = (u32, TrafficStats);

        fn on_message(&mut self, message: Message) -> DeviceStep {
            match message {
                Message::CccpAdvance { cccp_round } => {
                    self.seen += 1;
                    if self.seen >= self.rounds {
                        return DeviceStep::Done;
                    }
                    DeviceStep::Send(Message::CccpAdvance { cccp_round })
                }
                Message::Shutdown => DeviceStep::Done,
                _ => DeviceStep::NeedRecv,
            }
        }

        fn finish(self, stats: TrafficStats) -> Self::Output {
            (self.seen, stats)
        }
    }

    fn echo_server(server_ends: &[Endpoint], rounds: u32) -> u32 {
        let mut echoes = 0;
        for round in 0..rounds {
            for end in server_ends {
                end.send(&Message::CccpAdvance { cccp_round: round }).unwrap();
            }
            if round + 1 < rounds {
                for end in server_ends {
                    let _ = end.recv().unwrap();
                    echoes += 1;
                }
            }
        }
        echoes
    }

    #[test]
    fn mux_runs_many_devices_over_few_workers() {
        let devices = 23;
        let rounds = 3;
        let net = try_star(devices).unwrap();
        let mux = MuxNetwork::new(net, 8);
        assert!(mux.worker_count() <= plos_exec::Pool::current().threads().max(1));
        let (echoes, exits) = mux.run(
            |server_ends| echo_server(server_ends, rounds),
            |_t| EchoMachine { rounds, seen: 0 },
        );
        assert_eq!(echoes as usize, devices * (rounds as usize - 1));
        assert_eq!(exits.len(), devices);
        for exit in exits {
            let (seen, stats) = exit.finished().unwrap();
            assert_eq!(seen, rounds);
            assert!(stats.messages_received >= u64::from(rounds));
        }
    }

    #[test]
    fn panicking_machine_poisons_one_device_only() {
        struct Poison {
            t: usize,
        }
        impl DeviceMachine for Poison {
            type Output = usize;
            fn on_message(&mut self, _message: Message) -> DeviceStep {
                if self.t == 2 {
                    panic!("virtual device {} poisoned", self.t);
                }
                DeviceStep::Done
            }
            fn finish(self, _stats: TrafficStats) -> Self::Output {
                self.t
            }
        }
        let net = try_star(5).unwrap();
        let mux = MuxNetwork::new(net, 5);
        let (_, exits) = mux.run(
            |server_ends| {
                for end in server_ends {
                    let _ = end.send(&Message::Shutdown);
                }
            },
            |t| Poison { t },
        );
        assert_eq!(exits.len(), 5);
        for (t, exit) in exits.into_iter().enumerate() {
            if t == 2 {
                assert!(exit.panic_message().unwrap().contains("poisoned"));
            } else {
                assert_eq!(exit, ClientExit::Finished(t));
            }
        }
    }

    /// Device 0's step waits on a flag that only device 1's step sets. A
    /// worker that owned devices 0 and 1 together could not set it before
    /// device 0 gave up; a free worker must take device 1 instead.
    #[test]
    fn an_idle_worker_takes_the_next_ready_device() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        use std::time::Instant;

        struct Handoff {
            t: usize,
            flag: Arc<AtomicBool>,
            saw_flag: bool,
        }
        impl DeviceMachine for Handoff {
            type Output = bool;
            fn on_message(&mut self, _message: Message) -> DeviceStep {
                match self.t {
                    0 => {
                        let started = Instant::now();
                        while !self.flag.load(Ordering::Acquire)
                            && started.elapsed() < Duration::from_secs(2)
                        {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        self.saw_flag = self.flag.load(Ordering::Acquire);
                    }
                    1 => self.flag.store(true, Ordering::Release),
                    _ => {}
                }
                DeviceStep::Done
            }
            fn finish(self, _stats: TrafficStats) -> bool {
                self.saw_flag
            }
        }

        let flag = Arc::new(AtomicBool::new(false));
        let (_, exits) = plos_exec::with_threads(2, || {
            let mux = MuxNetwork::new(try_star(4).unwrap(), 1);
            assert_eq!(mux.worker_count(), 2);
            mux.run(
                |server_ends| {
                    for end in server_ends.iter() {
                        end.send(&Message::Shutdown).unwrap();
                    }
                },
                |t| Handoff { t, flag: Arc::clone(&flag), saw_flag: false },
            )
        });
        let saw: Vec<bool> = exits.into_iter().map(|exit| exit.finished().unwrap()).collect();
        assert!(saw[0], "device 1 waited behind device 0 on one worker");
    }

    #[test]
    fn panicking_finish_retires_one_device_only() {
        struct Sour {
            t: usize,
        }
        impl DeviceMachine for Sour {
            type Output = usize;
            fn on_message(&mut self, _message: Message) -> DeviceStep {
                DeviceStep::Done
            }
            fn finish(self, _stats: TrafficStats) -> usize {
                if self.t == 1 {
                    panic!("device {} failed to retire", self.t);
                }
                self.t
            }
        }
        let (_, exits) = MuxNetwork::new(try_star(3).unwrap(), 1).run(
            |server_ends| {
                for end in server_ends.iter() {
                    let _ = end.send(&Message::Shutdown);
                }
            },
            |t| Sour { t },
        );
        assert!(exits[1].panic_message().unwrap().contains("failed to retire"));
        assert_eq!(exits[0], ClientExit::Finished(0));
        assert_eq!(exits[2], ClientExit::Finished(2));
    }

    #[test]
    fn default_runtime_spreads_the_fleet_over_the_pool() {
        assert_eq!(DeviceRuntime::default(), DeviceRuntime::Multiplexed { devices_per_worker: 1 });
        let pool = plos_exec::Pool::current().threads().max(1);
        for devices in [1, 3, 40] {
            let mux = MuxNetwork::new(try_star(devices).unwrap(), 1);
            assert_eq!(mux.worker_count(), devices.min(pool), "{devices} devices");
        }
    }

    #[test]
    fn zero_devices_per_worker_is_clamped() {
        let net = try_star(3).unwrap();
        let mux = MuxNetwork::new(net, 0);
        assert!(mux.worker_count() >= 1);
    }
}
