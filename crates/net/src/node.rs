//! Star-topology construction and per-device exit reporting.
//!
//! Distributed PLOS has one server and `T` user devices that communicate
//! only with the server (Fig. 1). [`try_star`] builds the `T` counted duplex
//! links; [`crate::mux::MuxNetwork`] drives the devices while the caller
//! plays the server on the current thread. A panicking device is reported as
//! [`ClientExit::Panicked`] instead of being re-raised, so the server's
//! strike/eviction machinery — not an aborted process — decides what a
//! poisoned device costs the fleet.

use crate::transport::Endpoint;
use std::fmt;

/// The two sides of a star topology: `server[t]` is connected to
/// `clients[t]`.
#[derive(Debug)]
pub struct StarNetwork {
    /// Server-side endpoints, indexed by user.
    pub server: Vec<Endpoint>,
    /// Client-side endpoints, indexed by user.
    pub clients: Vec<Endpoint>,
}

/// Typed star-construction failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// A star topology needs at least one client link.
    EmptyStar,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::EmptyStar => write!(f, "a star needs at least one client"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// How one virtual device (or regional aggregator) left the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientExit<T> {
    /// The device ran its protocol to completion and produced its output.
    Finished(T),
    /// The device panicked; the payload is rendered as text so the trainer
    /// can record a per-device protocol error instead of aborting.
    Panicked(String),
}

impl<T> ClientExit<T> {
    /// The output of a finished device, `None` for a panicked one.
    pub fn finished(self) -> Option<T> {
        match self {
            ClientExit::Finished(out) => Some(out),
            ClientExit::Panicked(_) => None,
        }
    }

    /// The panic message of a crashed device, `None` for a finished one.
    pub fn panic_message(&self) -> Option<&str> {
        match self {
            ClientExit::Finished(_) => None,
            ClientExit::Panicked(msg) => Some(msg.as_str()),
        }
    }
}

/// Renders a panic payload as text for per-device error reporting.
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Builds a star with `num_clients` links.
///
/// # Errors
///
/// Returns [`TopologyError::EmptyStar`] when `num_clients == 0`.
pub fn try_star(num_clients: usize) -> Result<StarNetwork, TopologyError> {
    if num_clients == 0 {
        return Err(TopologyError::EmptyStar);
    }
    let mut server = Vec::with_capacity(num_clients);
    let mut clients = Vec::with_capacity(num_clients);
    for _ in 0..num_clients {
        let (s, c) = Endpoint::pair();
        server.push(s);
        clients.push(c);
    }
    Ok(StarNetwork { server, clients })
}

impl StarNetwork {
    /// Number of client links.
    pub fn num_clients(&self) -> usize {
        self.server.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_has_matching_sides() {
        let net = try_star(5).unwrap();
        assert_eq!(net.num_clients(), 5);
        assert_eq!(net.server.len(), 5);
        assert_eq!(net.clients.len(), 5);
    }

    #[test]
    fn empty_star_is_typed_error() {
        let err = try_star(0).unwrap_err();
        assert_eq!(err, TopologyError::EmptyStar);
        assert!(err.to_string().contains("at least one client"));
    }
}
