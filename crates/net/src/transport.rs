//! In-process duplex transport with traffic accounting.
//!
//! Each [`Endpoint`] is one end of a bidirectional link built from two
//! unbounded mpsc channels. Every send/receive passes through the binary codec,
//! so the byte counters measure exactly what a real socket would carry —
//! that is what Fig. 13 (message overhead per user) reports.

use crate::codec::CodecError;
use crate::message::Message;
use crate::metrics::TrafficStats;
use bytes::Bytes;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

/// Transport failure.
#[derive(Debug)]
pub enum TransportError {
    /// The peer endpoint was dropped.
    Disconnected,
    /// No message arrived within the timeout.
    Timeout,
    /// The received bytes failed to decode.
    Codec(CodecError),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "peer disconnected"),
            TransportError::Timeout => write!(f, "receive timed out"),
            TransportError::Codec(e) => write!(f, "codec error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for TransportError {
    fn from(e: CodecError) -> Self {
        TransportError::Codec(e)
    }
}

#[derive(Debug, Default)]
struct Counters {
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    messages_sent: AtomicU64,
    messages_received: AtomicU64,
    decode_failures: AtomicU64,
    bytes_discarded: AtomicU64,
}

/// One end of a bidirectional, counted, in-process link.
#[derive(Debug)]
pub struct Endpoint {
    tx: Sender<Bytes>,
    rx: Receiver<Bytes>,
    counters: Arc<Counters>,
}

impl Endpoint {
    /// Creates a connected pair of endpoints.
    pub fn pair() -> (Endpoint, Endpoint) {
        let (a_tx, b_rx) = channel();
        let (b_tx, a_rx) = channel();
        let a = Endpoint { tx: a_tx, rx: a_rx, counters: Arc::new(Counters::default()) };
        let b = Endpoint { tx: b_tx, rx: b_rx, counters: Arc::new(Counters::default()) };
        (a, b)
    }

    /// Encodes and sends a message.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Disconnected`] if the peer is gone.
    pub fn send(&self, message: &Message) -> Result<(), TransportError> {
        let bytes = message.encode();
        let len = bytes.len() as u64;
        self.tx.send(bytes).map_err(|_| TransportError::Disconnected)?;
        self.counters.bytes_sent.fetch_add(len, Ordering::Relaxed);
        self.counters.messages_sent.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Blocks until a message arrives and decodes it.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Disconnected`] if the peer is gone, or a
    /// codec error for malformed bytes.
    pub fn recv(&self) -> Result<Message, TransportError> {
        let bytes = self.rx.recv().map_err(|_| TransportError::Disconnected)?;
        self.decode_counted(bytes)
    }

    /// Like [`Endpoint::recv`] but gives up after `timeout`.
    ///
    /// # Errors
    ///
    /// Adds [`TransportError::Timeout`] to the failure modes of `recv`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Message, TransportError> {
        let bytes = self.recv_bytes_timeout(timeout)?;
        self.decode_counted(bytes)
    }

    /// Non-blocking receive: decodes a message if one is already queued.
    ///
    /// Returns `Ok(None)` when the queue is empty, so a scheduler
    /// multiplexing many virtual devices over one OS thread can poll every
    /// endpoint without ever parking on a single link.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Disconnected`] if the peer is gone, or a
    /// codec error for malformed bytes.
    pub fn try_recv(&self) -> Result<Option<Message>, TransportError> {
        match self.rx.try_recv() {
            Ok(bytes) => self.decode_counted(bytes).map(Some),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    /// Sends pre-encoded (possibly corrupted) bytes. Fault-injection hook:
    /// counters still see the frame, exactly like a real NIC would.
    pub(crate) fn send_bytes(&self, bytes: Bytes) -> Result<(), TransportError> {
        let len = bytes.len() as u64;
        self.tx.send(bytes).map_err(|_| TransportError::Disconnected)?;
        self.counters.bytes_sent.fetch_add(len, Ordering::Relaxed);
        self.counters.messages_sent.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Pulls one raw frame without decoding or accounting it.
    /// Fault-injection hook: the fault layer decides the frame's fate first.
    pub(crate) fn recv_bytes_timeout(&self, timeout: Duration) -> Result<Bytes, TransportError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => TransportError::Timeout,
            RecvTimeoutError::Disconnected => TransportError::Disconnected,
        })
    }

    /// Decodes a frame, counting it as received traffic only when the decode
    /// succeeds; malformed frames bump `decode_failures` instead, so corrupt
    /// traffic never inflates [`TrafficStats`].
    pub(crate) fn decode_counted(&self, bytes: Bytes) -> Result<Message, TransportError> {
        let len = bytes.len() as u64;
        match Message::decode(bytes) {
            Ok(message) => {
                self.counters.bytes_received.fetch_add(len, Ordering::Relaxed);
                self.counters.messages_received.fetch_add(1, Ordering::Relaxed);
                Ok(message)
            }
            Err(e) => {
                // The radio still received these bytes — the energy model
                // must see them even though they never became a message.
                self.counters.decode_failures.fetch_add(1, Ordering::Relaxed);
                self.counters.bytes_discarded.fetch_add(len, Ordering::Relaxed);
                Err(TransportError::Codec(e))
            }
        }
    }

    /// Snapshot of this endpoint's traffic counters.
    pub fn stats(&self) -> TrafficStats {
        TrafficStats {
            bytes_sent: self.counters.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.counters.bytes_received.load(Ordering::Relaxed),
            messages_sent: self.counters.messages_sent.load(Ordering::Relaxed),
            messages_received: self.counters.messages_received.load(Ordering::Relaxed),
            decode_failures: self.counters.decode_failures.load(Ordering::Relaxed),
            bytes_discarded: self.counters.bytes_discarded.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plos_linalg::Vector;

    #[test]
    fn send_and_receive() {
        let (a, b) = Endpoint::pair();
        let msg = Message::CccpAdvance { cccp_round: 5 };
        a.send(&msg).unwrap();
        assert_eq!(b.recv().unwrap(), msg);
    }

    #[test]
    fn duplex_works_both_ways() {
        let (a, b) = Endpoint::pair();
        a.send(&Message::Shutdown).unwrap();
        b.send(&Message::CccpAdvance { cccp_round: 1 }).unwrap();
        assert_eq!(b.recv().unwrap(), Message::Shutdown);
        assert_eq!(a.recv().unwrap(), Message::CccpAdvance { cccp_round: 1 });
    }

    #[test]
    fn counters_track_exact_bytes() {
        let (a, b) = Endpoint::pair();
        let msg = Message::Broadcast {
            round: 0,
            w0: Vector::from(vec![1.0, 2.0]),
            u_t: Vector::from(vec![3.0, 4.0]),
        };
        let expected = msg.encode().len() as u64;
        a.send(&msg).unwrap();
        let _ = b.recv().unwrap();
        assert_eq!(a.stats().bytes_sent, expected);
        assert_eq!(a.stats().messages_sent, 1);
        assert_eq!(b.stats().bytes_received, expected);
        assert_eq!(b.stats().messages_received, 1);
        assert_eq!(a.stats().bytes_received, 0);
        assert_eq!(b.stats().bytes_sent, 0);
    }

    #[test]
    fn disconnected_peer_errors() {
        let (a, b) = Endpoint::pair();
        drop(b);
        assert!(matches!(a.send(&Message::Shutdown), Err(TransportError::Disconnected)));
        assert!(matches!(a.recv(), Err(TransportError::Disconnected)));
    }

    #[test]
    fn try_recv_is_non_blocking() {
        let (a, b) = Endpoint::pair();
        assert!(a.try_recv().unwrap().is_none(), "empty queue must yield None");
        b.send(&Message::Shutdown).unwrap();
        assert_eq!(a.try_recv().unwrap(), Some(Message::Shutdown));
        assert!(a.try_recv().unwrap().is_none());
        drop(b);
        assert!(matches!(a.try_recv(), Err(TransportError::Disconnected)));
    }

    #[test]
    fn recv_timeout_fires() {
        let (a, _b) = Endpoint::pair();
        let err = a.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, TransportError::Timeout));
    }

    #[test]
    fn works_across_threads() {
        let (a, b) = Endpoint::pair();
        let handle = std::thread::spawn(move || {
            let msg = b.recv().unwrap();
            b.send(&msg).unwrap(); // echo
        });
        let original = Message::ClientUpdate {
            round: 9,
            user: 3,
            w_t: Vector::from(vec![0.5]),
            v_t: Vector::from(vec![-0.5]),
            xi_t: 0.25,
        };
        a.send(&original).unwrap();
        assert_eq!(a.recv().unwrap(), original);
        handle.join().unwrap();
    }

    #[test]
    fn corrupt_frames_count_as_decode_failures_not_traffic() {
        let (a, b) = Endpoint::pair();
        a.send_bytes(Bytes::from(vec![0xFF, 0xFF, 0xFF])).unwrap();
        let err = b.recv().unwrap_err();
        assert!(matches!(err, TransportError::Codec(_)));
        let stats = b.stats();
        assert_eq!(stats.messages_received, 0, "corrupt frame must not count as received");
        assert_eq!(stats.bytes_received, 0, "corrupt bytes must not inflate traffic");
        assert_eq!(stats.decode_failures, 1);
        assert_eq!(stats.bytes_discarded, 3, "the radio still received the corrupt bytes");
        // A good frame afterwards is counted normally.
        a.send(&Message::Shutdown).unwrap();
        assert_eq!(b.recv().unwrap(), Message::Shutdown);
        let stats = b.stats();
        assert_eq!(stats.messages_received, 1);
        assert_eq!(stats.decode_failures, 1);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            TransportError::Disconnected,
            TransportError::Timeout,
            TransportError::Codec(CodecError::UnknownTag(7)),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
