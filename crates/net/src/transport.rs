//! Transport abstraction for the shard fabric.
//!
//! The sharded conservative engine (in `des-core`) is written against
//! [`Link`]: one per shard, offering non-blocking send toward any shard,
//! receive from the shard's own inbox, and an explicit [`Link::flush`],
//! because both transports coalesce messages. Two implementations exist:
//!
//! * [`Loopback`] — one [`shard::comm::Mailbox`] of the in-process
//!   batched fabric: sends are staged per destination and handed over a
//!   batch at a time, [`Link::flush`] being the publish point.
//! * [`crate::tcp::TcpEndpoint`] — routes messages for remote shards
//!   through batched, checksummed frames over sockets.
//!
//! The watchdog inspects the fabric through [`FabricProbe`] without
//! participating in the protocol: inbox depths for every local shard
//! plus per-peer link depths (batching buffers, writer queues) for
//! transports that have them.

use std::time::Duration;

use fault::LinkSnapshot;
use shard::comm::{self, DepthProbe, Mailbox, ShardMsg};
use shard::partition::ShardId;

// The fabric's own error vocabulary: `Full` hands the message back so
// the caller can drain its own inbox and retry; `Disconnected` means the
// destination (or, receiving, every sender) is gone.
pub use shard::comm::{RecvTimeoutError, TryRecvError};

/// Why a non-blocking send did not complete.
pub type TrySendError = comm::TrySendError<ShardMsg>;

/// The link's peer is unreachable; queued traffic cannot be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkClosed;

/// Transport-side counters a shard core merges into its `SimStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Wire frames this link enqueued toward peers.
    pub frames_sent: u64,
    /// Encoded bytes in those frames (header and trailer included).
    pub bytes_sent: u64,
    /// Cross-process messages that rode in those frames.
    pub msgs_batched: u64,
    /// Flushes forced by urgency (a NULL another shard may be stalled
    /// on) before the batch-size threshold was reached.
    pub forced_flushes: u64,
}

impl LinkStats {
    /// Accumulate `other` into `self`.
    pub fn merge(&mut self, other: &LinkStats) {
        self.frames_sent += other.frames_sent;
        self.bytes_sent += other.bytes_sent;
        self.msgs_batched += other.msgs_batched;
        self.forced_flushes += other.forced_flushes;
    }
}

/// One shard's handle on the fabric.
///
/// Contract inherited from the in-process mailboxes: per (destination
/// shard, source shard) the transport is FIFO, and [`Link::try_send`]
/// returning [`TrySendError::Full`] is the backpressure signal — the
/// caller must drain its own inbox before retrying, which is what keeps
/// cyclic shard topologies deadlock-free. A sent message may sit in a
/// coalescing buffer until [`Link::flush`]: call it before blocking on
/// the inbox, or a peer may wait for what this link still holds.
pub trait Link: Send {
    /// The shard this link belongs to.
    fn shard(&self) -> ShardId;

    /// Queue `msg` toward shard `dst` without blocking.
    fn try_send(&mut self, dst: ShardId, msg: ShardMsg) -> Result<(), TrySendError>;

    /// Pop one message from this shard's inbox without blocking.
    fn try_recv(&mut self) -> Result<ShardMsg, TryRecvError>;

    /// Pop one message, waiting up to `timeout` for one to arrive.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<ShardMsg, RecvTimeoutError>;

    /// Number of messages (not batches) waiting in this shard's inbox.
    fn inbox_len(&self) -> usize;

    /// Push any coalesced traffic toward the wire. Returns `Ok(true)`
    /// once nothing of this link's remains buffered or queued locally,
    /// `Ok(false)` if some traffic is still in flight (caller should
    /// drain its inbox and call again).
    fn flush(&mut self) -> Result<bool, LinkClosed>;

    /// The caller finished one unit of work (a node run): hand over what
    /// it sent, if that costs no more than a lock. The loopback link
    /// publishes its staged batches; the TCP link keeps coalescing toward
    /// its frame threshold (a frame per node run would undo its
    /// batching), so by default this does nothing. Best effort: whatever
    /// stays behind goes out with the next [`Link::flush`].
    fn publish(&mut self) {}

    /// Transport counters accumulated so far.
    fn stats(&self) -> LinkStats;
}

/// Watchdog's read-only view of the fabric.
pub trait FabricProbe: Send + Sync {
    /// Depth of every local shard inbox in messages, indexed by local
    /// shard order.
    fn inbox_depths(&self) -> Vec<usize>;

    /// Per-peer transport depths. Empty for in-process fabrics.
    fn link_depths(&self) -> Vec<LinkSnapshot>;
}

// ---------------------------------------------------------------------------
// Loopback: the in-process batched fabric.

/// In-process link: one mailbox of `shard::comm`'s batched fabric.
pub struct Loopback {
    mailbox: Mailbox<ShardMsg>,
}

impl Link for Loopback {
    fn shard(&self) -> ShardId {
        self.mailbox.shard()
    }

    fn try_send(&mut self, dst: ShardId, msg: ShardMsg) -> Result<(), TrySendError> {
        self.mailbox.try_send(dst, msg)
    }

    fn try_recv(&mut self) -> Result<ShardMsg, TryRecvError> {
        self.mailbox.try_recv()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<ShardMsg, RecvTimeoutError> {
        self.mailbox.recv_timeout(timeout)
    }

    fn inbox_len(&self) -> usize {
        self.mailbox.inbox_len()
    }

    fn flush(&mut self) -> Result<bool, LinkClosed> {
        // A vanished destination is not an error here: what was staged
        // toward it is dropped like mail in a channel nobody reads, and
        // the engine learns of a failed run through cancellation.
        Ok(self.mailbox.flush())
    }

    fn publish(&mut self) {
        self.mailbox.flush();
    }

    fn stats(&self) -> LinkStats {
        LinkStats::default()
    }
}

/// Depth probe for the loopback fabric: reads every inbox's depth in
/// messages without participating in the protocol.
pub struct LoopbackProbe {
    depths: DepthProbe<ShardMsg>,
}

impl FabricProbe for LoopbackProbe {
    fn inbox_depths(&self) -> Vec<usize> {
        self.depths.depths()
    }

    fn link_depths(&self) -> Vec<LinkSnapshot> {
        Vec::new()
    }
}

/// Build the in-process fabric: one [`Loopback`] link per shard plus a
/// depth probe for the watchdog.
pub fn loopback(num_shards: usize, capacity: usize) -> (Vec<Loopback>, LoopbackProbe) {
    let (mailboxes, depths) = comm::fabric(num_shards, capacity);
    let links = mailboxes
        .into_iter()
        .map(|mailbox| Loopback { mailbox })
        .collect();
    (links, LoopbackProbe { depths })
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::{Logic, NodeId, Target};

    fn msg(t: u64) -> ShardMsg {
        ShardMsg::Event {
            target: Target {
                node: NodeId(0),
                port: 0,
            },
            time: t,
            value: Logic::One,
        }
    }

    #[test]
    fn loopback_preserves_fifo_and_backpressure() {
        let (mut links, probe) = loopback(2, 2);
        let mut l1 = links.pop().unwrap();
        let mut l0 = links.pop().unwrap();
        assert_eq!(l0.shard(), 0);

        // Capacity 2 stages two messages and publishes them together.
        l0.try_send(1, msg(1)).unwrap();
        assert_eq!(probe.inbox_depths(), vec![0, 0], "staged, not published");
        l0.try_send(1, msg(2)).unwrap();
        assert_eq!(probe.inbox_depths(), vec![0, 2]);
        l0.try_send(1, msg(3)).unwrap();
        l0.try_send(1, msg(4)).unwrap();
        assert_eq!(l0.flush(), Ok(false), "inbox full: two stay staged");
        assert!(matches!(l0.try_send(1, msg(5)), Err(TrySendError::Full(_))));

        assert!(matches!(l1.try_recv(), Ok(ShardMsg::Event { time: 1, .. })));
        assert_eq!(l1.inbox_len(), 1, "a partly consumed batch still counts");
        assert_eq!(probe.inbox_depths(), vec![0, 1]);
        assert!(matches!(l1.try_recv(), Ok(ShardMsg::Event { time: 2, .. })));
        assert_eq!(l1.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(l0.flush(), Ok(true));
        assert!(matches!(l1.try_recv(), Ok(ShardMsg::Event { time: 3, .. })));
        assert!(matches!(l1.try_recv(), Ok(ShardMsg::Event { time: 4, .. })));
        assert!(probe.link_depths().is_empty());
        assert_eq!(l0.stats(), LinkStats::default());
    }

    #[test]
    fn recv_timeout_times_out_when_idle() {
        let (mut links, _probe) = loopback(2, 1);
        let err = links[0].recv_timeout(Duration::from_millis(1));
        assert_eq!(err, Err(RecvTimeoutError::Timeout));
    }
}
