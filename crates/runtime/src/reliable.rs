//! Host-side reliable delivery: sequence numbers, acks, and capped
//! exponential-backoff retransmission.
//!
//! The NetCL paper's applications each hand-roll loss recovery (the
//! aggregation host keeps a private in-flight map with a fixed RTO). This
//! module generalizes that logic so every app shares one implementation:
//! the application gives each logical message a *key*, [`Reliable::send`]
//! transmits it and arms a retransmission timer through the [`Transport`]
//! it is handed, and the application calls [`Reliable::ack_key`] when the
//! corresponding response arrives. Unacked messages are retransmitted with
//! exponentially growing timeouts (capped) until [`RetryPolicy::max_attempts`]
//! is exhausted.
//!
//! The helper owns no clock and no socket — it only emits sends and timer
//! arms relative to "now" via [`Transport`], which keeps it deterministic
//! under the simulator and portable to a real event loop.
//!
//! Copies: [`Reliable::send`] borrows the caller's wire buffer and makes
//! the two copies a reliable send needs — the `Vec` the transport (and then
//! the event) owns, and the retransmission copy, written into a buffer
//! recycled from a message that was acked, superseded or given up on, so a
//! steady stream allocates only the former.

use netcl_util::hash::IntMap;

/// The send/timer surface [`Reliable`] drives. In the simulator this is
/// implemented by `netcl-net`'s `Outbox`; a real host runtime would back it
/// with a socket and a timer wheel.
pub trait Transport {
    /// Transmits `bytes` after `delay_ns` (0 = immediately).
    fn send(&mut self, delay_ns: u64, bytes: Vec<u8>);
    /// Arms a timer that fires after `delay_ns` carrying `token`.
    fn set_timer(&mut self, delay_ns: u64, token: u64);
}

/// Timer-token namespace bit reserved for [`Reliable`]. Application timers
/// must keep this bit clear; [`Reliable::on_timer`] claims any token with
/// it set and ignores the rest, so one timer callback can serve both.
pub const RELIABLE_TOKEN: u64 = 1 << 63;

/// Retransmission policy: capped exponential backoff.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// First retransmission timeout.
    pub base_rto_ns: u64,
    /// Backoff cap: `rto(n) = min(base << n, max)`.
    pub max_rto_ns: u64,
    /// Total transmission attempts (including the first) before giving up.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // 400µs base RTO (the aggregation app's historical constant, a few
        // simulated RTTs), capped at 6.4ms, with enough attempts to push
        // through sustained 20% per-link loss on multi-hop paths.
        RetryPolicy { base_rto_ns: 400_000, max_rto_ns: 6_400_000, max_attempts: 64 }
    }
}

/// Delivery counters, exposed so applications can report them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// First transmissions.
    pub(crate) sent: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// Messages acked.
    pub(crate) acked: u64,
    /// Messages abandoned after `max_attempts`.
    pub(crate) gave_up: u64,
}

struct Pending {
    key: u64,
    bytes: Vec<u8>,
    /// Transmission attempts so far (≥1 once sent).
    attempts: u32,
}

/// Reliable-delivery state machine for one host endpoint.
pub struct Reliable {
    policy: RetryPolicy,
    next_seq: u64,
    /// Unacked messages by sequence number.
    pending: IntMap<u64, Pending>,
    /// Application key → sequence number, for ack lookup.
    by_key: IntMap<u64, u64>,
    /// Retransmission buffers of messages no longer pending, for reuse.
    spare: Vec<Vec<u8>>,
    /// Delivery counters.
    pub stats: ReliableStats,
}

impl Reliable {
    /// Creates a helper with the given policy.
    pub fn new(policy: RetryPolicy) -> Reliable {
        Reliable {
            policy,
            next_seq: 0,
            pending: IntMap::default(),
            by_key: IntMap::default(),
            spare: Vec::new(),
            stats: ReliableStats::default(),
        }
    }

    /// Sends `bytes` reliably under the application-chosen `key` (e.g. a
    /// chunk id or request id). If `key` is already in flight the old
    /// message is superseded. Returns the assigned sequence number.
    pub fn send(&mut self, key: u64, bytes: &[u8], t: &mut impl Transport) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(old_seq) = self.by_key.insert(key, seq) {
            self.retire(old_seq);
        }
        t.send(0, bytes.to_vec());
        t.set_timer(self.policy.base_rto_ns, RELIABLE_TOKEN | seq);
        let mut kept = self.spare.pop().unwrap_or_default();
        bytes.clone_into(&mut kept);
        self.pending.insert(seq, Pending { key, bytes: kept, attempts: 1 });
        self.stats.sent += 1;
        seq
    }

    /// Forgets pending message `seq`, keeping its buffer for the next send.
    fn retire(&mut self, seq: u64) {
        if let Some(p) = self.pending.remove(&seq) {
            self.spare.push(p.bytes);
        }
    }

    /// Acknowledges the message sent under `key`. Returns `true` if it was
    /// still pending (i.e. this is the first ack, not a duplicate).
    pub fn ack_key(&mut self, key: u64) -> bool {
        let Some(seq) = self.by_key.remove(&key) else { return false };
        self.retire(seq);
        self.stats.acked += 1;
        true
    }

    /// Handles a timer token. Returns `true` if the token belonged to this
    /// helper (the caller should not interpret it further). Retransmits the
    /// message if still unacked, backing off exponentially; abandons it
    /// after [`RetryPolicy::max_attempts`].
    pub fn on_timer(&mut self, token: u64, t: &mut impl Transport) -> bool {
        if token & RELIABLE_TOKEN == 0 {
            return false;
        }
        let seq = token & !RELIABLE_TOKEN;
        let Some(p) = self.pending.get_mut(&seq) else {
            return true; // acked before the timer fired
        };
        if p.attempts >= self.policy.max_attempts {
            let key = p.key;
            self.retire(seq);
            self.by_key.remove(&key);
            self.stats.gave_up += 1;
            return true;
        }
        // rto(n) = min(base << n, max); shift saturates well before u64
        // overflow because max_attempts bounds n.
        let shift = p.attempts.min(32);
        let rto = (self.policy.base_rto_ns << shift).min(self.policy.max_rto_ns);
        p.attempts += 1;
        t.send(0, p.bytes.clone());
        t.set_timer(rto, RELIABLE_TOKEN | seq);
        self.stats.retransmits += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct MockTransport {
        sends: Vec<(u64, Vec<u8>)>,
        timers: Vec<(u64, u64)>,
    }

    impl Transport for MockTransport {
        fn send(&mut self, delay_ns: u64, bytes: Vec<u8>) {
            self.sends.push((delay_ns, bytes));
        }
        fn set_timer(&mut self, delay_ns: u64, token: u64) {
            self.timers.push((delay_ns, token));
        }
    }

    fn policy() -> RetryPolicy {
        RetryPolicy { base_rto_ns: 100, max_rto_ns: 400, max_attempts: 4 }
    }

    #[test]
    fn ack_stops_retransmission() {
        let mut t = MockTransport::default();
        let mut rel = Reliable::new(policy());
        let seq = rel.send(7, &[1, 2, 3], &mut t);
        assert_eq!(t.sends.len(), 1);
        assert_eq!(t.timers, vec![(100, RELIABLE_TOKEN | seq)]);
        assert!(rel.by_key.contains_key(&7));

        assert!(rel.ack_key(7));
        assert!(!rel.ack_key(7), "duplicate ack reports not-pending");
        assert!(!rel.by_key.contains_key(&7));

        // The stale timer is a no-op.
        assert!(rel.on_timer(RELIABLE_TOKEN | seq, &mut t));
        assert_eq!(t.sends.len(), 1);
        assert_eq!(rel.stats, ReliableStats { sent: 1, retransmits: 0, acked: 1, gave_up: 0 });
    }

    #[test]
    fn backoff_grows_and_caps() {
        let mut t = MockTransport::default();
        let mut rel = Reliable::new(policy());
        let seq = rel.send(1, &[9], &mut t);
        let token = RELIABLE_TOKEN | seq;
        // Attempts 2..4: backoff 200, 400, then capped at 400.
        rel.on_timer(token, &mut t);
        rel.on_timer(token, &mut t);
        rel.on_timer(token, &mut t);
        let rtos: Vec<u64> = t.timers.iter().map(|&(d, _)| d).collect();
        assert_eq!(rtos, vec![100, 200, 400, 400]);
        assert_eq!(t.sends.len(), 4);

        // Fifth timer exhausts max_attempts = 4: give up, no resend.
        rel.on_timer(token, &mut t);
        assert_eq!(t.sends.len(), 4);
        assert!(!rel.by_key.contains_key(&1));
        assert_eq!(rel.stats.gave_up, 1);
        assert_eq!(rel.stats.retransmits, 3);
    }

    #[test]
    fn foreign_tokens_ignored() {
        let mut t = MockTransport::default();
        let mut rel = Reliable::new(policy());
        rel.send(1, &[0], &mut t);
        assert!(!rel.on_timer(42, &mut t), "plain app token is not ours");
        assert_eq!(t.sends.len(), 1);
    }

    /// A recycled retransmission buffer carries nothing over: after an ack
    /// frees a long message's copy, a shorter message sent next retransmits
    /// exactly its own bytes.
    #[test]
    fn a_recycled_buffer_retransmits_only_the_new_message() {
        let mut t = MockTransport::default();
        let mut rel = Reliable::new(policy());
        rel.send(1, &[0xAA; 64], &mut t);
        assert!(rel.ack_key(1));
        let seq = rel.send(2, &[1, 2, 3], &mut t);
        assert_eq!(rel.spare.len(), 0, "the freed buffer was taken, not a fresh one");
        rel.on_timer(RELIABLE_TOKEN | seq, &mut t);
        let sent: Vec<&[u8]> = t.sends.iter().map(|(_, b)| &b[..]).collect();
        assert_eq!(sent, [&[0xAA; 64][..], &[1, 2, 3], &[1, 2, 3]]);
    }

    #[test]
    fn resend_same_key_supersedes() {
        let mut t = MockTransport::default();
        let mut rel = Reliable::new(policy());
        let s0 = rel.send(5, &[1], &mut t);
        let s1 = rel.send(5, &[2], &mut t);
        assert_ne!(s0, s1);
        assert_eq!(rel.pending.len(), 1);
        // Old seq's timer finds nothing; new seq retransmits payload [2].
        rel.on_timer(RELIABLE_TOKEN | s0, &mut t);
        assert_eq!(t.sends.len(), 2);
        rel.on_timer(RELIABLE_TOKEN | s1, &mut t);
        assert_eq!(t.sends.last().unwrap().1, vec![2]);
    }
}
