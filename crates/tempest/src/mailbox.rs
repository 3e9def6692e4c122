//! Transport-agnostic envelope delivery between nodes.
//!
//! [`Mailbox`] is the staging area the wire-format refactor splits out
//! of the old monolithic plan/apply path: planning *posts* encoded byte
//! frames addressed to a destination node, a transport *routes* each
//! destination's inbox (in-process loopback, channel-backed worker
//! threads, or — next — a real socket), and apply *consumes* the routed
//! frames in posting order. The mailbox itself never interprets frame
//! contents; it only guarantees per-destination FIFO order. A delivered
//! frame belongs to the transport, which keeps it until its arrival is
//! verified — so frames leave here for good and are not recycled.

use std::collections::VecDeque;

/// Per-node FIFO queues of encoded byte frames.
#[derive(Debug)]
pub struct Mailbox {
    inboxes: Vec<VecDeque<Vec<u8>>>,
}

impl Mailbox {
    /// A mailbox with one inbox per node.
    pub fn new(nprocs: usize) -> Self {
        Mailbox {
            inboxes: (0..nprocs).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Queue an encoded frame for delivery to `dst`.
    pub fn post(&mut self, dst: usize, frame: Vec<u8>) {
        self.inboxes[dst].push_back(frame);
    }

    /// Drain `dst`'s inbox in posting order (the transport routes the
    /// returned batch as one delivery).
    pub fn take_inbox(&mut self, dst: usize) -> Vec<Vec<u8>> {
        self.inboxes[dst].drain(..).collect()
    }

    /// Frames currently queued for `dst`.
    pub fn pending(&self, dst: usize) -> usize {
        self.inboxes[dst].len()
    }

    /// True when every inbox has been drained — apply must leave the
    /// mailbox in this state (undelivered frames mean lost transfers).
    pub fn all_delivered(&self) -> bool {
        self.inboxes.iter().all(|q| q.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_destination_fifo() {
        let mut m = Mailbox::new(2);
        m.post(1, b"first".to_vec());
        m.post(1, b"second".to_vec());
        m.post(0, vec![9]);
        assert_eq!(m.pending(1), 2);
        assert!(!m.all_delivered());
        let got = m.take_inbox(1);
        assert_eq!(got, vec![b"first".to_vec(), b"second".to_vec()]);
        assert_eq!(m.take_inbox(0), vec![vec![9]]);
        assert!(m.all_delivered());
    }
}
