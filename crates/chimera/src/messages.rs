//! Overlay wire messages.
//!
//! All inter-node communication in the overlay is expressed as [`Message`]s
//! wrapped in [`Envelope`]s. The state machine in [`crate::node`] consumes
//! and produces envelopes; the simulation runtime (or any other transport)
//! moves them between nodes.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::key::Key;
use crate::store::{OverwritePolicy, PutError, StoredValue};

/// Correlates a request with its completion event at the origin node.
pub type ReqId = u64;

/// A message in flight between two overlay nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// Sending node's overlay ID.
    pub from: Key,
    /// Receiving node's overlay ID.
    pub to: Key,
    /// The payload.
    pub msg: Message,
}

/// Overlay protocol messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// A joining node asks a seed for the current membership.
    WelcomeRequest {
        /// The joiner's overlay ID.
        joiner: Key,
        /// The joiner's incarnation number.
        incarnation: u32,
    },
    /// Membership snapshot returned to a joiner.
    Welcome {
        /// Known peers and their incarnations (including the seed).
        peers: Vec<(Key, u32)>,
    },
    /// Gossip: a node has joined. Propagated along ring neighbours.
    Announce {
        /// The new node.
        node: Key,
        /// Its incarnation number (deduplicates re-joins).
        incarnation: u32,
    },
    /// Gossip: a node has left or been declared failed.
    Retire {
        /// The departed node.
        node: Key,
        /// The incarnation being retired.
        incarnation: u32,
    },
    /// Records handed to their new root during redistribution.
    KeyTransfer {
        /// The records changing owner.
        records: Vec<(Key, StoredValue)>,
    },
    /// A value update being routed to the key's root.
    Put {
        /// Request correlation at the origin.
        req: ReqId,
        /// The node awaiting the acknowledgement.
        origin: Key,
        /// The record key.
        key: Key,
        /// The new value bytes, shared with the putter and every hop, cache,
        /// root and replica the put reaches.
        data: Arc<[u8]>,
        /// What to do if the key already exists.
        policy: OverwritePolicy,
        /// Hops taken so far.
        hops: u8,
    },
    /// Acknowledgement of a successful `Put`.
    PutOk {
        /// Request correlation at the origin.
        req: ReqId,
        /// Resulting record version at the root.
        version: u64,
        /// Total routing hops.
        hops: u8,
    },
    /// A `Put` rejected by the root.
    PutFailed {
        /// Request correlation at the origin.
        req: ReqId,
        /// Why the root rejected it.
        error: PutError,
        /// Total routing hops.
        hops: u8,
    },
    /// A lookup being routed to the key's root.
    Get {
        /// Request correlation at the origin.
        req: ReqId,
        /// The node awaiting the reply.
        origin: Key,
        /// The record key.
        key: Key,
        /// Nodes traversed so far (origin first); the reply retraces this
        /// path so intermediate hops can cache the entry.
        path: Vec<Key>,
    },
    /// A lookup result retracing the request path.
    GetReply {
        /// Request correlation at the origin.
        req: ReqId,
        /// The record key.
        key: Key,
        /// The value, if the root holds one.
        value: Option<StoredValue>,
        /// Whether an intermediate cache answered.
        from_cache: bool,
        /// The request path being retraced.
        path: Vec<Key>,
        /// Index into `path` of the node this reply is currently visiting.
        path_pos: usize,
        /// Total hops (request + reply legs).
        hops: u8,
    },
    /// A deletion being routed to the key's root.
    Delete {
        /// Request correlation at the origin.
        req: ReqId,
        /// The node awaiting the acknowledgement.
        origin: Key,
        /// The record key to remove.
        key: Key,
        /// Hops taken so far.
        hops: u8,
    },
    /// Acknowledgement of a `Delete`.
    DeleteOk {
        /// Request correlation at the origin.
        req: ReqId,
        /// Whether a record existed and was removed.
        existed: bool,
        /// Total routing hops.
        hops: u8,
    },
    /// Root-to-replica tombstone propagation: drop any replica and cached
    /// copy of the key.
    Expunge {
        /// The removed record's key.
        key: Key,
    },
    /// Root-to-replica record propagation.
    Replicate {
        /// The record key.
        key: Key,
        /// The full record.
        value: StoredValue,
    },
    /// Liveness probe between ring neighbours.
    Ping {
        /// Prober.
        from: Key,
    },
    /// Liveness response.
    Pong {
        /// Responder.
        from: Key,
    },
}

impl Message {
    /// Short message-type label for traces and statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::WelcomeRequest { .. } => "welcome_request",
            Message::Welcome { .. } => "welcome",
            Message::Announce { .. } => "announce",
            Message::Retire { .. } => "retire",
            Message::KeyTransfer { .. } => "key_transfer",
            Message::Put { .. } => "put",
            Message::PutOk { .. } => "put_ok",
            Message::PutFailed { .. } => "put_failed",
            Message::Get { .. } => "get",
            Message::GetReply { .. } => "get_reply",
            Message::Delete { .. } => "delete",
            Message::DeleteOk { .. } => "delete_ok",
            Message::Expunge { .. } => "expunge",
            Message::Replicate { .. } => "replicate",
            Message::Ping { .. } => "ping",
            Message::Pong { .. } => "pong",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_are_distinct() {
        let msgs = [
            Message::Ping { from: Key::MIN },
            Message::Pong { from: Key::MIN },
            Message::Announce {
                node: Key::MIN,
                incarnation: 0,
            },
        ];
        let kinds: Vec<&str> = msgs.iter().map(|m| m.kind()).collect();
        assert_eq!(kinds, vec!["ping", "pong", "announce"]);
    }
}
