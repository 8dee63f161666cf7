//! Message and RPC types for the GossipSub-style transport.

use std::sync::Arc;

use waku_hash::keccak256;

/// Peer identifier (index into the network's peer table).
pub type PeerId = usize;

/// Simulated network time in milliseconds.
pub type SimTime = u64;

/// A unique message identifier.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(pub [u8; 32]);

impl std::fmt::Debug for MessageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "msg:{:02x}{:02x}{:02x}{:02x}…",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

/// Simulation-level tag for accounting (validators never see it; metrics
/// do). Distinguishes the traffic classes of the evaluation (§IV).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TrafficClass {
    /// Regular honest application traffic.
    Honest,
    /// Rate-violation spam (valid proofs, duplicate epoch).
    Spam,
    /// Garbage with invalid proofs.
    Invalid,
}

/// A message on the network's one pubsub topic (one RLN group guards one
/// topic, §III-F). The payload is reference-counted: flooding a message
/// to `n` mesh peers clones the header, not the bytes, which is what keeps
/// 10⁴-peer sweeps affordable.
#[derive(Clone, Debug)]
pub struct Message {
    /// Content-derived identifier.
    pub id: MessageId,
    /// Opaque payload (e.g. a serialized RLN bundle).
    pub data: Arc<[u8]>,
    /// Originating peer.
    pub origin: PeerId,
    /// Origin-local sequence number.
    pub seq: u64,
    /// Accounting tag (not visible to protocol logic).
    pub class: TrafficClass,
    /// Network time the origin published (stamped by the simulator; rides
    /// with every copy so first-delivery latency needs no global map).
    pub published_at: SimTime,
}

impl Message {
    /// Builds a message with its content-derived id.
    pub fn new(data: Vec<u8>, origin: PeerId, seq: u64, class: TrafficClass) -> Self {
        let mut buf = Vec::with_capacity(data.len() + 16);
        buf.extend_from_slice(&(origin as u64).to_le_bytes());
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(&data);
        Message {
            id: MessageId(keccak256(&buf)),
            data: data.into(),
            origin,
            seq,
            class,
            published_at: 0,
        }
    }

    /// Approximate wire size in bytes: id, topic, origin and sequence
    /// headers plus the payload. A GossipSub RPC names its topic on the
    /// wire even when the network runs only one, so the 4-byte topic
    /// field stays in the count.
    pub fn size(&self) -> usize {
        32 + 4 + 8 + 8 + self.data.len()
    }
}

/// GossipSub control and data RPCs.
#[derive(Clone, Debug)]
pub enum Rpc {
    /// Full message propagation. The message is reference-counted:
    /// flooding to `n` mesh peers and parking copies in event queues
    /// bumps a refcount instead of copying the ~100-byte header each
    /// hop — at 10⁴ peers the queues hold tens of thousands of in-flight
    /// publishes at once.
    Publish(Arc<Message>),
    /// Gossip: "I have these messages" (heartbeat fan-out to non-mesh
    /// peers). The id list is assembled once per heartbeat and shared
    /// across all `d_lazy` sends — cloning the RPC bumps a refcount
    /// instead of copying 32 bytes per cached message.
    IHave(Arc<[MessageId]>),
    /// Gossip reply: "send me these".
    IWant(Vec<MessageId>),
    /// Mesh join request.
    Graft,
    /// Mesh leave notice.
    Prune,
}

impl Rpc {
    /// Approximate wire size in bytes (for bandwidth accounting).
    /// IHAVE, GRAFT and PRUNE carry their topic on the wire; IWANT does
    /// not.
    pub fn size(&self) -> usize {
        match self {
            Rpc::Publish(m) => m.size(),
            Rpc::IHave(ids) => 8 + ids.len() * 32,
            Rpc::IWant(ids) => 4 + ids.len() * 32,
            Rpc::Graft | Rpc::Prune => 8,
        }
    }
}

/// Validator verdict on an incoming message (mirrors libp2p's
/// `ValidationResult`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Validation {
    /// Relay to mesh peers.
    Accept,
    /// Drop and penalize the propagating peer (invalid proof, §III-F).
    Reject,
    /// Drop silently (e.g. duplicate share — paper §III-F case 2b).
    Ignore,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_is_content_derived() {
        let a = Message::new(vec![1, 2, 3], 0, 0, TrafficClass::Honest);
        let b = Message::new(vec![1, 2, 3], 0, 0, TrafficClass::Honest);
        let c = Message::new(vec![1, 2, 4], 0, 0, TrafficClass::Honest);
        assert_eq!(a.id, b.id);
        assert_ne!(a.id, c.id);
    }

    #[test]
    fn id_depends_on_origin_and_seq() {
        let a = Message::new(vec![9], 0, 0, TrafficClass::Honest);
        let b = Message::new(vec![9], 1, 0, TrafficClass::Honest);
        let c = Message::new(vec![9], 0, 1, TrafficClass::Honest);
        assert_ne!(a.id, b.id);
        assert_ne!(a.id, c.id);
    }

    #[test]
    fn rpc_sizes_scale() {
        let m = Message::new(vec![0; 100], 0, 0, TrafficClass::Honest);
        assert!(Rpc::Publish(Arc::new(m.clone())).size() > 100);
        assert!(Rpc::IHave(vec![m.id; 3].into()).size() > Rpc::Graft.size());
    }
}
