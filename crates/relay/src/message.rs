//! The Waku message format (14/WAKU2-MESSAGE): payload + content topic +
//! timestamp, the unit every Waku protocol (relay, store, filter) moves
//! around.

use waku_wire::{put_bytes, put_u32, put_u64, Reader};

/// A Waku application message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WakuMessage {
    /// Application payload.
    pub payload: Vec<u8>,
    /// Content topic for application-level routing
    /// (e.g. `/my-app/1/chat/proto`).
    pub content_topic: String,
    /// Sender timestamp (Unix seconds).
    pub timestamp: u64,
    /// Format version.
    pub version: u32,
}

impl WakuMessage {
    /// Builds a version-0 message.
    pub fn new(
        payload: impl Into<Vec<u8>>,
        content_topic: impl Into<String>,
        timestamp: u64,
    ) -> Self {
        WakuMessage {
            payload: payload.into(),
            content_topic: content_topic.into(),
            timestamp,
            version: 0,
        }
    }

    /// Serializes (length-prefixed fields).
    pub fn to_bytes(&self) -> Vec<u8> {
        let topic = self.content_topic.as_bytes();
        let mut out = Vec::with_capacity(20 + topic.len() + self.payload.len());
        put_bytes(&mut out, &self.payload);
        put_bytes(&mut out, topic);
        put_u64(&mut out, self.timestamp);
        put_u32(&mut out, self.version);
        out
    }

    /// Parses; `None` on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let payload = r.bytes().ok()?.to_vec();
        let topic_len = r.count(1).ok()?;
        let content_topic = r.str(topic_len).ok()?.to_owned();
        let timestamp = r.u64().ok()?;
        let version = r.u32().ok()?;
        r.finish().ok()?;
        Some(WakuMessage {
            payload,
            content_topic,
            timestamp,
            version,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let m = WakuMessage::new(b"hi".to_vec(), "/app/1/chat/proto", 1_644_810_116);
        assert_eq!(WakuMessage::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn malformed_rejected() {
        let m = WakuMessage::new(b"hi".to_vec(), "/t", 7);
        let bytes = m.to_bytes();
        assert!(WakuMessage::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(WakuMessage::from_bytes(&[]).is_none());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(WakuMessage::from_bytes(&extended).is_none());
    }

    #[test]
    fn empty_payload_ok() {
        let m = WakuMessage::new(Vec::new(), "/t", 0);
        assert_eq!(WakuMessage::from_bytes(&m.to_bytes()).unwrap(), m);
    }
}
