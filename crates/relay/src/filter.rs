//! 12/WAKU2-FILTER: lightweight content filtering for bandwidth-restricted
//! peers (paper §I). A light node registers content-topic filters with a
//! full node; the full node pushes only matching messages.

use std::collections::HashMap;

use crate::message::WakuMessage;

/// Identifier of a subscribed light peer.
pub type LightPeerId = usize;

/// The full-node side of the filter protocol.
#[derive(Clone, Debug, Default)]
pub struct FilterService {
    subscriptions: HashMap<LightPeerId, Vec<String>>,
}

impl FilterService {
    /// Creates an empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or extends) a light peer's content-topic filter.
    pub fn subscribe(&mut self, peer: LightPeerId, content_topics: Vec<String>) {
        let entry = self.subscriptions.entry(peer).or_default();
        for t in content_topics {
            if !entry.contains(&t) {
                entry.push(t);
            }
        }
    }

    /// Which light peers should receive this message (sorted for
    /// determinism).
    pub fn match_message(&self, message: &WakuMessage) -> Vec<LightPeerId> {
        let mut out: Vec<LightPeerId> = self
            .subscriptions
            .iter()
            .filter(|(_, topics)| topics.contains(&message.content_topic))
            .map(|(peer, _)| *peer)
            .collect();
        out.sort_unstable();
        out
    }

    /// Bandwidth saved for a light peer: bytes of messages *not* pushed.
    pub fn bytes_filtered(&self, peer: LightPeerId, all_messages: &[WakuMessage]) -> usize {
        let topics = match self.subscriptions.get(&peer) {
            Some(t) => t,
            None => return all_messages.iter().map(|m| m.to_bytes().len()).sum(),
        };
        all_messages
            .iter()
            .filter(|m| !topics.contains(&m.content_topic))
            .map(|m| m.to_bytes().len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscribe_and_match() {
        let mut f = FilterService::new();
        f.subscribe(1, vec!["/chat".into()]);
        f.subscribe(2, vec!["/chat".into(), "/news".into()]);
        let chat = WakuMessage::new(vec![], "/chat", 0);
        let news = WakuMessage::new(vec![], "/news", 0);
        let other = WakuMessage::new(vec![], "/other", 0);
        assert_eq!(f.match_message(&chat), vec![1, 2]);
        assert_eq!(f.match_message(&news), vec![2]);
        assert!(f.match_message(&other).is_empty());
    }

    #[test]
    fn duplicate_subscriptions_are_idempotent() {
        let mut f = FilterService::new();
        f.subscribe(1, vec!["/a".into()]);
        f.subscribe(1, vec!["/a".into()]);
        assert_eq!(f.match_message(&WakuMessage::new(vec![], "/a", 0)), vec![1]);
    }

    #[test]
    fn bandwidth_accounting() {
        let mut f = FilterService::new();
        f.subscribe(1, vec!["/want".into()]);
        let messages = vec![
            WakuMessage::new(vec![0; 100], "/want", 0),
            WakuMessage::new(vec![0; 500], "/junk", 0),
        ];
        let saved = f.bytes_filtered(1, &messages);
        assert!(saved >= 500, "junk bytes filtered out: {saved}");
        assert!(saved < 600 + 24);
    }
}
