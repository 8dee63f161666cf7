//! 11/WAKU2-RELAY: the thin pubsub layer over GossipSub (paper §I).
//!
//! Maps Waku pubsub-topic strings onto the simulator's compact topic ids.

use std::collections::HashMap;

use waku_gossip::Topic;

/// The default Waku pubsub topic.
pub const DEFAULT_PUBSUB_TOPIC: &str = "/waku/2/default-waku/proto";

/// Bidirectional mapping between pubsub-topic strings and simulator topic
/// ids.
#[derive(Clone, Debug, Default)]
pub struct TopicRegistry {
    by_name: HashMap<String, Topic>,
    names: Vec<String>,
}

impl TopicRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a topic name, returning its stable id.
    pub fn intern(&mut self, name: &str) -> Topic {
        if let Some(id) = self.by_name.get(name) {
            return *id;
        }
        let id = self.names.len() as Topic;
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Looks up a topic id.
    pub fn id_of(&self, name: &str) -> Option<Topic> {
        self.by_name.get(name).copied()
    }

    /// Looks up a topic name.
    pub fn name_of(&self, id: Topic) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut reg = TopicRegistry::new();
        let a = reg.intern(DEFAULT_PUBSUB_TOPIC);
        let b = reg.intern("/waku/2/other/proto");
        assert_ne!(a, b);
        assert_eq!(reg.intern(DEFAULT_PUBSUB_TOPIC), a);
        assert_eq!(reg.name_of(a), Some(DEFAULT_PUBSUB_TOPIC));
        assert_eq!(reg.id_of("/waku/2/other/proto"), Some(b));
        assert!(reg.id_of("/nope").is_none());
    }
}
