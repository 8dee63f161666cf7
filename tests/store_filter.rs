//! Integration of the auxiliary Waku protocols with RLN-protected traffic:
//! 13/WAKU2-STORE persistence/pagination of validated messages and
//! 12/WAKU2-FILTER light-client push filtering (paper §I).

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;

use waku_suite::relay::{Direction, FilterService, HistoryQuery, MessageStore, WakuMessage};
use waku_suite::rln_relay::Outcome;

use common::decide;

const DEPTH: usize = 8;

#[test]
fn store_archives_only_validated_traffic() {
    let mut rng = StdRng::seed_from_u64(1);
    let (mut chain, mut nodes) = common::nodes(2, DEPTH, 1, 1);
    let [publisher, router]: &mut [_; 2] = nodes.as_mut_slice().try_into().unwrap();

    let mut store = MessageStore::new(100);
    for (i, at) in (100u64..104).enumerate() {
        let wm = WakuMessage::new(format!("note {i}").into_bytes(), "/app/1/notes/proto", at);
        let bundle = publisher.publish(&wm.to_bytes(), at, &mut rng).unwrap();
        // The store node only persists what validation relays.
        if decide(router, &bundle, at, &mut chain) == Outcome::Relay {
            store.insert(WakuMessage::from_bytes(&bundle.payload).unwrap());
        }
    }
    // A rate violation is NOT archived.
    let spam = publisher
        .publish_unchecked(b"same epoch again", 103, &mut rng)
        .unwrap();
    let outcome = decide(router, &spam, 103, &mut chain);
    assert!(matches!(outcome, Outcome::Spam(_)));

    assert_eq!(store.len(), 4);
    let page = store.query(&HistoryQuery {
        content_topics: vec!["/app/1/notes/proto".into()],
        direction: Direction::Backward,
        page_size: 2,
        ..Default::default()
    });
    assert_eq!(page.messages.len(), 2);
    assert_eq!(page.messages[0].timestamp, 103, "newest first");
    assert!(page.next_cursor.is_some());
}

#[test]
fn filter_pushes_only_matching_content_topics() {
    let mut filter = FilterService::new();
    filter.subscribe(7, vec!["/chat".into()]);
    filter.subscribe(8, vec!["/chat".into(), "/alerts".into()]);

    let mut pushes: Vec<(usize, String)> = Vec::new();
    for wm in [
        WakuMessage::new(vec![1], "/chat", 1),
        WakuMessage::new(vec![2], "/alerts", 2),
        WakuMessage::new(vec![3], "/noise", 3),
    ] {
        for peer in filter.match_message(&wm) {
            pushes.push((peer, wm.content_topic.clone()));
        }
    }
    assert_eq!(
        pushes,
        vec![
            (7, "/chat".to_string()),
            (8, "/chat".to_string()),
            (8, "/alerts".to_string())
        ]
    );
}
