//! Fuzz-style robustness: the protocol layer must never panic on hostile
//! input — it faces the network directly. Alongside: round-trip
//! properties of the codec kernels (escape, text scan, hex) against
//! per-character and per-byte oracles, on inputs up to hundreds of KiB.

use proptest::prelude::*;
use proptest::TestCaseResult;

use softrep_proto::framing::read_frame;
use softrep_proto::{ReplEntry, Request, Response, XmlNode};

fn escapable() -> impl Strategy<Value = char> {
    prop_oneof![Just('&'), Just('<'), Just('>'), Just('"'), Just('\'')]
}

fn printable() -> impl Strategy<Value = char> {
    prop_oneof![
        (0x20u8..0x7f).prop_map(char::from),
        any::<char>().prop_filter("no control chars", |c| !c.is_control()),
    ]
}

/// Short text of single characters, five in six of them escapable.
fn short_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(prop_oneof![1 => printable(), 5 => escapable()], 0..40)
        .prop_map(|chars| chars.into_iter().collect::<String>())
}

/// Long text: 16–24 clean runs of up to 8 Ki repeats of one printable
/// character, each followed by a few arbitrary and escapable characters.
/// Almost every draw is past 64 KiB.
fn long_text() -> impl Strategy<Value = String> {
    let run = (printable(), 0usize..8192, short_text());
    proptest::collection::vec(run, 16..=24).prop_map(|runs| {
        let mut text = String::new();
        for (c, repeats, tail) in runs {
            text.extend(std::iter::repeat_n(c, repeats));
            text.push_str(&tail);
        }
        text
    })
}

/// Character data is trimmed on parse, so generated text starts and ends
/// on non-whitespace to round-trip exactly.
fn trimmed(text: impl Strategy<Value = String>) -> impl Strategy<Value = String> {
    text.prop_map(|s| s.trim().to_string())
}

/// The escape rule as a one-character-at-a-time oracle.
fn escaped(text: &str) -> String {
    text.chars()
        .map(|c| match c {
            '&' => "&amp;".to_string(),
            '<' => "&lt;".to_string(),
            '>' => "&gt;".to_string(),
            '"' => "&quot;".to_string(),
            '\'' => "&apos;".to_string(),
            other => other.to_string(),
        })
        .collect()
}

/// `text` and `attr` on one element encode to the per-character escape of
/// each and parse back unchanged.
fn xml_roundtrip(text: &str, attr: &str) -> TestCaseResult {
    let node = XmlNode::new("n").attr("a", attr).with_text(text);
    let doc = node.to_document();
    let body = if text.is_empty() { "/>".to_string() } else { format!(">{}</n>", escaped(text)) };
    let expected =
        format!("<?xml version=\"1.0\" encoding=\"UTF-8\"?><n a=\"{}\"{body}", escaped(attr));
    prop_assert!(doc == expected, "escape differs from the per-character rule");
    let parsed = XmlNode::parse(&doc).unwrap();
    prop_assert_eq!(parsed.get_attr("a").unwrap(), attr);
    prop_assert_eq!(parsed.text, text);
    Ok(())
}

/// A snapshot-chunk document carrying `payload` as its (escaped) text.
fn chunk_document(payload: &str) -> String {
    XmlNode::new("response")
        .attr("status", "repl-snapshot-chunk")
        .attr("seq", "1")
        .attr("offset", "0")
        .attr("total-len", "1")
        .with_text(payload)
        .to_document()
}

fn hex(data: &[u8], upper: &[bool]) -> String {
    data.iter()
        .enumerate()
        .map(|(i, b)| match upper.get(i) {
            Some(true) => format!("{b:02X}"),
            _ => format!("{b:02x}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn xml_parser_never_panics(input in any::<String>()) {
        let _ = XmlNode::parse(&input);
    }

    #[test]
    fn xml_parser_never_panics_on_tag_soup(
        input in proptest::collection::vec(
            prop_oneof![
                Just("<".to_string()),
                Just(">".to_string()),
                Just("</".to_string()),
                Just("/>".to_string()),
                Just("&".to_string()),
                Just(";".to_string()),
                Just("=".to_string()),
                Just("\"".to_string()),
                Just("a".to_string()),
                Just(" ".to_string()),
                Just("<?xml".to_string()),
                Just("?>".to_string()),
                Just("&#x41;".to_string()),
                Just("&#999999999;".to_string()),
            ],
            0..64,
        )
    ) {
        let _ = XmlNode::parse(&input.concat());
    }

    #[test]
    fn message_decoders_never_panic(input in any::<String>()) {
        let _ = Request::decode(&input);
        let _ = Response::decode(&input);
    }

    #[test]
    fn message_decoders_never_panic_on_valid_xml_wrong_schema(
        name in "[a-z]{1,8}",
        attr in "[a-z-]{1,12}",
        value in "[a-zA-Z0-9 ]{0,16}",
        children in proptest::collection::vec(("[a-z-]{1,10}", "[a-zA-Z0-9 .]{0,12}"), 0..6),
    ) {
        let mut node = XmlNode::new(name).attr(attr, value);
        for (child, text) in children {
            node = node.text_child(child, text);
        }
        let doc = node.to_document();
        let _ = Request::decode(&doc);
        let _ = Response::decode(&doc);
    }

    #[test]
    fn frame_reader_never_panics(bytes: Vec<u8>) {
        let _ = read_frame(&mut std::io::Cursor::new(bytes));
    }

    #[test]
    fn short_xml_text_and_attributes_roundtrip_and_escape_per_character(
        text in trimmed(short_text()),
        attr in trimmed(short_text()),
    ) {
        xml_roundtrip(&text, &attr)?;
    }

    #[test]
    fn uppercase_hex_digits_decode_like_lowercase(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        upper in proptest::collection::vec(any::<bool>(), 0..4096),
    ) {
        let expected = Response::ReplSnapshotChunk { seq: 1, offset: 0, total_len: 1, data: data.clone() };
        let all_upper = vec![true; data.len()];
        for doc in [chunk_document(&hex(&data, &upper)), chunk_document(&hex(&data, &all_upper))] {
            prop_assert_eq!(Response::decode(&doc).unwrap(), expected.clone());
        }
    }

    #[test]
    fn non_hex_bytes_and_odd_lengths_are_rejected(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        at: usize,
        bad in any::<char>().prop_filter("not a hex digit", |c| !c.is_ascii_hexdigit()),
    ) {
        let good = hex(&data, &[]);
        let at = at % good.len();
        let mut corrupt = good.clone();
        corrupt.replace_range(at..=at, &bad.to_string());
        prop_assert!(Response::decode(&chunk_document(&corrupt)).is_err(), "accepted {:?}", bad);
        let err = Response::decode(&chunk_document(&good[1..])).unwrap_err();
        prop_assert_eq!(err.to_string(), "protocol message error: hex payload has odd length");
    }

    #[test]
    fn request_roundtrip_is_total_for_generated_requests(
        username in "[a-zA-Z0-9_-]{1,16}",
        text in "[a-zA-Z0-9 <>&\"'.,!?]{0,64}",
        score in 1u8..=10,
        id: u64,
        positive: bool,
    ) {
        // Every constructible request must encode to a document its own
        // decoder accepts (totality of the codec over the value space).
        let requests = vec![
            Request::Login { username: username.clone(), password: text.clone() },
            Request::SubmitComment {
                session: username.clone(),
                software_id: "ab".repeat(20),
                text: text.clone(),
            },
            Request::SubmitVote {
                session: username.clone(),
                software_id: "cd".repeat(20),
                score,
                behaviours: vec![text.clone()],
            },
            Request::RateComment { session: username, comment_id: id, positive },
        ];
        for request in requests {
            let decoded = Request::decode(&request.encode()).unwrap();
            // The XML text model canonicalises character data by trimming
            // leading/trailing whitespace (documented in proto::xml), so
            // every free-text field compares against its trimmed form.
            match (&decoded, &request) {
                (
                    Request::Login { username: du, password: dp },
                    Request::Login { username: ou, password: op },
                ) => {
                    prop_assert_eq!(du, ou);
                    prop_assert_eq!(dp.as_str(), op.trim());
                }
                (
                    Request::SubmitComment { text: dec, .. },
                    Request::SubmitComment { text: orig, .. },
                ) => prop_assert_eq!(dec.as_str(), orig.trim()),
                (
                    Request::SubmitVote { behaviours: dec, .. },
                    Request::SubmitVote { behaviours: orig, .. },
                ) => {
                    prop_assert_eq!(dec.len(), orig.len());
                    for (d, o) in dec.iter().zip(orig) {
                        prop_assert_eq!(d.as_str(), o.trim());
                    }
                }
                _ => prop_assert_eq!(&decoded, &request),
            }
        }
    }
}

// The codec kernels on long inputs. Each case moves up to a few hundred
// KiB through the debug-built codec, so these run fewer cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn long_xml_text_and_attributes_roundtrip_and_escape_per_character(
        text in trimmed(long_text()),
        attr in trimmed(long_text()),
    ) {
        xml_roundtrip(&text, &attr)?;
    }

    #[test]
    fn hex_payloads_roundtrip_up_to_64_kib(
        data in proptest::collection::vec(any::<u8>(), 0..=65_536),
        split: usize,
    ) {
        let chunk = Response::ReplSnapshotChunk {
            seq: 3,
            offset: 0,
            total_len: data.len() as u64,
            data: data.clone(),
        };
        let doc = chunk.encode();
        prop_assert!(doc.contains(&hex(&data, &[])), "payload is not lowercase hex of the bytes");
        prop_assert_eq!(Response::decode(&doc).unwrap(), chunk);
        let cut = split % (data.len() + 1);
        let page = Response::ReplEntries {
            committed_seq: 2,
            backlog_bytes: 0,
            entries: vec![
                ReplEntry { seq: 1, batch: data[..cut].to_vec() },
                ReplEntry { seq: 2, batch: data[cut..].to_vec() },
            ],
        };
        prop_assert_eq!(Response::decode(&page.encode()).unwrap(), page);
    }

}

#[test]
fn pathological_nesting_is_handled() {
    // Deep nesting must neither crash nor hang.
    let depth = 5_000;
    let mut doc = String::new();
    for i in 0..depth {
        doc.push_str(&format!("<n{i}>"));
    }
    for i in (0..depth).rev() {
        doc.push_str(&format!("</n{i}>"));
    }
    // Recursion depth: the parser is recursive-descent; very deep nesting
    // may legitimately fail, but it must fail by Result, not by abort —
    // run it on a thread with a large stack to verify the Result path.
    let handle = std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(move || XmlNode::parse(&doc).map(|n| n.name))
        .unwrap();
    let result = handle.join().expect("no panic");
    assert!(result.is_ok());
}

#[test]
fn huge_entity_values_are_rejected_not_expanded() {
    // The classic billion-laughs shape is impossible (no DTD), but huge
    // numeric references must also be rejected cheaply.
    assert!(XmlNode::parse("<a>&#99999999999999999999;</a>").is_err());
    assert!(XmlNode::parse("<a>&verylongentityname_that_exceeds_the_cap;</a>").is_err());
}
