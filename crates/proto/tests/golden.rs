//! Golden wire corpus: every message encodes to exactly the bytes stored
//! in `tests/golden/<name>.xml`, and those bytes decode back to the value.
//!
//! The files were written by the encoder as it stood before its escape,
//! text-scan and hex kernels were rewritten for speed, so any drift in an
//! escape, a digit's case, an attribute's quoting or the element layout
//! fails here as a byte diff. The corpus is a record of the wire format,
//! not a snapshot to refresh: a test failure here means the wire changed.
//!
//! Besides the encode/decode pairs the file pins decode-only documents
//! (numeric character references, adjacent entities, raw `<` inside a
//! quoted attribute, uppercase hex payloads, text split around a child)
//! and the exact error, message and byte offset, for rejected input.

use std::path::PathBuf;

use softrep_proto::message::{CommentInfo, SoftwareInfo};
use softrep_proto::{ReplEntry, Request, Response, XmlNode};

/// Every XML-special character, multibyte UTF-8 (2-, 3- and 4-byte), a
/// tab, a carriage return and a control character, between clean runs.
const NASTY: &str = "a&b<c>d\"e'f && <<>> \"'\" Högskola — 評価 ✓ 🦀\ttab\rcr\u{1}ctl";

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn corpus_path(name: &str) -> PathBuf {
    corpus_dir().join(format!("{name}.xml"))
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(corpus_path(name))
        .unwrap_or_else(|e| panic!("golden file {name}.xml: {e}"))
}

/// `(file name, value)`; every value decodes back to itself.
fn requests() -> Vec<(&'static str, Request)> {
    vec![
        ("request-get-puzzle", Request::GetPuzzle),
        (
            "request-register",
            Request::Register {
                username: "alice".into(),
                password: NASTY.into(),
                email: "alice@example.com".into(),
                puzzle_challenge: "16:00ff".into(),
                puzzle_solution: u64::MAX,
            },
        ),
        ("request-activate", Request::Activate { username: "alice".into(), token: "t0k".into() }),
        ("request-login", Request::Login { username: "Åsa".into(), password: "p<&>'\"w".into() }),
        ("request-query-software", Request::QuerySoftware { software_id: "ab".repeat(20) }),
        (
            "request-register-software",
            Request::RegisterSoftware {
                software_id: "ff".repeat(20),
                file_name: "set<up>.exe".into(),
                file_size: 1_234_567,
                company: Some("Acme & Co's \"Tools\"".into()),
                version: Some("2.0 β".into()),
            },
        ),
        (
            "request-register-software-bare",
            Request::RegisterSoftware {
                software_id: "ee".repeat(20),
                file_name: "a.exe".into(),
                file_size: 0,
                company: None,
                version: None,
            },
        ),
        (
            "request-submit-vote",
            Request::SubmitVote {
                session: "s".into(),
                software_id: "aa".into(),
                score: 10,
                behaviours: vec!["popup_ads".into(), "track&spy".into()],
            },
        ),
        (
            "request-submit-comment",
            Request::SubmitComment {
                session: "s".into(),
                software_id: "aa".into(),
                text: NASTY.into(),
            },
        ),
        (
            "request-rate-comment",
            Request::RateComment { session: "s".into(), comment_id: 9, positive: true },
        ),
        (
            "request-rate-comment-negative",
            Request::RateComment { session: "s".into(), comment_id: 0, positive: false },
        ),
        ("request-query-vendor", Request::QueryVendor { vendor: "Gator <Corp>".into() }),
        ("request-query-details", Request::QueryDetails { software_id: "cd".into() }),
        (
            "request-submit-evidence",
            Request::SubmitEvidence {
                analyzer_token: "secret&token".into(),
                software_id: "aa".into(),
                behaviours: vec!["tracking".into(), "keylog".into()],
                analyzer: "sandbox-1".into(),
            },
        ),
        (
            "request-create-feed",
            Request::CreateFeed { session: "s".into(), name: "my-feed".into() },
        ),
        (
            "request-publish-feed-entry",
            Request::PublishFeedEntry {
                session: "s".into(),
                feed: "my-feed".into(),
                software_id: "aa".into(),
                rating: 7.5,
                behaviours: vec!["ads".into()],
            },
        ),
        (
            "request-query-feed-entry",
            Request::QueryFeedEntry { feed: "my-feed".into(), software_id: "aa".into() },
        ),
        ("request-get-pseudonym-key", Request::GetPseudonymKey),
        (
            "request-blind-sign-pseudonym",
            Request::BlindSignPseudonym { session: "s".into(), blinded: "0123abcd".into() },
        ),
        (
            "request-register-pseudonym",
            Request::RegisterPseudonym {
                username: "nym".into(),
                password: "pw".into(),
                token: "beef".into(),
                signature: "cafe".into(),
            },
        ),
        (
            "request-repl-subscribe",
            Request::ReplSubscribe { from_seq: 12_345, max_entries: 256, max_bytes: 1 << 18 },
        ),
        ("request-repl-snapshot", Request::ReplSnapshot { seq: 987, offset: 262_144 }),
    ]
}

/// `(file name, value)`; every value decodes back to itself.
fn responses() -> Vec<(&'static str, Response)> {
    let all_bytes: Vec<u8> = (0u8..=255).collect();
    vec![
        ("response-ok", Response::Ok),
        (
            "response-error",
            Response::Error { code: " spaced <code> ".into(), message: NASTY.into() },
        ),
        ("response-puzzle", Response::Puzzle { challenge: "16:aabb".into() }),
        ("response-registered", Response::Registered { activation_token: "tok".into() }),
        ("response-session", Response::Session { token: "sess".into() }),
        (
            "response-software",
            Response::Software(SoftwareInfo {
                software_id: "ab".repeat(20),
                file_name: Some("weather<bar>.exe".into()),
                company: Some("Acme & Co".into()),
                version: Some("2.1".into()),
                rating: Some(3.5),
                vote_count: 125,
                behaviours: vec!["popup_ads".into(), "a'b".into()],
                verified_behaviours: vec!["tracking".into()],
                comments: vec![
                    CommentInfo {
                        id: 1,
                        author: "  <&> \"quoted\" 'author'  ".into(),
                        text: NASTY.into(),
                        remark_score: 14,
                    },
                    CommentInfo {
                        id: u64::MAX,
                        author: "評価者".into(),
                        text: "gr8".into(),
                        remark_score: -3,
                    },
                ],
            }),
        ),
        (
            "response-software-bare",
            Response::Software(SoftwareInfo {
                software_id: "cc".into(),
                file_name: None,
                company: None,
                version: None,
                rating: None,
                vote_count: 0,
                behaviours: vec![],
                verified_behaviours: vec![],
                comments: vec![],
            }),
        ),
        ("response-unknown-software", Response::UnknownSoftware { software_id: "dead".into() }),
        (
            "response-feed-entry",
            Response::FeedEntry {
                feed: "my-feed".into(),
                software_id: "aa".into(),
                rating: 2.25,
                behaviours: vec!["ads".into(), "<script>".into()],
            },
        ),
        (
            "response-pseudonym-key",
            Response::PseudonymKey { n: "c0ffee".into(), e: "10001".into() },
        ),
        ("response-blind-signature", Response::BlindSignature { value: "abcdef".into() }),
        (
            "response-vendor",
            Response::Vendor {
                vendor: "Acme & Sons".into(),
                rating: Some(7.25),
                software_count: 12,
            },
        ),
        (
            "response-vendor-unrated",
            Response::Vendor { vendor: "Mystery".into(), rating: None, software_count: 0 },
        ),
        (
            "response-repl-entries",
            Response::ReplEntries {
                committed_seq: 1_000_004,
                backlog_bytes: 9_001,
                entries: vec![
                    ReplEntry { seq: 1_000_001, batch: all_bytes.clone() },
                    ReplEntry { seq: 1_000_002, batch: all_bytes.iter().rev().copied().collect() },
                    ReplEntry { seq: 1_000_003, batch: Vec::new() },
                    ReplEntry { seq: 1_000_004, batch: vec![0x3c, 0x26, 0x3e, 0x22, 0x27, 0x20] },
                ],
            },
        ),
        (
            "response-repl-entries-empty",
            Response::ReplEntries { committed_seq: 0, backlog_bytes: 0, entries: Vec::new() },
        ),
        (
            "response-repl-snapshot-chunk",
            Response::ReplSnapshotChunk {
                seq: 7,
                offset: 1024,
                total_len: 4096,
                data: all_bytes.iter().map(|b| b.wrapping_mul(37)).collect(),
            },
        ),
        ("response-repl-resync", Response::ReplResync { committed_seq: 55 }),
        ("response-not-primary", Response::NotPrimary { primary: "10.0.0.1:7007".into() }),
    ]
}

/// `(file name, value, decoded)`: character data is whitespace-trimmed on
/// parse, so these encode leading/trailing whitespace but decode without it.
fn trimmed() -> Vec<(&'static str, Request, Request)> {
    vec![(
        "request-submit-comment-padded",
        Request::SubmitComment {
            session: " s ".into(),
            software_id: "aa".into(),
            text: " \t\n padded & <spaced>\r\n ".into(),
        },
        Request::SubmitComment {
            session: "s".into(),
            software_id: "aa".into(),
            text: "padded & <spaced>".into(),
        },
    )]
}

#[test]
fn requests_encode_to_the_golden_bytes_and_decode_back() {
    for (name, value) in requests() {
        assert_eq!(value.encode(), golden(name), "{name}: encoding drifted");
        assert_eq!(Request::decode(&golden(name)).unwrap(), value, "{name}: decoding drifted");
    }
    for (name, value, decoded) in trimmed() {
        assert_eq!(value.encode(), golden(name), "{name}: encoding drifted");
        assert_eq!(Request::decode(&golden(name)).unwrap(), decoded, "{name}: decoding drifted");
    }
}

#[test]
fn responses_encode_to_the_golden_bytes_and_decode_back() {
    for (name, value) in responses() {
        assert_eq!(value.encode(), golden(name), "{name}: encoding drifted");
        assert_eq!(Response::decode(&golden(name)).unwrap(), value, "{name}: decoding drifted");
    }
}

#[test]
fn every_golden_file_belongs_to_a_case() {
    let mut named: Vec<String> = requests().into_iter().map(|(n, _)| n.to_string()).collect();
    named.extend(responses().into_iter().map(|(n, _)| n.to_string()));
    named.extend(trimmed().into_iter().map(|(n, _, _)| n.to_string()));
    let dir = corpus_dir();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let file = entry.unwrap().file_name().into_string().unwrap();
        let stem = file.strip_suffix(".xml").unwrap_or(&file);
        assert!(named.iter().any(|n| n == stem), "orphan golden file {file}");
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), named.len());
}

#[test]
fn decode_only_documents_decode_as_recorded() {
    let login = |username: &str, password: &str| Request::Login {
        username: username.into(),
        password: password.into(),
    };
    let requests = [
        (
            "<request type=\"login\"><username>&#x41;&#65;&#X42;&#+67;&#x+44;</username>\
             <password>&lt;&amp;&gt;&quot;&apos;&amp;amp;</password></request>",
            login("AABCD", "<&>\"'&amp;"),
        ),
        (
            "<?xml version=\"1.0\"?>\n<request type='login'>\n  <username> bob </username>\n  \
             <password>a>b &#x1F980;&#233;\u{e9}</password>\n</request>\n",
            login("bob", "a>b 🦀éé"),
        ),
    ];
    for (doc, value) in requests {
        assert_eq!(Request::decode(doc).unwrap(), value, "document: {doc}");
    }
    let responses = [
        (
            "<response status='error' code='a<b \"c\" &#x26;'>msg</response>",
            Response::Error { code: "a<b \"c\" &".into(), message: "msg".into() },
        ),
        (
            "<response status=\"error\" code=\"c\"> a <x/> b <y>ignored</y>c&amp; </response>",
            Response::Error { code: "c".into(), message: "a  b c&".into() },
        ),
        (
            "<response status=\"repl-entries\" committed-seq=\"2\" backlog-bytes=\"0\">\
             <entry seq=\"1\">00FFaB&#x30;&#x31;</entry><entry seq=\"2\"/></response>",
            Response::ReplEntries {
                committed_seq: 2,
                backlog_bytes: 0,
                entries: vec![
                    ReplEntry { seq: 1, batch: vec![0x00, 0xff, 0xab, 0x01] },
                    ReplEntry { seq: 2, batch: vec![] },
                ],
            },
        ),
        (
            "<response status=\"repl-snapshot-chunk\" seq=\"1\" offset=\"0\" total-len=\"2\">\
             \n  DEad\n</response>",
            Response::ReplSnapshotChunk { seq: 1, offset: 0, total_len: 2, data: vec![0xde, 0xad] },
        ),
    ];
    for (doc, value) in responses {
        assert_eq!(Response::decode(doc).unwrap(), value, "document: {doc}");
    }
}

#[test]
fn rejected_documents_fail_with_the_recorded_error() {
    let cases = [
        ("<a>&bogus;</a>", "XML error at byte 10: unknown entity reference &bogus;"),
        ("<a>&#xZZ;</a>", "XML error at byte 9: unknown entity reference &#xZZ;"),
        ("<a>&#xD800;</a>", "XML error at byte 11: unknown entity reference &#xD800;"),
        ("<a>&#1114112;</a>", "XML error at byte 13: unknown entity reference &#1114112;"),
        ("<a>&#;</a>", "XML error at byte 6: unknown entity reference &#;"),
        ("<a>&;</a>", "XML error at byte 5: unknown entity reference &;"),
        ("<a>&#-65;</a>", "XML error at byte 9: unknown entity reference &#-65;"),
        ("<a>&verylongname;</a>", "XML error at byte 15: entity reference too long"),
        ("<a>&amp</a>", "XML error at byte 11: unterminated entity reference"),
        ("<a k=\"&lt\"/>", "XML error at byte 12: unterminated entity reference"),
        ("<a>abc", "XML error at byte 6: unterminated character data"),
        ("<a>abc &amp; é", "XML error at byte 15: unterminated character data"),
        ("<a k=\"abc", "XML error at byte 9: unterminated attribute value"),
        ("<a k='ab\"c/>", "XML error at byte 12: unterminated attribute value"),
        ("<a k=v/>", "XML error at byte 6: attribute value must be quoted"),
        ("<a>x</b>", "XML error at byte 7: mismatched end tag: expected </a>, found </b>"),
        (
            "<a>x<!-- c --></a>",
            "XML error at byte 5: comments, DTDs and processing instructions are not supported",
        ),
        ("<a/>junk", "XML error at byte 4: trailing content after root element"),
    ];
    for (doc, expected) in cases {
        let err = XmlNode::parse(doc).expect_err(doc);
        assert_eq!(err.to_string(), expected, "document: {doc}");
    }
    let payloads = [
        ("abc", "protocol message error: hex payload has odd length"),
        ("abz", "protocol message error: hex payload has odd length"),
        ("zz", "protocol message error: invalid hex digit in payload"),
        ("0g", "protocol message error: invalid hex digit in payload"),
        ("00 1", "protocol message error: invalid hex digit in payload"),
        ("é", "protocol message error: invalid hex digit in payload"),
    ];
    for (payload, expected) in payloads {
        let doc = format!(
            "<response status=\"repl-entries\" committed-seq=\"1\" backlog-bytes=\"0\">\
             <entry seq=\"1\">{payload}</entry></response>"
        );
        let err = Response::decode(&doc).expect_err(payload);
        assert_eq!(err.to_string(), expected, "payload: {payload}");
        let doc = format!(
            "<response status=\"repl-snapshot-chunk\" seq=\"1\" offset=\"0\" total-len=\"2\">\
             {payload}</response>"
        );
        assert_eq!(Response::decode(&doc).expect_err(payload).to_string(), expected);
    }
}
