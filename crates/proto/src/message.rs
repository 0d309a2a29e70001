//! Typed protocol messages and their canonical XML encodings.
//!
//! Covers every interaction the paper describes: account registration with
//! e-mail confirmation (§3.2), puzzle-gated signup (§5), login, software
//! information queries at execution time (§3.1), vote/comment submission,
//! comment remarks ("positive for a good, clear and useful comment or
//! negative…", §3.2), vendor rating queries (§3.3), and first-sight software
//! metadata registration.

use crate::xml::{XmlError, XmlNode};

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Ask for a registration puzzle challenge.
    GetPuzzle,
    /// Create an account. `puzzle_*` echo the challenge and its solution.
    Register {
        /// Desired username (the only identity the server will store).
        username: String,
        /// Plaintext password (hashed server-side; the transport layer /
        /// anonymity circuit protects it in flight).
        password: String,
        /// E-mail address, used once for activation and stored only as a
        /// peppered hash.
        email: String,
        /// The challenge string previously issued via [`Request::GetPuzzle`].
        puzzle_challenge: String,
        /// The solved nonce.
        puzzle_solution: u64,
    },
    /// Activate an account using the token that was "e-mailed" to the user.
    Activate {
        /// Account to activate.
        username: String,
        /// Activation token.
        token: String,
    },
    /// Log in, obtaining a session token.
    Login {
        /// Account name.
        username: String,
        /// Plaintext password.
        password: String,
    },
    /// Fetch the aggregated reputation for one executable.
    QuerySoftware {
        /// Hex digest of the executable (the software ID).
        software_id: String,
    },
    /// Report metadata for an executable the server may not know yet.
    RegisterSoftware {
        /// Hex digest of the executable.
        software_id: String,
        /// Executable file name.
        file_name: String,
        /// File size in bytes.
        file_size: u64,
        /// Vendor name embedded in the binary, if any.
        company: Option<String>,
        /// Version string embedded in the binary, if any.
        version: Option<String>,
    },
    /// Submit (or replace) the caller's 1–10 vote for a software.
    SubmitVote {
        /// Session token from [`Request::Login`].
        session: String,
        /// Hex digest of the executable.
        software_id: String,
        /// Score in 1..=10.
        score: u8,
        /// Reported behaviours observed by the user (free-form tags such as
        /// `popup_ads`, used by the policy manager).
        behaviours: Vec<String>,
    },
    /// Submit a comment for a software.
    SubmitComment {
        /// Session token.
        session: String,
        /// Hex digest of the executable.
        software_id: String,
        /// Free-text comment.
        text: String,
    },
    /// Remark on another user's comment (+1 helpful / -1 unhelpful).
    RateComment {
        /// Session token.
        session: String,
        /// Identifier of the comment being rated.
        comment_id: u64,
        /// True = positive remark, false = negative.
        positive: bool,
    },
    /// Fetch the derived rating for a vendor (mean over its software).
    QueryVendor {
        /// Vendor (company) name.
        vendor: String,
    },
    /// Fetch the web-style detail report for one executable.
    QueryDetails {
        /// Hex digest of the executable.
        software_id: String,
    },
    /// Submit runtime-analysis evidence (§5 future work). Authenticated
    /// by a shared analyzer token, not a user session: analyzers are
    /// infrastructure, not members.
    SubmitEvidence {
        /// The analyzer's shared secret.
        analyzer_token: String,
        /// Hex digest of the analysed executable.
        software_id: String,
        /// Behaviours the sandbox observed.
        behaviours: Vec<String>,
        /// Analyzer identifier recorded with the evidence.
        analyzer: String,
    },
    /// Create a rating feed owned by the session's user (§4.2).
    CreateFeed {
        /// Session token.
        session: String,
        /// Feed name ([a-z0-9-], 3–32 chars).
        name: String,
    },
    /// Publish (or update) a feed entry (owner only).
    PublishFeedEntry {
        /// Session token.
        session: String,
        /// Feed name.
        feed: String,
        /// Hex digest of the target executable.
        software_id: String,
        /// The feed's rating (1.0–10.0).
        rating: f64,
        /// Behaviours the feed reports.
        behaviours: Vec<String>,
    },
    /// Fetch a feed's verdict on one executable.
    QueryFeedEntry {
        /// Feed name.
        feed: String,
        /// Hex digest of the executable.
        software_id: String,
    },
    /// Fetch the server's pseudonym-credential RSA public key (§5).
    GetPseudonymKey,
    /// Ask the server to blind-sign a pseudonym token (one per member).
    BlindSignPseudonym {
        /// Session token (proves membership).
        session: String,
        /// The blinded group element, hex.
        blinded: String,
    },
    /// Redeem an unblinded credential as a fresh pseudonym account. No
    /// session: presenting one would link the pseudonym to the member.
    RegisterPseudonym {
        /// Pseudonym username.
        username: String,
        /// Pseudonym password.
        password: String,
        /// The signed token bytes, hex.
        token: String,
        /// The RSA signature over the token, hex.
        signature: String,
    },
    /// Replication: a replica asks the primary for committed WAL entries
    /// after its applied watermark (DESIGN.md §15).
    ReplSubscribe {
        /// The subscriber's applied watermark; entries start at
        /// `from_seq + 1`.
        from_seq: u64,
        /// Page cap: entries per response.
        max_entries: u32,
        /// Page cap: total entry bytes per response (pre-hex).
        max_bytes: u32,
    },
    /// Replication: fetch one chunk of a bootstrap snapshot. `seq` 0 asks
    /// the primary to cut (or reuse) its current export; later chunks name
    /// the sequence number of the cut being assembled.
    ReplSnapshot {
        /// Covered sequence number of the snapshot being fetched (0 on
        /// the first chunk of a fresh bootstrap).
        seq: u64,
        /// Byte offset into the encoded snapshot.
        offset: u64,
    },
}

/// One comment as rendered in responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommentInfo {
    /// Server-assigned id (target for [`Request::RateComment`]).
    pub id: u64,
    /// Author username.
    pub author: String,
    /// Comment text.
    pub text: String,
    /// Net remark score (positive minus negative remarks).
    pub remark_score: i64,
}

/// Aggregated software information returned to the client at execution time.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftwareInfo {
    /// Hex digest of the executable.
    pub software_id: String,
    /// File name, if known.
    pub file_name: Option<String>,
    /// Vendor, if the binary declared one.
    pub company: Option<String>,
    /// Version, if the binary declared one.
    pub version: Option<String>,
    /// Trust-weighted aggregate rating 1.0–10.0 (None until first batch
    /// aggregation covering at least one vote).
    pub rating: Option<f64>,
    /// Number of votes behind the rating.
    pub vote_count: u64,
    /// Behaviours reported by voters, most-reported first.
    pub behaviours: Vec<String>,
    /// Behaviours verified by runtime analysis (§5 "hard evidence").
    pub verified_behaviours: Vec<String>,
    /// Top comments.
    pub comments: Vec<CommentInfo>,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Generic success.
    Ok,
    /// Failure, with a machine-readable code and human-readable message.
    Error {
        /// Stable error code (e.g. `duplicate-email`, `bad-credentials`).
        code: String,
        /// Description for display.
        message: String,
    },
    /// A puzzle challenge to solve before registration.
    Puzzle {
        /// Encoded challenge (difficulty + nonce).
        challenge: String,
    },
    /// Registration accepted; account pending activation.
    Registered {
        /// Activation token (in the real deployment this goes out by
        /// e-mail; the simulated mail system delivers it in-band).
        activation_token: String,
    },
    /// Login succeeded.
    Session {
        /// Bearer token for subsequent requests.
        token: String,
    },
    /// Aggregated software information.
    Software(SoftwareInfo),
    /// The server has never seen this executable.
    UnknownSoftware {
        /// Echo of the queried id.
        software_id: String,
    },
    /// A feed's verdict on one executable.
    FeedEntry {
        /// Feed name.
        feed: String,
        /// Hex digest of the executable.
        software_id: String,
        /// The feed's rating.
        rating: f64,
        /// Behaviours the feed reports.
        behaviours: Vec<String>,
    },
    /// The pseudonym-credential public key.
    PseudonymKey {
        /// RSA modulus, hex.
        n: String,
        /// RSA public exponent, hex.
        e: String,
    },
    /// A blind signature over a previously submitted blinded element.
    BlindSignature {
        /// The signed blinded element, hex.
        value: String,
    },
    /// Derived vendor reputation.
    Vendor {
        /// Vendor name.
        vendor: String,
        /// Mean rating over the vendor's software (None when unrated).
        rating: Option<f64>,
        /// Number of distinct software titles attributed to the vendor.
        software_count: u64,
    },
    /// Replication: a page of committed WAL entries for a subscriber.
    ReplEntries {
        /// The primary's newest committed sequence number.
        committed_seq: u64,
        /// Bytes of committed entries beyond this page (lag in bytes).
        backlog_bytes: u64,
        /// The entries, in sequence order, gapless from the subscription
        /// point.
        entries: Vec<ReplEntry>,
    },
    /// Replication: one chunk of an encoded bootstrap snapshot.
    ReplSnapshotChunk {
        /// Commit sequence number the snapshot covers. A subscriber that
        /// sees this change mid-assembly restarts from offset 0.
        seq: u64,
        /// Byte offset of `data` within the encoded snapshot.
        offset: u64,
        /// Total encoded snapshot length in bytes.
        total_len: u64,
        /// The chunk bytes.
        data: Vec<u8>,
    },
    /// Replication: the requested log suffix is gone (compacted) or ahead
    /// of this primary's history — bootstrap from a snapshot instead.
    ReplResync {
        /// The primary's newest committed sequence number.
        committed_seq: u64,
    },
    /// The receiving node is a read replica and cannot serve this request;
    /// retry against the primary at the carried address.
    NotPrimary {
        /// `host:port` of the primary's protocol endpoint.
        primary: String,
    },
}

/// One committed entry inside a [`Response::ReplEntries`] page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplEntry {
    /// The primary's commit sequence number for this batch.
    pub seq: u64,
    /// The encoded `WriteBatch` bytes exactly as journaled.
    pub batch: Vec<u8>,
}

/// Error raised when a message cannot be decoded from XML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageError(pub String);

impl std::fmt::Display for MessageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol message error: {}", self.0)
    }
}

impl std::error::Error for MessageError {}

impl From<XmlError> for MessageError {
    fn from(e: XmlError) -> Self {
        MessageError(e.to_string())
    }
}

fn required<'a>(node: &'a XmlNode, child: &str) -> Result<&'a str, MessageError> {
    node.child_text(child).ok_or_else(|| MessageError(format!("missing <{child}> element")))
}

fn required_parse<T: std::str::FromStr>(node: &XmlNode, child: &str) -> Result<T, MessageError> {
    required(node, child)?
        .parse()
        .map_err(|_| MessageError(format!("<{child}> is not a valid value")))
}

fn required_attr_parse<T: std::str::FromStr>(
    node: &XmlNode,
    attr: &str,
) -> Result<T, MessageError> {
    node.get_attr(attr)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| MessageError(format!("missing or invalid {attr} attribute")))
}

/// Lowercase hex rendering for binary payloads (WAL batches, snapshot
/// chunks). Hex is XML-safe — no escaping interactions — at a 2× size
/// cost the replication page limits already budget for.
fn hex_encode(bytes: &[u8]) -> String {
    let mut out = vec![0u8; bytes.len() * 2];
    for (pair, &b) in out.chunks_exact_mut(2).zip(bytes) {
        pair[0] = HEX_DIGITS[usize::from(b >> 4)];
        pair[1] = HEX_DIGITS[usize::from(b & 0x0f)];
    }
    String::from_utf8(out).expect("hex digits are ASCII")
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Nibble value of each byte; 0xff marks a byte that is not a hex digit
/// (either case is accepted).
const HEX_VALUES: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        table[HEX_DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

fn hex_decode(text: &str) -> Result<Vec<u8>, MessageError> {
    let raw = text.as_bytes();
    if !raw.len().is_multiple_of(2) {
        return Err(MessageError("hex payload has odd length".into()));
    }
    // Decode every pair, OR-ing the nibbles into `seen`, and judge once:
    // a non-digit sets the high bit that no digit's value has.
    let mut seen = 0u8;
    let out = raw
        .chunks_exact(2)
        .map(|pair| {
            let (hi, lo) = (HEX_VALUES[usize::from(pair[0])], HEX_VALUES[usize::from(pair[1])]);
            seen |= hi | lo;
            (hi << 4) | lo
        })
        .collect();
    if seen & 0x80 != 0 {
        return Err(MessageError("invalid hex digit in payload".into()));
    }
    Ok(out)
}

impl Request {
    /// Canonical XML rendering.
    pub fn to_xml(&self) -> XmlNode {
        match self {
            Request::GetPuzzle => XmlNode::new("request").attr("type", "get-puzzle"),
            Request::Register { username, password, email, puzzle_challenge, puzzle_solution } => {
                XmlNode::new("request")
                    .attr("type", "register")
                    .text_child("username", username)
                    .text_child("password", password)
                    .text_child("email", email)
                    .text_child("puzzle-challenge", puzzle_challenge)
                    .text_child("puzzle-solution", puzzle_solution.to_string())
            }
            Request::Activate { username, token } => XmlNode::new("request")
                .attr("type", "activate")
                .text_child("username", username)
                .text_child("token", token),
            Request::Login { username, password } => XmlNode::new("request")
                .attr("type", "login")
                .text_child("username", username)
                .text_child("password", password),
            Request::QuerySoftware { software_id } => XmlNode::new("request")
                .attr("type", "query-software")
                .text_child("software-id", software_id),
            Request::RegisterSoftware { software_id, file_name, file_size, company, version } => {
                let mut node = XmlNode::new("request")
                    .attr("type", "register-software")
                    .text_child("software-id", software_id)
                    .text_child("file-name", file_name)
                    .text_child("file-size", file_size.to_string());
                if let Some(c) = company {
                    node = node.text_child("company", c);
                }
                if let Some(v) = version {
                    node = node.text_child("version", v);
                }
                node
            }
            Request::SubmitVote { session, software_id, score, behaviours } => {
                let mut node = XmlNode::new("request")
                    .attr("type", "submit-vote")
                    .text_child("session", session)
                    .text_child("software-id", software_id)
                    .text_child("score", score.to_string());
                for b in behaviours {
                    node = node.text_child("behaviour", b);
                }
                node
            }
            Request::SubmitComment { session, software_id, text } => XmlNode::new("request")
                .attr("type", "submit-comment")
                .text_child("session", session)
                .text_child("software-id", software_id)
                .text_child("text", text),
            Request::RateComment { session, comment_id, positive } => XmlNode::new("request")
                .attr("type", "rate-comment")
                .text_child("session", session)
                .text_child("comment-id", comment_id.to_string())
                .text_child("positive", if *positive { "true" } else { "false" }),
            Request::QueryVendor { vendor } => {
                XmlNode::new("request").attr("type", "query-vendor").text_child("vendor", vendor)
            }
            Request::QueryDetails { software_id } => XmlNode::new("request")
                .attr("type", "query-details")
                .text_child("software-id", software_id),
            Request::SubmitEvidence { analyzer_token, software_id, behaviours, analyzer } => {
                let mut node = XmlNode::new("request")
                    .attr("type", "submit-evidence")
                    .text_child("analyzer-token", analyzer_token)
                    .text_child("software-id", software_id)
                    .text_child("analyzer", analyzer);
                for b in behaviours {
                    node = node.text_child("behaviour", b);
                }
                node
            }
            Request::CreateFeed { session, name } => XmlNode::new("request")
                .attr("type", "create-feed")
                .text_child("session", session)
                .text_child("name", name),
            Request::PublishFeedEntry { session, feed, software_id, rating, behaviours } => {
                let mut node = XmlNode::new("request")
                    .attr("type", "publish-feed-entry")
                    .text_child("session", session)
                    .text_child("feed", feed)
                    .text_child("software-id", software_id)
                    .text_child("rating", format!("{rating:.4}"));
                for b in behaviours {
                    node = node.text_child("behaviour", b);
                }
                node
            }
            Request::QueryFeedEntry { feed, software_id } => XmlNode::new("request")
                .attr("type", "query-feed-entry")
                .text_child("feed", feed)
                .text_child("software-id", software_id),
            Request::GetPseudonymKey => XmlNode::new("request").attr("type", "get-pseudonym-key"),
            Request::BlindSignPseudonym { session, blinded } => XmlNode::new("request")
                .attr("type", "blind-sign-pseudonym")
                .text_child("session", session)
                .text_child("blinded", blinded),
            Request::RegisterPseudonym { username, password, token, signature } => {
                XmlNode::new("request")
                    .attr("type", "register-pseudonym")
                    .text_child("username", username)
                    .text_child("password", password)
                    .text_child("token", token)
                    .text_child("signature", signature)
            }
            Request::ReplSubscribe { from_seq, max_entries, max_bytes } => XmlNode::new("request")
                .attr("type", "repl-subscribe")
                .attr("from-seq", from_seq.to_string())
                .attr("max-entries", max_entries.to_string())
                .attr("max-bytes", max_bytes.to_string()),
            Request::ReplSnapshot { seq, offset } => XmlNode::new("request")
                .attr("type", "repl-snapshot")
                .attr("seq", seq.to_string())
                .attr("offset", offset.to_string()),
        }
    }

    /// True when a read replica can answer this request from its local
    /// store. Everything else must reach the primary: writes obviously,
    /// but also the interactive flows that *lead* to writes (puzzles,
    /// registration, login, pseudonym credentials) — their server-side
    /// state (puzzle table, sessions, signing key) lives on the primary.
    /// The replication requests themselves are servable so replicas can
    /// be chained.
    pub fn is_replica_servable(&self) -> bool {
        match self {
            Request::QuerySoftware { .. }
            | Request::QueryDetails { .. }
            | Request::QueryVendor { .. }
            | Request::QueryFeedEntry { .. }
            | Request::ReplSubscribe { .. }
            | Request::ReplSnapshot { .. } => true,
            Request::GetPuzzle
            | Request::Register { .. }
            | Request::Activate { .. }
            | Request::Login { .. }
            | Request::RegisterSoftware { .. }
            | Request::SubmitVote { .. }
            | Request::SubmitComment { .. }
            | Request::RateComment { .. }
            | Request::SubmitEvidence { .. }
            | Request::CreateFeed { .. }
            | Request::PublishFeedEntry { .. }
            | Request::GetPseudonymKey
            | Request::BlindSignPseudonym { .. }
            | Request::RegisterPseudonym { .. } => false,
        }
    }

    /// Decode from a parsed XML element.
    pub fn from_xml(node: &XmlNode) -> Result<Self, MessageError> {
        if node.name != "request" {
            return Err(MessageError(format!("expected <request>, found <{}>", node.name)));
        }
        let ty =
            node.get_attr("type").ok_or_else(|| MessageError("missing type attribute".into()))?;
        match ty {
            "get-puzzle" => Ok(Request::GetPuzzle),
            "register" => Ok(Request::Register {
                username: required(node, "username")?.to_string(),
                password: required(node, "password")?.to_string(),
                email: required(node, "email")?.to_string(),
                puzzle_challenge: required(node, "puzzle-challenge")?.to_string(),
                puzzle_solution: required_parse(node, "puzzle-solution")?,
            }),
            "activate" => Ok(Request::Activate {
                username: required(node, "username")?.to_string(),
                token: required(node, "token")?.to_string(),
            }),
            "login" => Ok(Request::Login {
                username: required(node, "username")?.to_string(),
                password: required(node, "password")?.to_string(),
            }),
            "query-software" => Ok(Request::QuerySoftware {
                software_id: required(node, "software-id")?.to_string(),
            }),
            "register-software" => Ok(Request::RegisterSoftware {
                software_id: required(node, "software-id")?.to_string(),
                file_name: required(node, "file-name")?.to_string(),
                file_size: required_parse(node, "file-size")?,
                company: node.child_text("company").map(str::to_string),
                version: node.child_text("version").map(str::to_string),
            }),
            "submit-vote" => Ok(Request::SubmitVote {
                session: required(node, "session")?.to_string(),
                software_id: required(node, "software-id")?.to_string(),
                score: required_parse(node, "score")?,
                behaviours: node.get_children("behaviour").map(|c| c.text.clone()).collect(),
            }),
            "submit-comment" => Ok(Request::SubmitComment {
                session: required(node, "session")?.to_string(),
                software_id: required(node, "software-id")?.to_string(),
                text: required(node, "text")?.to_string(),
            }),
            "rate-comment" => Ok(Request::RateComment {
                session: required(node, "session")?.to_string(),
                comment_id: required_parse(node, "comment-id")?,
                positive: match required(node, "positive")? {
                    "true" => true,
                    "false" => false,
                    other => return Err(MessageError(format!("invalid boolean '{other}'"))),
                },
            }),
            "query-vendor" => {
                Ok(Request::QueryVendor { vendor: required(node, "vendor")?.to_string() })
            }
            "query-details" => Ok(Request::QueryDetails {
                software_id: required(node, "software-id")?.to_string(),
            }),
            "submit-evidence" => Ok(Request::SubmitEvidence {
                analyzer_token: required(node, "analyzer-token")?.to_string(),
                software_id: required(node, "software-id")?.to_string(),
                behaviours: node.get_children("behaviour").map(|c| c.text.clone()).collect(),
                analyzer: required(node, "analyzer")?.to_string(),
            }),
            "create-feed" => Ok(Request::CreateFeed {
                session: required(node, "session")?.to_string(),
                name: required(node, "name")?.to_string(),
            }),
            "publish-feed-entry" => Ok(Request::PublishFeedEntry {
                session: required(node, "session")?.to_string(),
                feed: required(node, "feed")?.to_string(),
                software_id: required(node, "software-id")?.to_string(),
                rating: required_parse(node, "rating")?,
                behaviours: node.get_children("behaviour").map(|c| c.text.clone()).collect(),
            }),
            "query-feed-entry" => Ok(Request::QueryFeedEntry {
                feed: required(node, "feed")?.to_string(),
                software_id: required(node, "software-id")?.to_string(),
            }),
            "get-pseudonym-key" => Ok(Request::GetPseudonymKey),
            "blind-sign-pseudonym" => Ok(Request::BlindSignPseudonym {
                session: required(node, "session")?.to_string(),
                blinded: required(node, "blinded")?.to_string(),
            }),
            "register-pseudonym" => Ok(Request::RegisterPseudonym {
                username: required(node, "username")?.to_string(),
                password: required(node, "password")?.to_string(),
                token: required(node, "token")?.to_string(),
                signature: required(node, "signature")?.to_string(),
            }),
            "repl-subscribe" => Ok(Request::ReplSubscribe {
                from_seq: required_attr_parse(node, "from-seq")?,
                max_entries: required_attr_parse(node, "max-entries")?,
                max_bytes: required_attr_parse(node, "max-bytes")?,
            }),
            "repl-snapshot" => Ok(Request::ReplSnapshot {
                seq: required_attr_parse(node, "seq")?,
                offset: required_attr_parse(node, "offset")?,
            }),
            other => Err(MessageError(format!("unknown request type '{other}'"))),
        }
    }

    /// Encode to a full XML document string.
    pub fn encode(&self) -> String {
        self.to_xml().to_document()
    }

    /// Decode from a document string.
    pub fn decode(input: &str) -> Result<Self, MessageError> {
        Self::from_xml(&XmlNode::parse(input)?)
    }
}

impl Response {
    /// Canonical XML rendering.
    pub fn to_xml(&self) -> XmlNode {
        match self {
            Response::Ok => XmlNode::new("response").attr("status", "ok"),
            Response::Error { code, message } => XmlNode::new("response")
                .attr("status", "error")
                .attr("code", code)
                .with_text(message.clone()),
            Response::Puzzle { challenge } => {
                XmlNode::new("response").attr("status", "puzzle").text_child("challenge", challenge)
            }
            Response::Registered { activation_token } => XmlNode::new("response")
                .attr("status", "registered")
                .text_child("activation-token", activation_token),
            Response::Session { token } => {
                XmlNode::new("response").attr("status", "session").text_child("token", token)
            }
            Response::Software(info) => {
                let mut node = XmlNode::new("response")
                    .attr("status", "software")
                    .text_child("software-id", &info.software_id)
                    .text_child("vote-count", info.vote_count.to_string());
                if let Some(f) = &info.file_name {
                    node = node.text_child("file-name", f);
                }
                if let Some(c) = &info.company {
                    node = node.text_child("company", c);
                }
                if let Some(v) = &info.version {
                    node = node.text_child("version", v);
                }
                if let Some(r) = info.rating {
                    node = node.text_child("rating", format!("{r:.4}"));
                }
                for b in &info.behaviours {
                    node = node.text_child("behaviour", b);
                }
                for b in &info.verified_behaviours {
                    node = node.text_child("verified-behaviour", b);
                }
                for c in &info.comments {
                    node = node.child(
                        XmlNode::new("comment")
                            .attr("id", c.id.to_string())
                            .attr("author", &c.author)
                            .attr("remarks", c.remark_score.to_string())
                            .with_text(c.text.clone()),
                    );
                }
                node
            }
            Response::UnknownSoftware { software_id } => XmlNode::new("response")
                .attr("status", "unknown-software")
                .text_child("software-id", software_id),
            Response::PseudonymKey { n, e } => XmlNode::new("response")
                .attr("status", "pseudonym-key")
                .text_child("n", n)
                .text_child("e", e),
            Response::BlindSignature { value } => XmlNode::new("response")
                .attr("status", "blind-signature")
                .text_child("value", value),
            Response::FeedEntry { feed, software_id, rating, behaviours } => {
                let mut node = XmlNode::new("response")
                    .attr("status", "feed-entry")
                    .text_child("feed", feed)
                    .text_child("software-id", software_id)
                    .text_child("rating", format!("{rating:.4}"));
                for b in behaviours {
                    node = node.text_child("behaviour", b);
                }
                node
            }
            Response::Vendor { vendor, rating, software_count } => {
                let mut node = XmlNode::new("response")
                    .attr("status", "vendor")
                    .text_child("vendor", vendor)
                    .text_child("software-count", software_count.to_string());
                if let Some(r) = rating {
                    node = node.text_child("rating", format!("{r:.4}"));
                }
                node
            }
            Response::ReplEntries { committed_seq, backlog_bytes, entries } => {
                let mut node = XmlNode::new("response")
                    .attr("status", "repl-entries")
                    .attr("committed-seq", committed_seq.to_string())
                    .attr("backlog-bytes", backlog_bytes.to_string());
                for e in entries {
                    node = node.child(
                        XmlNode::new("entry")
                            .attr("seq", e.seq.to_string())
                            .with_text(hex_encode(&e.batch)),
                    );
                }
                node
            }
            Response::ReplSnapshotChunk { seq, offset, total_len, data } => {
                XmlNode::new("response")
                    .attr("status", "repl-snapshot-chunk")
                    .attr("seq", seq.to_string())
                    .attr("offset", offset.to_string())
                    .attr("total-len", total_len.to_string())
                    .with_text(hex_encode(data))
            }
            Response::ReplResync { committed_seq } => XmlNode::new("response")
                .attr("status", "repl-resync")
                .attr("committed-seq", committed_seq.to_string()),
            Response::NotPrimary { primary } => XmlNode::new("response")
                .attr("status", "not-primary")
                .text_child("primary", primary),
        }
    }

    /// Decode from a parsed XML element.
    pub fn from_xml(node: &XmlNode) -> Result<Self, MessageError> {
        if node.name != "response" {
            return Err(MessageError(format!("expected <response>, found <{}>", node.name)));
        }
        let status =
            node.get_attr("status").ok_or_else(|| MessageError("missing status".into()))?;
        match status {
            "ok" => Ok(Response::Ok),
            "error" => Ok(Response::Error {
                code: node.get_attr("code").unwrap_or("unknown").to_string(),
                message: node.text.clone(),
            }),
            "puzzle" => {
                Ok(Response::Puzzle { challenge: required(node, "challenge")?.to_string() })
            }
            "registered" => Ok(Response::Registered {
                activation_token: required(node, "activation-token")?.to_string(),
            }),
            "session" => Ok(Response::Session { token: required(node, "token")?.to_string() }),
            "software" => {
                let comments = node
                    .get_children("comment")
                    .map(|c| {
                        Ok(CommentInfo {
                            id: c
                                .get_attr("id")
                                .and_then(|v| v.parse().ok())
                                .ok_or_else(|| MessageError("comment missing id".into()))?,
                            author: c.get_attr("author").unwrap_or_default().to_string(),
                            text: c.text.clone(),
                            remark_score: c
                                .get_attr("remarks")
                                .and_then(|v| v.parse().ok())
                                .unwrap_or(0),
                        })
                    })
                    .collect::<Result<Vec<_>, MessageError>>()?;
                Ok(Response::Software(SoftwareInfo {
                    software_id: required(node, "software-id")?.to_string(),
                    file_name: node.child_text("file-name").map(str::to_string),
                    company: node.child_text("company").map(str::to_string),
                    version: node.child_text("version").map(str::to_string),
                    rating: node.child_text("rating").and_then(|v| v.parse().ok()),
                    vote_count: required_parse(node, "vote-count")?,
                    behaviours: node.get_children("behaviour").map(|c| c.text.clone()).collect(),
                    verified_behaviours: node
                        .get_children("verified-behaviour")
                        .map(|c| c.text.clone())
                        .collect(),
                    comments,
                }))
            }
            "unknown-software" => Ok(Response::UnknownSoftware {
                software_id: required(node, "software-id")?.to_string(),
            }),
            "pseudonym-key" => Ok(Response::PseudonymKey {
                n: required(node, "n")?.to_string(),
                e: required(node, "e")?.to_string(),
            }),
            "blind-signature" => {
                Ok(Response::BlindSignature { value: required(node, "value")?.to_string() })
            }
            "feed-entry" => Ok(Response::FeedEntry {
                feed: required(node, "feed")?.to_string(),
                software_id: required(node, "software-id")?.to_string(),
                rating: required_parse(node, "rating")?,
                behaviours: node.get_children("behaviour").map(|c| c.text.clone()).collect(),
            }),
            "vendor" => Ok(Response::Vendor {
                vendor: required(node, "vendor")?.to_string(),
                rating: node.child_text("rating").and_then(|v| v.parse().ok()),
                software_count: required_parse(node, "software-count")?,
            }),
            "repl-entries" => {
                let entries = node
                    .get_children("entry")
                    .map(|e| {
                        Ok(ReplEntry {
                            seq: required_attr_parse(e, "seq")?,
                            batch: hex_decode(&e.text)?,
                        })
                    })
                    .collect::<Result<Vec<_>, MessageError>>()?;
                Ok(Response::ReplEntries {
                    committed_seq: required_attr_parse(node, "committed-seq")?,
                    backlog_bytes: required_attr_parse(node, "backlog-bytes")?,
                    entries,
                })
            }
            "repl-snapshot-chunk" => Ok(Response::ReplSnapshotChunk {
                seq: required_attr_parse(node, "seq")?,
                offset: required_attr_parse(node, "offset")?,
                total_len: required_attr_parse(node, "total-len")?,
                data: hex_decode(&node.text)?,
            }),
            "repl-resync" => Ok(Response::ReplResync {
                committed_seq: required_attr_parse(node, "committed-seq")?,
            }),
            "not-primary" => {
                Ok(Response::NotPrimary { primary: required(node, "primary")?.to_string() })
            }
            other => Err(MessageError(format!("unknown response status '{other}'"))),
        }
    }

    /// Encode to a full XML document string.
    pub fn encode(&self) -> String {
        self.to_xml().to_document()
    }

    /// Decode from a document string.
    pub fn decode(input: &str) -> Result<Self, MessageError> {
        Self::from_xml(&XmlNode::parse(input)?)
    }

    /// Convenience constructor for error responses.
    pub fn error(code: impl Into<String>, message: impl Into<String>) -> Self {
        Response::Error { code: code.into(), message: message.into() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let encoded = req.encode();
        let decoded = Request::decode(&encoded).unwrap();
        assert_eq!(decoded, req, "document: {encoded}");
    }

    fn roundtrip_response(resp: Response) {
        let encoded = resp.encode();
        let decoded = Response::decode(&encoded).unwrap();
        assert_eq!(decoded, resp, "document: {encoded}");
    }

    #[test]
    fn all_request_variants_roundtrip() {
        roundtrip_request(Request::GetPuzzle);
        roundtrip_request(Request::Register {
            username: "alice".into(),
            password: "p4ss <&> word".into(),
            email: "alice@example.com".into(),
            puzzle_challenge: "12:00ff".into(),
            puzzle_solution: 42,
        });
        roundtrip_request(Request::Activate { username: "alice".into(), token: "tok123".into() });
        roundtrip_request(Request::Login { username: "alice".into(), password: "pw".into() });
        roundtrip_request(Request::QuerySoftware { software_id: "abcd".repeat(10) });
        roundtrip_request(Request::RegisterSoftware {
            software_id: "ff".repeat(20),
            file_name: "setup.exe".into(),
            file_size: 1_234_567,
            company: Some("Acme & Co".into()),
            version: None,
        });
        roundtrip_request(Request::SubmitVote {
            session: "s".into(),
            software_id: "aa".into(),
            score: 7,
            behaviours: vec!["popup_ads".into(), "tracking".into()],
        });
        roundtrip_request(Request::SubmitComment {
            session: "s".into(),
            software_id: "aa".into(),
            text: "Great program, but shows \"ads\" & tracks you".into(),
        });
        roundtrip_request(Request::RateComment {
            session: "s".into(),
            comment_id: 9,
            positive: true,
        });
        roundtrip_request(Request::RateComment {
            session: "s".into(),
            comment_id: 9,
            positive: false,
        });
        roundtrip_request(Request::QueryVendor { vendor: "Gator Corp".into() });
        roundtrip_request(Request::QueryDetails { software_id: "ab".into() });
        roundtrip_request(Request::ReplSubscribe {
            from_seq: 12_345,
            max_entries: 256,
            max_bytes: 1 << 18,
        });
        roundtrip_request(Request::ReplSnapshot { seq: 0, offset: 0 });
        roundtrip_request(Request::ReplSnapshot { seq: 987, offset: 262_144 });
    }

    #[test]
    fn repl_responses_roundtrip() {
        roundtrip_response(Response::ReplEntries {
            committed_seq: 42,
            backlog_bytes: 9_001,
            entries: vec![
                ReplEntry { seq: 41, batch: vec![0x00, 0xff, 0x3c, 0x26, 0x80] },
                ReplEntry { seq: 42, batch: Vec::new() },
            ],
        });
        roundtrip_response(Response::ReplEntries {
            committed_seq: 0,
            backlog_bytes: 0,
            entries: Vec::new(),
        });
        roundtrip_response(Response::ReplSnapshotChunk {
            seq: 7,
            offset: 1024,
            total_len: 4096,
            data: (0u16..=255).map(|b| b as u8).collect(),
        });
        roundtrip_response(Response::ReplResync { committed_seq: 55 });
        roundtrip_response(Response::NotPrimary { primary: "10.0.0.1:7007".into() });
    }

    #[test]
    fn hex_payloads_reject_garbage() {
        assert!(hex_decode("abc").is_err(), "odd length");
        assert!(hex_decode("zz").is_err(), "non-hex digit");
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
        assert_eq!(hex_decode("00ff10").unwrap(), vec![0x00, 0xff, 0x10]);
        assert_eq!(hex_decode("00FF10").unwrap(), vec![0x00, 0xff, 0x10]);
    }

    #[test]
    fn replica_servable_subset_is_read_only() {
        assert!(Request::QuerySoftware { software_id: "ab".into() }.is_replica_servable());
        assert!(Request::QueryVendor { vendor: "v".into() }.is_replica_servable());
        assert!(Request::ReplSubscribe { from_seq: 0, max_entries: 1, max_bytes: 1 }
            .is_replica_servable());
        assert!(!Request::GetPuzzle.is_replica_servable());
        assert!(
            !Request::Login { username: "a".into(), password: "b".into() }.is_replica_servable()
        );
        assert!(!Request::SubmitVote {
            session: "s".into(),
            software_id: "ab".into(),
            score: 5,
            behaviours: vec![],
        }
        .is_replica_servable());
    }

    #[test]
    fn all_response_variants_roundtrip() {
        roundtrip_response(Response::Ok);
        roundtrip_response(Response::error("duplicate-email", "e-mail already registered"));
        roundtrip_response(Response::Puzzle { challenge: "16:aabb".into() });
        roundtrip_response(Response::Registered { activation_token: "tok".into() });
        roundtrip_response(Response::Session { token: "sess".into() });
        roundtrip_response(Response::UnknownSoftware { software_id: "dead".into() });
        roundtrip_response(Response::Vendor {
            vendor: "Acme".into(),
            rating: Some(7.25),
            software_count: 12,
        });
        roundtrip_response(Response::Vendor {
            vendor: "Mystery".into(),
            rating: None,
            software_count: 0,
        });
        roundtrip_response(Response::Software(SoftwareInfo {
            software_id: "ab".repeat(20),
            file_name: Some("weatherbar.exe".into()),
            company: Some("Acme".into()),
            version: Some("2.1".into()),
            rating: Some(3.5),
            vote_count: 125,
            behaviours: vec!["popup_ads".into()],
            verified_behaviours: vec!["tracking".into()],
            comments: vec![
                CommentInfo {
                    id: 1,
                    author: "expert_user".into(),
                    text: "Bundles a tracker; uninstall is broken.".into(),
                    remark_score: 14,
                },
                CommentInfo {
                    id: 2,
                    author: "novice".into(),
                    text: "gr8".into(),
                    remark_score: -3,
                },
            ],
        }));
    }

    #[test]
    fn software_without_optionals_roundtrips() {
        roundtrip_response(Response::Software(SoftwareInfo {
            software_id: "cc".into(),
            file_name: None,
            company: None,
            version: None,
            rating: None,
            vote_count: 0,
            behaviours: vec![],
            verified_behaviours: vec![],
            comments: vec![],
        }));
    }

    #[test]
    fn malformed_messages_are_rejected() {
        assert!(Request::decode("<request type=\"bogus\"/>").is_err());
        assert!(Request::decode("<request/>").is_err());
        assert!(Request::decode("<other/>").is_err());
        assert!(
            Request::decode("<request type=\"login\"><username>a</username></request>").is_err()
        );
        assert!(Response::decode("<response status=\"nope\"/>").is_err());
        assert!(Response::decode("<response/>").is_err());
        assert!(Request::decode("not xml at all").is_err());
    }

    #[test]
    fn score_out_of_u8_range_is_rejected() {
        let doc = "<request type=\"submit-vote\"><session>s</session>\
                   <software-id>a</software-id><score>900</score></request>";
        assert!(Request::decode(doc).is_err());
    }

    #[test]
    fn rate_comment_rejects_non_boolean() {
        let doc = "<request type=\"rate-comment\"><session>s</session>\
                   <comment-id>1</comment-id><positive>maybe</positive></request>";
        assert!(Request::decode(doc).is_err());
    }
}
