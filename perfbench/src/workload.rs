//! The three workloads: their seeded datasets, their request streams, and
//! the constants the benchmark freezes for them.
//!
//! Everything here is a pure function of the workload and `--seed`; the
//! server receives only the generated inputs.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::net::Ipv4Addr;

use softrep_proto::{Request, Response};

use crate::rng::{SplitMix64, Zipf};

/// Seed of the server's RNG. A constant of the benchmark, separate from
/// the workload seed: the stock binary seeds from the OS, and the
/// randomized 1024-bit pseudonym keygen then makes start-up time vary
/// several-fold between starts.
pub const SERVER_SEED: u64 = 1;
/// Secret pepper shared by the seeded data and the server.
pub const PEPPER: &str = "perfbench-pepper";
/// Time stamped on every seeded record (2026-01-01T00:00:00Z), so a data
/// directory is a pure function of (workload, seed).
pub const DATA_EPOCH: u64 = 1_767_225_600;
/// The server's default flood-guard burst per identity.
pub const FLOOD_BURST: usize = 60;
/// The server's default bound on tracked flood identities.
pub const FLOOD_MAX_IDENTITIES: usize = 65_536;
/// Source address of start-up probes (one answered request per server).
pub const PROBE_ADDR: Ipv4Addr = Ipv4Addr::new(127, 0, 0, 2);

/// Requests an anonymous client sends per connection.
const ANON_PER_CONN: usize = 10;
/// Connections per anonymous user: 50 requests, under the burst of 60.
const ANON_CONNS_PER_USER: usize = 5;
/// Requests per member visit: one login, then 19 operations.
const VISIT_LEN: usize = 20;
/// Visits per member: 40 requests, under the burst of 60.
const VISITS_PER_MEMBER: usize = 2;
/// Operations of a visit sent before the next visit's login goes out on
/// its own connection, so the session exists before that visit starts.
const LOGIN_AHEAD_AFTER: usize = 10;
/// User index of member 0; anonymous users count up from 0.
const MEMBER_BASE: u32 = 1 << 20;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Anonymous execution-time lookups, Zipf(0.9) over 50 000 titles.
    QueryZipf,
    /// 5 000 logged-in members voting on 2 000 titles.
    VoteWrite,
    /// A fresh replica tailing a primary's ~100 000-entry log.
    ReplicaCatchup,
}

struct Shape {
    titles: usize,
    vendors: usize,
    members: usize,
    votes_per_member: usize,
    comments: usize,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::QueryZipf, Workload::VoteWrite, Workload::ReplicaCatchup];

    /// The workload named `name` on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryZipf => "query-zipf",
            Workload::VoteWrite => "vote-write",
            Workload::ReplicaCatchup => "replica-catchup",
        }
    }

    /// Nominal arrival rate in requests/s: frozen below half the highest
    /// rate the seed commit sustained with p99 ≤ 5 ms, where the latency
    /// and the generator's own lag stay steady (README.md). Replica reads
    /// run at the query-zipf rate.
    pub fn nominal_rps(self) -> f64 {
        match self {
            Workload::QueryZipf => 2_000.0,
            Workload::VoteWrite => 1_000.0,
            Workload::ReplicaCatchup => 2_000.0,
        }
    }

    fn shape(self) -> Shape {
        match self {
            Workload::QueryZipf => Shape {
                titles: 50_000,
                vendors: 500,
                members: 300,
                votes_per_member: 30,
                comments: 3_000,
            },
            Workload::VoteWrite => Shape {
                titles: 2_000,
                vendors: 100,
                members: 5_000,
                votes_per_member: 4,
                comments: 1_000,
            },
            // ~45 000 ballots plus accounts, comments and one full batch:
            // about 55 000 uncompacted log entries.
            Workload::ReplicaCatchup => Shape {
                titles: 1_000,
                vendors: 50,
                members: 1_000,
                votes_per_member: 45,
                comments: 3_000,
            },
        }
    }
}

/// One workload's seeded dataset, described as data.
pub struct Dataset {
    /// The workload this dataset belongs to.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Hex digests of the seeded titles.
    pub titles: Vec<String>,
    /// Vendor index of each title.
    pub vendor_of: Vec<u32>,
    /// Registered, activated members.
    pub members: u32,
    /// `(member, title, score)` ballots cast while seeding.
    pub votes: Vec<(u32, u32, u8)>,
    /// `(author, title)` of the seeded comments; comment `k` has id `k + 1`.
    pub comments: Vec<(u32, u32)>,
    /// Title index by popularity rank: rank 0 is the hottest title.
    by_rank: Vec<u32>,
    zipf: Zipf,
}

impl Dataset {
    /// The dataset of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Dataset {
        let shape = workload.shape();
        let mut ids = SplitMix64::derive(seed, 1);
        let titles = (0..shape.titles).map(|_| hex_digest(&mut ids)).collect();
        let vendor_of = (0..shape.titles).map(|_| ids.below(shape.vendors as u64) as u32).collect();
        let mut data = Dataset {
            workload,
            seed,
            titles,
            vendor_of,
            members: shape.members as u32,
            votes: Vec::new(),
            comments: Vec::new(),
            by_rank: SplitMix64::derive(seed, 2).permutation(shape.titles),
            zipf: Zipf::new(shape.titles, 0.9),
        };
        let mut rng = SplitMix64::derive(seed, 3);
        for member in 0..data.members {
            let mut seen = HashSet::new();
            while seen.len() < shape.votes_per_member {
                let title = data.popular_title(&mut rng);
                if seen.insert(title) {
                    let score = 1 + ((u64::from(title) + rng.below(3)) % 10) as u8;
                    data.votes.push((member, title, score));
                }
            }
        }
        for _ in 0..shape.comments {
            let author = rng.below(u64::from(data.members)) as u32;
            let title = data.popular_title(&mut rng);
            data.comments.push((author, title));
        }
        data
    }

    /// A title drawn by Zipf(0.9) popularity.
    pub fn popular_title(&self, rng: &mut SplitMix64) -> u32 {
        self.by_rank[self.zipf.sample(rng)]
    }

    /// Account name of member `m`.
    pub fn member_name(m: u32) -> String {
        format!("m{m:05}")
    }

    /// Password of member `m`.
    pub fn member_password(m: u32) -> String {
        format!("pw-{m:05}")
    }

    /// E-mail address of member `m`.
    pub fn member_email(m: u32) -> String {
        format!("m{m:05}@bench.example")
    }

    /// Name of vendor `v`.
    pub fn vendor_name(v: u32) -> String {
        format!("vendor-{v:04}")
    }
}

fn hex_digest(rng: &mut SplitMix64) -> String {
    format!("{:016x}{:016x}{:08x}", rng.draw(), rng.draw(), rng.draw() >> 32)
}

/// The digest of a title the server has never seen.
pub fn unknown_digest(x: u64) -> String {
    hex_digest(&mut SplitMix64::derive(x, 6))
}

/// The loopback source address of user `user`. All of 127.0.0.0/8 is
/// loopback on Linux, so every simulated user gets its own flood identity,
/// as each client machine would in production. 127.0.x.x stays free for
/// the server and the start-up probe.
pub fn user_addr(user: u32) -> Ipv4Addr {
    let u = user + (1 << 16);
    Ipv4Addr::new(127, (u >> 16) as u8, (u >> 8) as u8, u as u8)
}

/// Request classes, as the metrics group them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `QuerySoftware`, `QueryDetails`, `QueryVendor`.
    Query,
    /// `SubmitVote`, `SubmitComment`, `RateComment`.
    Write,
    /// `Login`.
    Login,
}

/// One request of a stream, before sessions are known.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Execution-time lookup of a seeded title.
    QuerySoftware(u32),
    /// Detail report of a seeded title.
    QueryDetails(u32),
    /// Vendor rating.
    QueryVendor(u32),
    /// Lookup of a digest the server has never seen (its seed).
    QueryUnknown(u64),
    /// A member logs in.
    Login(u32),
    /// A ballot by the connection's member.
    Vote {
        /// Title voted on.
        title: u32,
        /// Score, 1..=10.
        score: u8,
        /// Whether the ballot reports a behaviour.
        tagged: bool,
    },
    /// A comment by the connection's member.
    Comment {
        /// Title commented on.
        title: u32,
        /// Varies the text.
        note: u32,
    },
    /// A remark on a seeded comment by another member.
    RateComment {
        /// Comment id.
        comment: u32,
        /// Helpful or not.
        positive: bool,
    },
}

impl Op {
    /// The metric class of this request.
    pub fn class(self) -> Class {
        match self {
            Op::QuerySoftware(_)
            | Op::QueryDetails(_)
            | Op::QueryVendor(_)
            | Op::QueryUnknown(_) => Class::Query,
            Op::Login(_) => Class::Login,
            Op::Vote { .. } | Op::Comment { .. } | Op::RateComment { .. } => Class::Write,
        }
    }
}

/// One request, the connection that carries it, and the user sending it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Connection index; a connection carries one user's requests.
    pub conn: u32,
    /// User index (see [`user_addr`]).
    pub user: u32,
    /// The request.
    pub op: Op,
}

impl Item {
    /// The wire request; `session` is the token the connection's login
    /// returned (used by writes only).
    pub fn request(&self, data: &Dataset, session: &str) -> Request {
        let title = |t: u32| data.titles[t as usize].clone();
        match self.op {
            Op::QuerySoftware(t) => Request::QuerySoftware { software_id: title(t) },
            Op::QueryDetails(t) => Request::QueryDetails { software_id: title(t) },
            Op::QueryVendor(v) => Request::QueryVendor { vendor: Dataset::vendor_name(v) },
            Op::QueryUnknown(x) => Request::QuerySoftware { software_id: unknown_digest(x) },
            Op::Login(m) => Request::Login {
                username: Dataset::member_name(m),
                password: Dataset::member_password(m),
            },
            Op::Vote { title: t, score, tagged } => Request::SubmitVote {
                session: session.to_string(),
                software_id: title(t),
                score,
                behaviours: if tagged { vec!["popup_ads".to_string()] } else { Vec::new() },
            },
            Op::Comment { title: t, note } => Request::SubmitComment {
                session: session.to_string(),
                software_id: title(t),
                text: format!("perfbench note {note}: asks for admin rights"),
            },
            Op::RateComment { comment, positive } => Request::RateComment {
                session: session.to_string(),
                comment_id: u64::from(comment),
                positive,
            },
        }
    }

    /// Does `response` correctly answer this request?
    pub fn accepts(&self, data: &Dataset, response: &Response) -> bool {
        match (self.op, response) {
            (Op::QuerySoftware(t) | Op::QueryDetails(t), Response::Software(info)) => {
                info.software_id == data.titles[t as usize]
            }
            (Op::QueryUnknown(x), Response::UnknownSoftware { software_id }) => {
                *software_id == unknown_digest(x)
            }
            (Op::QueryVendor(v), Response::Vendor { vendor, .. }) => {
                *vendor == Dataset::vendor_name(v)
            }
            (Op::Login(_), Response::Session { .. }) => true,
            (Op::Vote { .. } | Op::Comment { .. } | Op::RateComment { .. }, Response::Ok) => true,
            _ => false,
        }
    }
}

/// A workload's request stream.
pub struct Stream {
    /// The requests, in send order.
    pub items: Vec<Item>,
    /// Index in `items` of each connection's last request.
    pub last_of_conn: Vec<usize>,
}

impl Stream {
    /// The first `len` requests of `data`'s workload.
    pub fn generate(data: &Dataset, len: usize) -> Result<Stream, String> {
        let mut rng = SplitMix64::derive(data.seed, 4);
        let items = match data.workload {
            Workload::VoteWrite => member_visits(data, len, &mut rng)?,
            Workload::QueryZipf | Workload::ReplicaCatchup => {
                anonymous_lookups(data, len, &mut rng)
            }
        };
        let conns = items.iter().map(|i| i.conn as usize + 1).max().unwrap_or(0);
        let mut last_of_conn = vec![0; conns];
        for (i, item) in items.iter().enumerate() {
            last_of_conn[item.conn as usize] = i;
        }
        Ok(Stream { items, last_of_conn })
    }

    /// Distinct source addresses, and the most requests any one sends.
    pub fn flood_load(&self) -> (usize, usize) {
        let mut per_user: HashMap<u32, usize> = HashMap::new();
        for item in &self.items {
            *per_user.entry(item.user).or_default() += 1;
        }
        (per_user.len(), per_user.values().copied().max().unwrap_or(0))
    }

    /// Fails unless every user stays under the flood burst for the whole
    /// stream and the identities fit the guard's bound, so the guard runs
    /// at its deployed limits without ever throttling the benchmark.
    pub fn check_flood_budget(&self) -> Result<(), String> {
        let (identities, most) = self.flood_load();
        if most >= FLOOD_BURST {
            return Err(format!("a user sends {most} requests; the flood burst is {FLOOD_BURST}"));
        }
        if identities > FLOOD_MAX_IDENTITIES {
            return Err(format!(
                "{identities} source identities exceed the guard's {FLOOD_MAX_IDENTITIES}"
            ));
        }
        Ok(())
    }

    /// The stream as bytes, one line per request (connection, source
    /// address, request XML), with sessions as placeholders.
    pub fn render(&self, data: &Dataset) -> Vec<u8> {
        let mut out = String::new();
        for item in &self.items {
            let session = format!("session-of-conn-{}", item.conn);
            let request = item.request(data, &session).encode();
            let _ = writeln!(out, "{} {} {request}", item.conn, user_addr(item.user));
        }
        out.into_bytes()
    }
}

/// Anonymous lookups: 85 % `QuerySoftware`, 5 % `QueryDetails`, 5 %
/// `QueryVendor` and 5 % unknown digests, ten per connection.
fn anonymous_lookups(data: &Dataset, len: usize, rng: &mut SplitMix64) -> Vec<Item> {
    (0..len)
        .map(|i| {
            let conn = (i / ANON_PER_CONN) as u32;
            let user = conn / ANON_CONNS_PER_USER as u32;
            let title = data.popular_title(rng);
            let op = match rng.below(100) {
                0..=84 => Op::QuerySoftware(title),
                85..=89 => Op::QueryDetails(title),
                90..=94 => Op::QueryVendor(data.vendor_of[title as usize]),
                _ => Op::QueryUnknown(rng.draw()),
            };
            Item { conn, user, op }
        })
        .collect()
}

/// Member visits, one connection each: a login, then 19 operations. The
/// next visit's login leaves after this visit's tenth operation.
fn member_visits(data: &Dataset, len: usize, rng: &mut SplitMix64) -> Result<Vec<Item>, String> {
    let visits = len.div_ceil(VISIT_LEN);
    let capacity = data.members as usize * VISITS_PER_MEMBER;
    if visits > capacity {
        return Err(format!(
            "{len} requests need {visits} member visits; the dataset has {capacity}"
        ));
    }
    let order = rng.permutation(data.members as usize);
    let member_of = |v: usize| order[v % order.len()];
    let login = |v: usize| {
        let m = member_of(v);
        Item { conn: v as u32, user: MEMBER_BASE + m, op: Op::Login(m) }
    };
    let mut out = Vec::with_capacity(visits * VISIT_LEN);
    out.push(login(0));
    for v in 0..visits {
        let member = member_of(v);
        for k in 0..VISIT_LEN - 1 {
            let op = member_op(data, member, rng);
            out.push(Item { conn: v as u32, user: MEMBER_BASE + member, op });
            if k + 1 == LOGIN_AHEAD_AFTER && v + 1 < visits {
                out.push(login(v + 1));
            }
        }
    }
    out.truncate(len);
    Ok(out)
}

/// One operation of a visit. Out of every 95: 70 votes, 10 comments, 5
/// remarks and 10 reads (the visit's login is the mix's other 5 %).
fn member_op(data: &Dataset, member: u32, rng: &mut SplitMix64) -> Op {
    let title = data.popular_title(rng);
    match rng.below(95) {
        0..=69 => Op::Vote { title, score: 1 + rng.below(10) as u8, tagged: rng.below(4) == 0 },
        70..=79 => Op::Comment { title, note: rng.draw() as u32 },
        80..=84 => loop {
            // A remark on one's own comment is refused; draw another.
            let k = rng.below(data.comments.len() as u64) as usize;
            if data.comments[k].0 != member {
                break Op::RateComment { comment: k as u32 + 1, positive: rng.below(3) != 0 };
            }
        },
        _ => Op::QuerySoftware(title),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_stream_and_another_seed_another() {
        for workload in Workload::ALL {
            let render = |seed| {
                let data = Dataset::new(workload, seed);
                Stream::generate(&data, 2_000).unwrap().render(&data)
            };
            assert_eq!(render(11), render(11), "{}", workload.name());
            assert_ne!(render(11), render(12), "{}", workload.name());
        }
    }

    #[test]
    fn no_user_exceeds_the_flood_budget() {
        for workload in Workload::ALL {
            let data = Dataset::new(workload, 5);
            let stream = Stream::generate(&data, 150_000).unwrap();
            stream.check_flood_budget().unwrap();
            let (identities, most) = stream.flood_load();
            assert!(identities <= FLOOD_MAX_IDENTITIES);
            assert!(most < FLOOD_BURST, "{}: {most}", workload.name());
        }
    }

    #[test]
    fn every_member_visit_logs_in_before_it_writes() {
        let data = Dataset::new(Workload::VoteWrite, 3);
        let stream = Stream::generate(&data, 10_000).unwrap();
        let mut logged_in = HashSet::new();
        for item in &stream.items {
            match item.op {
                Op::Login(_) => assert!(logged_in.insert(item.conn)),
                _ => assert!(logged_in.contains(&item.conn), "conn {} writes first", item.conn),
            }
        }
    }
}
