//! Server robustness: arbitrary protocol input must never panic the
//! dispatcher, and every response must itself re-encode cleanly (the
//! closed-loop property a long-running daemon needs).

use std::path::Path;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use softrep_core::clock::SimClock;
use softrep_core::db::ReputationDb;
use softrep_crypto::salted::SecretPepper;
use softrep_proto::{Request, Response};
use softrep_server::{ReputationServer, ServerConfig};
use softrep_storage::{SimVfs, StorageResult, Store, StoreOptions, Vfs, VfsFile};

fn server() -> Arc<ReputationServer> {
    Arc::new(ReputationServer::new(
        ReputationDb::in_memory("robustness"),
        Arc::new(SimClock::new()),
        ServerConfig {
            puzzle_difficulty: 0,
            flood_capacity: u32::MAX,
            flood_refill_per_hour: u32::MAX,
            analyzer_token: Some("tok".into()),
            ..ServerConfig::default()
        },
        17,
    ))
}

fn arb_string() -> impl Strategy<Value = String> {
    prop_oneof![
        any::<String>(),
        "[a-z0-9]{1,64}",
        Just(String::new()),
        Just("ab".repeat(20)),                  // valid-looking software id
        Just("\u{0}\u{1}<script>".to_string()), // hostile bytes
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::GetPuzzle),
        (arb_string(), arb_string(), arb_string(), arb_string(), any::<u64>()).prop_map(
            |(username, password, email, puzzle_challenge, puzzle_solution)| Request::Register {
                username,
                password,
                email,
                puzzle_challenge,
                puzzle_solution,
            }
        ),
        (arb_string(), arb_string())
            .prop_map(|(username, token)| Request::Activate { username, token }),
        (arb_string(), arb_string())
            .prop_map(|(username, password)| Request::Login { username, password }),
        arb_string().prop_map(|software_id| Request::QuerySoftware { software_id }),
        (arb_string(), arb_string(), any::<u64>()).prop_map(
            |(software_id, file_name, file_size)| {
                Request::RegisterSoftware {
                    software_id,
                    file_name,
                    file_size,
                    company: None,
                    version: None,
                }
            }
        ),
        (arb_string(), arb_string(), any::<u8>(), proptest::collection::vec(arb_string(), 0..3))
            .prop_map(|(session, software_id, score, behaviours)| Request::SubmitVote {
                session,
                software_id,
                score,
                behaviours,
            }),
        (arb_string(), arb_string(), arb_string()).prop_map(|(session, software_id, text)| {
            Request::SubmitComment { session, software_id, text }
        }),
        (arb_string(), any::<u64>(), any::<bool>()).prop_map(|(session, comment_id, positive)| {
            Request::RateComment { session, comment_id, positive }
        }),
        arb_string().prop_map(|vendor| Request::QueryVendor { vendor }),
        (arb_string(), arb_string(), proptest::collection::vec(arb_string(), 0..3), arb_string())
            .prop_map(|(analyzer_token, software_id, behaviours, analyzer)| {
                Request::SubmitEvidence { analyzer_token, software_id, behaviours, analyzer }
            }),
        (arb_string(), arb_string())
            .prop_map(|(session, name)| Request::CreateFeed { session, name }),
        (arb_string(), arb_string(), arb_string(), any::<f64>(), Just(vec![])).prop_map(
            |(session, feed, software_id, rating, behaviours)| {
                Request::PublishFeedEntry { session, feed, software_id, rating, behaviours }
            }
        ),
        (arb_string(), arb_string())
            .prop_map(|(feed, software_id)| Request::QueryFeedEntry { feed, software_id }),
        Just(Request::GetPseudonymKey),
        (arb_string(), arb_string())
            .prop_map(|(session, blinded)| Request::BlindSignPseudonym { session, blinded }),
        (arb_string(), arb_string(), arb_string(), arb_string()).prop_map(
            |(username, password, token, signature)| Request::RegisterPseudonym {
                username,
                password,
                token,
                signature,
            },
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn dispatcher_is_total_over_arbitrary_requests(
        requests in proptest::collection::vec(arb_request(), 1..24),
        source in "[a-z0-9.:-]{1,24}",
    ) {
        let server = server();
        for request in &requests {
            let response = server.handle(request, &source);
            // The server must always answer, and the answer must encode.
            let encoded = response.encode();
            prop_assert!(!encoded.is_empty());
            // Responses that decode must round-trip through XML. (Some
            // hostile inputs echo back strings XML cannot carry, e.g.
            // NUL bytes; those decode-fail, which is acceptable — the
            // transport would reject them. Panics are not acceptable.)
            let _ = Response::decode(&encoded);
        }
        // The database must still be serviceable afterwards.
        prop_assert!(server.db().software_count() < 10_000);
        server.tick();
    }

    #[test]
    fn web_renderer_is_total_over_arbitrary_paths(path in any::<String>()) {
        let server = server();
        let target = format!("/{path}");
        let (status, body) = softrep_server::web::render(&server, &target);
        prop_assert!(!status.is_empty());
        prop_assert!(!body.is_empty());
    }

    #[test]
    fn web_renderer_escapes_reflected_input(q in "[a-zA-Z0-9<>&\"' ]{1,24}") {
        let server = server();
        // Reflected search queries must never echo raw HTML metacharacters.
        let encoded: String = q
            .bytes()
            .map(|b| format!("%{b:02x}"))
            .collect();
        let (_, body) = softrep_server::web::render(&server, &format!("/search?q={encoded}"));
        prop_assert!(!body.contains("<script"), "raw reflection in {body}");
        // Any '<' from the query must appear escaped.
        if q.contains('<') {
            prop_assert!(body.contains("&lt;"));
        }
    }
}

#[test]
fn session_tokens_do_not_collide_under_load() {
    let server = server();
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(5);
    let db = server.db();
    let mut tokens = std::collections::HashSet::new();
    for i in 0..50 {
        let name = format!("load{i:03}");
        let token = db
            .register_user(&name, "pw", &format!("{name}@x.example"), server.now(), &mut rng)
            .unwrap();
        db.activate_user(&name, &token).unwrap();
        let resp =
            server.handle(&Request::Login { username: name, password: "pw".into() }, "load-host");
        let Response::Session { token } = resp else { panic!("{resp:?}") };
        assert!(tokens.insert(token), "session token collision");
    }
}

/// Holds every WAL append while set, and reports each append it holds, so
/// a test can freeze a write request midway through its handler.
struct AppendGate {
    held: Mutex<bool>,
    released: Condvar,
    parked: Mutex<mpsc::Sender<()>>,
}

impl AppendGate {
    fn pass(&self) {
        let mut held = self.held.lock().unwrap();
        if *held {
            self.parked.lock().unwrap().send(()).ok();
        }
        while *held {
            held = self.released.wait(held).unwrap();
        }
    }

    fn set(&self, hold: bool) {
        *self.held.lock().unwrap() = hold;
        self.released.notify_all();
    }
}

struct GatedFile {
    inner: Arc<dyn VfsFile>,
    gate: Arc<AppendGate>,
}

impl VfsFile for GatedFile {
    fn append(&self, data: &[u8]) -> StorageResult<()> {
        self.gate.pass();
        self.inner.append(data)
    }
    fn sync_data(&self) -> StorageResult<()> {
        self.inner.sync_data()
    }
    fn set_len(&self, len: u64) -> StorageResult<()> {
        self.inner.set_len(len)
    }
}

struct GatedVfs {
    inner: SimVfs,
    gate: Arc<AppendGate>,
}

impl GatedVfs {
    fn wrap(&self, inner: Arc<dyn VfsFile>) -> Arc<dyn VfsFile> {
        Arc::new(GatedFile { inner, gate: Arc::clone(&self.gate) })
    }
}

impl Vfs for GatedVfs {
    fn open_append(&self, path: &Path) -> StorageResult<Arc<dyn VfsFile>> {
        self.inner.open_append(path).map(|f| self.wrap(f))
    }
    fn create(&self, path: &Path) -> StorageResult<Arc<dyn VfsFile>> {
        self.inner.create(path).map(|f| self.wrap(f))
    }
    fn try_read(&self, path: &Path) -> StorageResult<Option<Vec<u8>>> {
        self.inner.try_read(path)
    }
    fn read_range(&self, path: &Path, offset: u64, len: usize) -> StorageResult<Vec<u8>> {
        self.inner.read_range(path, offset, len)
    }
    fn write(&self, path: &Path, data: &[u8]) -> StorageResult<()> {
        self.inner.write(path, data)
    }
    fn rename(&self, from: &Path, to: &Path) -> StorageResult<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> StorageResult<()> {
        self.inner.remove_file(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn create_dir_all(&self, path: &Path) -> StorageResult<()> {
        self.inner.create_dir_all(path)
    }
}

/// A registration holds no lock that `GetPuzzle` needs while it writes:
/// with the registrant frozen inside its store write, a puzzle request
/// from another thread still gets its answer.
#[test]
fn a_registration_stuck_in_its_write_does_not_block_get_puzzle() {
    let (parked_tx, parked_rx) = mpsc::channel();
    let gate = Arc::new(AppendGate {
        held: Mutex::new(false),
        released: Condvar::new(),
        parked: Mutex::new(parked_tx),
    });
    let vfs = GatedVfs { inner: SimVfs::new(), gate: Arc::clone(&gate) };
    let store = Store::open_with_vfs("/sim/rng-gate", StoreOptions::default(), Arc::new(vfs))
        .expect("open sim store");
    let db = ReputationDb::new(Arc::new(store), SecretPepper::new("rng-gate"));
    let config = ServerConfig { puzzle_difficulty: 0, ..ServerConfig::default() };
    let server = Arc::new(ReputationServer::new(db, Arc::new(SimClock::new()), config, 17));

    gate.set(true);
    let registrant = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let register = Request::Register {
                username: "frozen".into(),
                password: "pw".into(),
                email: "frozen@x.example".into(),
                puzzle_challenge: String::new(),
                puzzle_solution: 0,
            };
            server.handle(&register, "registrant")
        })
    };
    parked_rx.recv_timeout(Duration::from_secs(60)).expect("the registration reaches its write");

    let (answer_tx, answer_rx) = mpsc::channel();
    let puzzler = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            answer_tx.send(server.handle(&Request::GetPuzzle, "puzzler")).ok();
        })
    };
    let answer = answer_rx.recv_timeout(Duration::from_secs(10));
    gate.set(false);
    let registered = registrant.join().expect("registrant thread");
    puzzler.join().expect("puzzler thread");
    let answer = answer.expect("GetPuzzle waited on a lock the frozen registration holds");
    assert!(matches!(answer, Response::Puzzle { .. }), "{answer:?}");
    assert!(matches!(registered, Response::Registered { .. }), "{registered:?}");
}
