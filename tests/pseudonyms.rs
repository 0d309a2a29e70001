//! §5 pseudonyms end to end: a verified member draws one blind-signed
//! credential and redeems it as an unlinkable pseudonym account; the
//! server can verify membership without being able to link the pseudonym
//! back — and the database breach audit shows what that buys.

use std::path::Path;
use std::sync::Arc;

use softwareputation::core::clock::SimClock;
use softwareputation::core::db::ReputationDb;
use softwareputation::crypto::bignum::BigUint;
use softwareputation::crypto::hex;
use softwareputation::crypto::rsa::{BlindingSession, RsaPublicKey};
use softwareputation::crypto::salted::SecretPepper;
use softwareputation::proto::{Request, Response};
use softwareputation::server::pseudonym_key::KEY_FILE;
use softwareputation::server::{ReputationServer, ServerConfig};
use softwareputation::storage::Store;

#[path = "support/tempdir.rs"]
mod tempdir;

use tempdir::TempDir;

fn config() -> ServerConfig {
    ServerConfig {
        puzzle_difficulty: 0,
        flood_capacity: u32::MAX,
        flood_refill_per_hour: u32::MAX,
        // Small key keeps debug-mode tests fast; the scheme is
        // size-agnostic (the deployment binary uses 1024).
        pseudonym_key_bits: 256,
        ..ServerConfig::default()
    }
}

fn server() -> (Arc<ReputationServer>, SimClock) {
    let clock = SimClock::new();
    let server = Arc::new(ReputationServer::new(
        ReputationDb::in_memory("pseudo"),
        Arc::new(clock.clone()),
        config(),
        23,
    ));
    (server, clock)
}

/// A server over a durable store in `dir`, as a deployment restarts it.
fn server_on_disk(dir: &Path, clock: &SimClock, rng_seed: u64) -> ReputationServer {
    let store = Store::open(dir).expect("open store");
    let db = ReputationDb::new(Arc::new(store), SecretPepper::new("pseudo"));
    ReputationServer::new(db, Arc::new(clock.clone()), config(), rng_seed)
}

fn join(server: &ReputationServer, name: &str) -> String {
    let Response::Registered { activation_token } = server.handle(
        &Request::Register {
            username: name.into(),
            password: "pw".into(),
            email: format!("{name}@p.example"),
            puzzle_challenge: String::new(),
            puzzle_solution: 0,
        },
        name,
    ) else {
        panic!("registration failed")
    };
    server.handle(&Request::Activate { username: name.into(), token: activation_token }, name);
    let Response::Session { token } =
        server.handle(&Request::Login { username: name.into(), password: "pw".into() }, name)
    else {
        panic!("login failed")
    };
    token
}

fn fetch_key(server: &ReputationServer) -> RsaPublicKey {
    let Response::PseudonymKey { n, e } = server.handle(&Request::GetPseudonymKey, "c") else {
        panic!("expected key")
    };
    RsaPublicKey { n: BigUint::from_hex(&n).unwrap(), e: BigUint::from_hex(&e).unwrap() }
}

/// The full client-side credential flow; returns (token_hex, sig_hex).
fn draw_credential(server: &ReputationServer, session: &str, seed: u64) -> (String, String) {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let public = fetch_key(server);
    let mut token = [0u8; 32];
    rng.fill_bytes(&mut token);

    let (blind_session, blinded) = BlindingSession::blind(&token, &public, &mut rng);
    let Response::BlindSignature { value } = server.handle(
        &Request::BlindSignPseudonym { session: session.into(), blinded: blinded.to_hex() },
        "member-host",
    ) else {
        panic!("expected blind signature")
    };
    let signature = blind_session
        .unblind(&BigUint::from_hex(&value).unwrap())
        .expect("server signature must verify");
    (hex::encode(&token), signature.0.to_hex())
}

#[test]
fn pseudonym_lifecycle_and_unlinkability() {
    let (server, _clock) = server();
    let session = join(&server, "whistleblower");
    let (token, signature) = draw_credential(&server, &session, 1);

    // Redeem the credential — note: no session is presented.
    let resp = server.handle(
        &Request::RegisterPseudonym {
            username: "deep_throat".into(),
            password: "anon-pw".into(),
            token: token.clone(),
            signature: signature.clone(),
        },
        "some-other-host",
    );
    assert_eq!(resp, Response::Ok);

    // The pseudonym is a fully functional member.
    let Response::Session { token: pseudo_session } = server.handle(
        &Request::Login { username: "deep_throat".into(), password: "anon-pw".into() },
        "some-other-host",
    ) else {
        panic!("pseudonym login failed")
    };
    let sw = "ab".repeat(20);
    server.handle(
        &Request::RegisterSoftware {
            software_id: sw.clone(),
            file_name: "sensitive-tool.exe".into(),
            file_size: 1,
            company: None,
            version: None,
        },
        "h",
    );
    assert_eq!(
        server.handle(
            &Request::SubmitVote {
                session: pseudo_session,
                software_id: sw,
                score: 2,
                behaviours: vec!["tracking".into()],
            },
            "some-other-host",
        ),
        Response::Ok
    );

    // Breach audit: the pseudonym's stored record carries no e-mail
    // digest and nothing linking it to "whistleblower".
    let record = server.db().user("deep_throat").unwrap().unwrap();
    assert!(record.pseudonym);
    assert!(record.email_digest.is_empty());
    // The member's record shows only that *a* credential was drawn.
    let member = server.db().user("whistleblower").unwrap().unwrap();
    assert!(member.pseudonym_credential_issued);

    // Replay: the same token cannot mint a second pseudonym.
    let resp = server.handle(
        &Request::RegisterPseudonym {
            username: "second_identity".into(),
            password: "pw".into(),
            token,
            signature,
        },
        "h",
    );
    assert!(matches!(resp, Response::Error { ref code, .. } if code == "invalid-input"));
}

/// A credential outlives the server process that signed it: draw under one
/// server, restart over the same data directory with a different RNG seed,
/// and redeem. The member cannot draw again, so a key that changed across
/// the restart would strand the credential for good.
#[test]
fn a_credential_drawn_before_a_restart_redeems_after_it() {
    let dir = TempDir::new("pseudonym-restart");
    let clock = SimClock::new();
    let (token, signature) = {
        let server = server_on_disk(dir.path(), &clock, 1);
        let session = join(&server, "member");
        assert!(!dir.path().join(KEY_FILE).exists(), "no start makes the key");
        draw_credential(&server, &session, 4)
    };

    let server = server_on_disk(dir.path(), &clock, 2);
    let resp = server.handle(
        &Request::RegisterPseudonym {
            username: "after_restart".into(),
            password: "pw".into(),
            token,
            signature,
        },
        "some-other-host",
    );
    assert_eq!(resp, Response::Ok);
    assert!(server.db().user("after_restart").unwrap().unwrap().pseudonym);
}

/// A key file that does not decode makes every pseudonym endpoint answer
/// `pseudonym-key-unavailable`. The server never replaces it with a new
/// key, which would void every credential the old one signed.
#[test]
fn a_corrupt_key_file_is_an_error_not_a_new_key() {
    let dir = TempDir::new("pseudonym-corrupt");
    let clock = SimClock::new();
    let key_path = dir.path().join(KEY_FILE);
    fetch_key(&server_on_disk(dir.path(), &clock, 1));
    let mut bytes = std::fs::read(&key_path).expect("the first request wrote the key");
    bytes.truncate(bytes.len() / 2);
    std::fs::write(&key_path, &bytes).unwrap();

    let server = server_on_disk(dir.path(), &clock, 1);
    let session = join(&server, "member");
    for request in [
        Request::GetPseudonymKey,
        Request::BlindSignPseudonym { session, blinded: "abcd".into() },
        Request::RegisterPseudonym {
            username: "nym".into(),
            password: "pw".into(),
            token: "00ff".into(),
            signature: "1234".into(),
        },
    ] {
        let resp = server.handle(&request, "c");
        assert!(
            matches!(resp, Response::Error { ref code, .. } if code == "pseudonym-key-unavailable"),
            "{request:?} answered {resp:?}"
        );
    }
    assert_eq!(std::fs::read(&key_path).unwrap(), bytes, "the key file is left as it was");
    assert!(!server.db().user("member").unwrap().unwrap().pseudonym_credential_issued);
}

#[test]
fn one_credential_per_member() {
    let (server, _clock) = server();
    let session = join(&server, "greedy");
    let _ = draw_credential(&server, &session, 2);
    // The second draw is refused at the blind-signing step.
    let public = fetch_key(&server);
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(3);
    let (_, blinded) = BlindingSession::blind(b"another token", &public, &mut rng);
    let resp = server
        .handle(&Request::BlindSignPseudonym { session, blinded: blinded.to_hex() }, "member-host");
    assert!(matches!(resp, Response::Error { ref code, .. } if code == "invalid-input"));
}

#[test]
fn forged_credentials_are_rejected() {
    let (server, _clock) = server();
    // A token "signed" with a made-up signature value.
    let resp = server.handle(
        &Request::RegisterPseudonym {
            username: "forger".into(),
            password: "pw".into(),
            token: hex::encode(b"self-issued token"),
            signature: "deadbeef".into(),
        },
        "h",
    );
    assert!(matches!(resp, Response::Error { ref code, .. } if code == "bad-credential"));
    assert!(server.db().user("forger").unwrap().is_none());

    // Garbage hex is a bad request, not a panic.
    let resp = server.handle(
        &Request::RegisterPseudonym {
            username: "forger".into(),
            password: "pw".into(),
            token: "not hex!".into(),
            signature: "zz".into(),
        },
        "h",
    );
    assert!(matches!(resp, Response::Error { ref code, .. } if code == "bad-request"));
}

#[test]
fn pseudonyms_disabled_without_a_key() {
    let clock = SimClock::new();
    let server = ReputationServer::new(
        ReputationDb::in_memory("nokey"),
        Arc::new(clock),
        ServerConfig { puzzle_difficulty: 0, ..ServerConfig::default() },
        1,
    );
    let resp = server.handle(&Request::GetPseudonymKey, "c");
    assert!(matches!(resp, Response::Error { ref code, .. } if code == "pseudonyms-disabled"));
}

#[test]
fn pseudonym_messages_roundtrip_on_the_wire() {
    for request in [
        Request::GetPseudonymKey,
        Request::BlindSignPseudonym { session: "s".into(), blinded: "abcd".into() },
        Request::RegisterPseudonym {
            username: "nym".into(),
            password: "pw".into(),
            token: "00ff".into(),
            signature: "1234".into(),
        },
    ] {
        assert_eq!(Request::decode(&request.encode()).unwrap(), request);
    }
    for response in [
        Response::PseudonymKey { n: "ff".into(), e: "10001".into() },
        Response::BlindSignature { value: "beef".into() },
    ] {
        assert_eq!(Response::decode(&response.encode()).unwrap(), response);
    }
}
