//! Concurrency integration: the server must stay consistent under
//! parallel clients — votes, queries, aggregations and registrations all
//! racing. (The deployment model is thread-per-connection, §3.2.)

use std::sync::{Arc, Barrier};

use softwareputation::core::clock::SimClock;
use softwareputation::core::db::ReputationDb;
use softwareputation::proto::{Request, Response};
use softwareputation::server::{ReputationServer, ServerConfig};

fn server() -> (Arc<ReputationServer>, SimClock) {
    let clock = SimClock::new();
    let server = Arc::new(ReputationServer::new(
        ReputationDb::in_memory("conc"),
        Arc::new(clock.clone()),
        ServerConfig {
            puzzle_difficulty: 0,
            flood_capacity: u32::MAX,
            flood_refill_per_hour: u32::MAX,
            ..ServerConfig::default()
        },
        1,
    ));
    (server, clock)
}

fn join(server: &ReputationServer, name: &str) -> String {
    let Response::Registered { activation_token } = server.handle(
        &Request::Register {
            username: name.into(),
            password: "pw".into(),
            email: format!("{name}@c.example"),
            puzzle_challenge: String::new(),
            puzzle_solution: 0,
        },
        name,
    ) else {
        panic!("registration failed for {name}")
    };
    server.handle(&Request::Activate { username: name.into(), token: activation_token }, name);
    let Response::Session { token } =
        server.handle(&Request::Login { username: name.into(), password: "pw".into() }, name)
    else {
        panic!("login failed for {name}")
    };
    token
}

#[test]
fn parallel_voters_preserve_one_vote_per_user() {
    let (server, _clock) = server();
    let software: Vec<String> = (0..8).map(|i| format!("{i:040x}")).collect();
    for id in &software {
        server.handle(
            &Request::RegisterSoftware {
                software_id: id.clone(),
                file_name: "app.exe".into(),
                file_size: 1,
                company: None,
                version: None,
            },
            "seed",
        );
    }

    let threads: Vec<_> = (0..8)
        .map(|t| {
            let server = Arc::clone(&server);
            let software = software.clone();
            std::thread::spawn(move || {
                let name = format!("voter{t}");
                let session = join(&server, &name);
                // Each voter re-votes on every program many times from its
                // own thread; replacements must never duplicate.
                for round in 0..20u8 {
                    for id in &software {
                        let resp = server.handle(
                            &Request::SubmitVote {
                                session: session.clone(),
                                software_id: id.clone(),
                                score: (round % 10) + 1,
                                behaviours: vec![],
                            },
                            &name,
                        );
                        assert_eq!(resp, Response::Ok);
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // Exactly 8 voters × 8 programs ballots, despite 160 submissions each.
    assert_eq!(server.db().vote_count(), 64);
    for id in &software {
        assert_eq!(server.db().votes_for(id).unwrap().len(), 8);
    }
}

#[test]
fn aggregation_races_with_writes_without_corruption() {
    let (server, clock) = server();
    let id = format!("{0:040x}", 7);
    server.handle(
        &Request::RegisterSoftware {
            software_id: id.clone(),
            file_name: "app.exe".into(),
            file_size: 1,
            company: None,
            version: None,
        },
        "seed",
    );
    let session = join(&server, "racer");
    // Each tick moves the clock a day, past the writer's 24 h session, so
    // the aggregator starts only once the writer's first ballot is in;
    // otherwise the run can end with no ballot at all.
    let first_ballot = Arc::new(Barrier::new(2));

    let writer = {
        let server = Arc::clone(&server);
        let id = id.clone();
        let first_ballot = Arc::clone(&first_ballot);
        std::thread::spawn(move || {
            for round in 0..200u32 {
                server.handle(
                    &Request::SubmitVote {
                        session: session.clone(),
                        software_id: id.clone(),
                        score: ((round % 10) + 1) as u8,
                        behaviours: vec![],
                    },
                    "racer",
                );
                if round == 0 {
                    first_ballot.wait();
                }
            }
        })
    };
    let aggregator = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            first_ballot.wait();
            for _ in 0..50 {
                clock.advance_days(1);
                server.tick();
            }
        })
    };
    writer.join().unwrap();
    aggregator.join().unwrap();

    // Final state is consistent: one ballot, and a final aggregation
    // reflects exactly it.
    server.db().force_aggregation(server.now()).unwrap();
    let rating = server.db().rating(&id).unwrap().unwrap();
    assert_eq!(rating.vote_count, 1);
    let ballot = server.db().votes_for(&id).unwrap().remove(0);
    assert_eq!(rating.rating, f64::from(ballot.score));
}

#[test]
fn votes_racing_incremental_aggregation_are_never_dropped() {
    // The incremental engine's drain-before-read protocol guarantees that
    // a vote landing mid-recompute is folded into that batch or leaves its
    // dirty mark for the next one — never lost. Hammer the protocol:
    // voters and incremental batches race freely, then one final batch
    // must account for every ballot.
    let (server, _clock) = server();
    let software: Vec<String> = (0..4).map(|i| format!("{i:040x}")).collect();
    for id in &software {
        server.handle(
            &Request::RegisterSoftware {
                software_id: id.clone(),
                file_name: "app.exe".into(),
                file_size: 1,
                company: None,
                version: None,
            },
            "seed",
        );
    }

    let voters: Vec<_> = (0..4)
        .map(|t| {
            let server = Arc::clone(&server);
            let software = software.clone();
            std::thread::spawn(move || {
                let name = format!("racer{t}");
                let session = join(&server, &name);
                for round in 0..100u32 {
                    for id in &software {
                        server.handle(
                            &Request::SubmitVote {
                                session: session.clone(),
                                software_id: id.clone(),
                                score: ((round % 10) + 1) as u8,
                                behaviours: vec![],
                            },
                            &name,
                        );
                    }
                }
            })
        })
        .collect();
    let aggregator = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            for _ in 0..100 {
                server.db().force_aggregation_incremental(server.now()).unwrap();
            }
        })
    };
    for t in voters {
        t.join().unwrap();
    }
    aggregator.join().unwrap();

    // Every vote either made an earlier batch or is still marked dirty;
    // one final incremental batch settles the remainder, after which the
    // published ratings must match a from-scratch full recompute exactly.
    server.db().force_aggregation_incremental(server.now()).unwrap();
    assert_eq!(server.db().dirty_count(), 0, "no marks survive a quiescent batch");
    let incremental: Vec<_> = server
        .db()
        .ratings_snapshot()
        .unwrap()
        .into_iter()
        .map(|r| (r.software_id.clone(), r.content_bytes()))
        .collect();
    server.db().force_aggregation_full(server.now()).unwrap();
    let full: Vec<_> = server
        .db()
        .ratings_snapshot()
        .unwrap()
        .into_iter()
        .map(|r| (r.software_id.clone(), r.content_bytes()))
        .collect();
    assert_eq!(incremental, full, "a vote was dropped or double-counted");
    for id in &software {
        let rating = server.db().rating(id).unwrap().unwrap();
        assert_eq!(rating.vote_count, 4, "one ballot per racer survives re-voting");
    }
}

#[test]
fn parallel_registrations_never_duplicate_emails() {
    let (server, _clock) = server();
    // 8 threads race to register with only 4 distinct e-mail addresses;
    // exactly 4 must win.
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let resp = server.handle(
                    &Request::Register {
                        username: format!("dup{t}"),
                        password: "pw".into(),
                        email: format!("shared{}@c.example", t % 4),
                        puzzle_challenge: String::new(),
                        puzzle_solution: 0,
                    },
                    "race",
                );
                matches!(resp, Response::Registered { .. })
            })
        })
        .collect();
    let winners = threads.into_iter().map(|t| t.join().unwrap()).filter(|won| *won).count();
    assert_eq!(winners, 4, "exactly one registration per distinct address");
    assert_eq!(server.db().user_count(), 4);
}
